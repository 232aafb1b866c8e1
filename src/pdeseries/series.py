"""Exact rational linear algebra and truncated time power series.

Holds the mass matrix and its inverse, matrix-valued spatial
differential operators, truncated expansions in the time variable with
symbolic spatial coefficients, and the complete problem description
that both solver engines consume.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    ExpansionSingular,
    SingularRho,
    TimeNotAllowed,
)
from .expr import (
    Const,
    Expr,
    Func,
    ONE,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    Var,
    ZERO,
    _diff,
    eprod,
    esum,
    normalize,
    substitute,
    too_large_power,
    uses_time,
)
from .poly import ONE as POLY_ONE, Poly, Ring, add, mul, scale

ExprVec = tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        m = len(self.entries)
        if m == 0 or any(len(row) != m for row in self.entries):
            raise DimensionMismatch("matrix must be square and non-empty")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, m: int) -> "RationalMatrix":
        return cls(tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(m))
            for i in range(m)
        ))

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        m = self.size
        if other.size != m:
            raise DimensionMismatch("matrix sizes differ")
        return RationalMatrix(tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(m))
                  for j in range(m))
            for i in range(m)
        ))

    def scaled(self, factor: Fraction) -> "RationalMatrix":
        q = Fraction(factor)
        return RationalMatrix(tuple(
            tuple(q * x for x in row) for row in self.entries
        ))


def invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by rational Gauss-Jordan elimination.

    Raises SingularRho when the matrix has no inverse."""
    m = matrix.size
    aug = [
        list(matrix.entries[i]) + [Fraction(1 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularRho(f"matrix is singular (rank < {m})")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(m):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return RationalMatrix(tuple(tuple(row[m:]) for row in aug))


# ---------------------------------------------------------------------------
# Spatial differential operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorTerm:
    """One summand coeff(x) * d^orders applied to component ``col``,
    contributing to component ``row``."""

    row: int
    col: int
    coeff: Expr
    orders: tuple[int, ...]


@dataclass(frozen=True)
class SpatialOperator:
    """Matrix-valued linear differential operator with time-free
    coefficients; structurally the sum of its terms."""

    m: int
    n: int
    terms: tuple[OperatorTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if not (0 <= t.row < self.m and 0 <= t.col < self.m):
                raise DimensionMismatch(
                    f"operator term row/col ({t.row},{t.col}) outside 0..{self.m - 1}"
                )
            if len(t.orders) != self.n:
                raise DimensionMismatch(
                    f"derivative multi-index length {len(t.orders)} != {self.n}"
                )
            if any(k < 0 for k in t.orders):
                raise DimensionMismatch("derivative orders must be nonnegative")
            if uses_time(t.coeff):
                raise TimeNotAllowed("operator coefficients must be time-free", 0)


def apply_rows(
    ring: Ring, op: SpatialOperator, vec: Sequence[Poly], forcing: Sequence[Poly]
) -> list[Poly]:
    """``L vec + forcing`` on polynomials of ``ring``, one sum per component.

    A partial derivative that several terms need (the d/dx1 of u under
    both d2/dx1^2 and d/dx1) is taken once per call, and the ring takes
    the derivative of each atom once per variable."""
    if len(vec) != op.m or len(forcing) != op.m:
        raise DimensionMismatch(f"vector lengths {len(vec)}, {len(forcing)} != {op.m}")
    partials: dict[tuple, Poly] = {}
    rows = [[c] for c in forcing]
    for term in op.terms:
        key: tuple = (term.col,)
        d = vec[term.col]
        for variable, order in enumerate(term.orders, start=1):
            for _ in range(order):
                key += (variable,)
                got = partials.get(key)
                if got is None:
                    got = partials[key] = ring.diff(d, variable)
                d = got
        if d.num:
            rows[term.row].append(mul(ring.from_tree(term.coeff), d))
    return [add(*parts) for parts in rows]


# ---------------------------------------------------------------------------
# Expansion about time zero
# ---------------------------------------------------------------------------

def expand_in_time(e: Expr, order: int) -> ExprVec:
    """Coefficients g_0..g_order of the expansion of ``e`` about time
    zero, by ``_Jets`` on normalized trees; g_0 is the normalized tree
    at t = 0.

    Raises ExpansionSingular where ``e`` has no power series at time
    zero (ln of a series whose constant term is zero or a constant
    <= 0, anywhere in the tree; a negative power of a series whose
    constant term is zero), or where a constant term raised to the
    exponent would be too large to represent."""
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    return tuple(_Jets(order).expansion(normalize(e)))


def _binomial(k: int, m: int) -> Fraction:
    """Generalised binomial coefficient k(k-1)...(k-m+1)/m!."""
    out = Fraction(1)
    for i in range(m):
        out = out * (k - i) / (i + 1)
    return out


class _Jets:
    """Truncated power series in time ("jets" [c_0..c_order]) of the
    subtrees of one expansion, each built bottom-up from the jets of its
    children (Griewank & Walther, *Evaluating Derivatives*, ch. 13;
    Knuth, TAOCP vol. 2, 4.7); ``None`` stands for a time-free subtree
    e, whose jet is [e, 0, ..., 0].

    * sums add term by term; products take a sparse Cauchy product;
    * a function of a series a_0 + h composes its Taylor series about
      a_0 with h, f(a_0 + h) = sum_k f^(k)(a_0)/k! h^k;
    * a power of a series composes the binomial series in the same way.

    The tree is never differentiated in time as a whole.  The recursion
    is written once over hooks: ``_add``, ``_mul``, ``_power``,
    ``_terms`` (what a product spreads over), ``_leaf`` (a time-free
    subtree as a value), ``_constant`` (the rational a value is, or
    None) and ``_taylor`` (the f^(k)(a_0)/k!).  This class computes on
    normalized trees; ``_RingJets`` on polynomials."""

    _add, _mul, _power = staticmethod(esum), staticmethod(eprod), staticmethod(Expr.__pow__)

    def __init__(self, order: int):
        self.order = order
        self.memo: dict[Expr, list | None] = {}
        self.derivatives: dict = {}  # per function name: (memo, [f(t), f'(t), ...])

    @staticmethod
    def _terms(c: Expr) -> tuple[Expr, ...]:
        return c.terms if isinstance(c, Sum) else (c,)

    @staticmethod
    def _leaf(e: Expr):
        return e

    @staticmethod
    def _constant(c) -> Fraction | None:
        return c.value if isinstance(c, Const) else None

    def _taylor(self, name: str, a0, count: int) -> list:
        """From differentiating the one-node tree f(t) and substituting a0."""
        memo, derivatives = self.derivatives.setdefault(name, ({}, [Func(name, Var(TIME_INDEX))]))
        while len(derivatives) < count:
            derivatives.append(_diff(derivatives[-1], TIME_INDEX, memo))
        return [eprod([Const(Fraction(1, math.factorial(k))), substitute(d, TIME_INDEX, a0)])
                for k, d in enumerate(derivatives[:count])]

    def expansion(self, e: Expr) -> list:
        """The jet of the normalized tree ``e``, time-free or not."""
        jet = self.of(e)
        return [self._leaf(e)] + [self._leaf(ZERO)] * self.order if jet is None else jet

    def of(self, e: Expr) -> list | None:
        if isinstance(e, Const):
            return None
        if isinstance(e, Var):
            if e.index != TIME_INDEX:
                return None
            jet = [self._leaf(ZERO)] * (self.order + 1)
            if self.order:
                jet[1] = self._leaf(ONE)
            return jet
        try:
            return self.memo[e]
        except KeyError:
            pass
        if isinstance(e, Sum):
            jet = self._sum(e)
        elif isinstance(e, Prod):
            jet = self._prod(e)
        elif isinstance(e, Pow):
            jet = self._pow(e)
        else:
            jet = self._func(e)
        self.memo[e] = jet
        return jet

    def _sum(self, e: Sum) -> list | None:
        jets = [self.of(t) for t in e.terms]
        if all(j is None for j in jets):
            return None
        out = [self._add([self._leaf(t) if j is None else j[0] for t, j in zip(e.terms, jets)])]
        live = [j for j in jets if j is not None]
        for n in range(1, self.order + 1):
            out.append(self._add([j[n] for j in live]))
        return out

    def _prod(self, e: Prod) -> list | None:
        jets = [self.of(f) for f in e.factors]
        if all(j is None for j in jets):
            return None
        free = self._mul([self._leaf(f) for f, j in zip(e.factors, jets) if j is None])
        live = [j for j in jets if j is not None]
        product = live[0]
        for j in live[1:]:
            product = self._cauchy(product, j)
        # the time-free part stays one factor of every term, as the
        # product rule would leave it
        out = [self._mul([free, product[0]])]
        for c in product[1:]:
            out.append(self._add([self._mul([free, t]) for t in self._terms(c)]))
        return out

    def _cauchy(self, a: list, b: list, spread: bool = True) -> list:
        """Truncated product of two jets.  Degree 0 is the plain product
        of the constant terms.  Above it, with ``spread`` every a_i*b_j
        is spread over the top-level terms of both sides, so like terms
        collect as after the product rule; without, it is formed whole."""
        n, mul = self.order, self._mul
        terms = self._terms if spread else (lambda c: (c,))
        live_a = [(i, terms(c)) for i, c in enumerate(a) if self._constant(c) != 0]
        live_b = [(i, terms(c)) for i, c in enumerate(b) if self._constant(c) != 0]
        parts: list[list] = [[] for _ in range(n + 1)]
        for i, terms_a in live_a:
            for j, terms_b in live_b:
                if i + j > n:
                    break
                if i + j == 0:
                    parts[0].append(mul([a[0], b[0]]))
                    continue
                target = parts[i + j]
                for x in terms_a:
                    for y in terms_b:
                        target.append(mul([x, y]))
        return [self._add(p) for p in parts]

    def _span(self, h: list) -> int:
        """Highest k for which h^k reaches the order, h with a zero
        constant term."""
        valuation = next((i for i, c in enumerate(h) if self._constant(c) != 0), None)
        return 0 if valuation is None else self.order // valuation

    def _compose(self, taylor: list, h: list) -> list:
        """g(a_0 + h) = sum over k of taylor[k] * h^k, truncated, for g
        with Taylor coefficients ``taylor`` about a_0 (at most
        ``_span(h)`` + 1 of them) and h with a zero constant term.  The
        powers h^k and the products taylor[k] * (h^k)_j are formed whole:
        spreading them over their terms made nested compositions such as
        tanh(tanh(tanh(cosh(t)))) print two to three times longer."""
        parts: list[list] = [[taylor[0]]] + [[] for _ in range(self.order)]
        last = max(k for k, c in enumerate(taylor) if k == 0 or self._constant(c) != 0)
        power = h
        for k in range(1, last + 1):
            if k > 1:
                power = self._cauchy(power, h, spread=False)
            if self._constant(taylor[k]) == 0:
                continue
            for j, c in enumerate(power):
                if self._constant(c) != 0:
                    parts[j].append(self._mul([taylor[k], c]))
        return [self._add(p) for p in parts]

    def _func(self, e: Func) -> list | None:
        a = self.of(e.arg)
        a0 = self._leaf(e.arg) if a is None else a[0]
        if e.name == "ln" and (c := self._constant(a0)) is not None and c <= 0:
            raise ExpansionSingular("ln argument vanishes or is negative at time zero")
        if a is None:
            return None
        h = [self._leaf(ZERO), *a[1:]]
        return self._compose(self._taylor(e.name, a0, self._span(h) + 1), h)

    def _pow(self, e: Pow) -> list | None:
        b = self.of(e.base)
        if b is None:
            return None
        k, b0 = e.exponent, b[0]
        c = self._constant(b0)
        if k < 0 and c == 0:
            raise ExpansionSingular(
                "negative power of a series that vanishes at time zero"
            )
        if c is not None and too_large_power(c, k):
            raise ExpansionSingular(
                "power of a constant too large to represent at time zero"
            )
        # the binomial series (b_0 + h)^k = sum_m C(k, m) b_0^(k-m) h^m,
        # which for b_0 = 0 keeps only h^k
        h = [self._leaf(ZERO), *b[1:]]
        count = self._span(h) + 1 if k < 0 else min(self._span(h), k) + 1
        taylor = [
            self._mul([self._leaf(Const(_binomial(k, m))), self._power(b0, k - m)])
            for m in range(count)
        ]
        return self._compose(taylor, h)


class _RingJets(_Jets):
    """The same recursion on polynomials of ``ring``.  f^(k)(a0)/k!
    comes from differentiating f(t) in a small ring of its own, then
    mapping t to a0 and each g(t) there to g(a0), monomial by monomial."""

    _terms = staticmethod(lambda c: (c,))

    def __init__(self, ring: Ring, order: int):
        super().__init__(order)
        self.ring, self._power, self._leaf = ring, ring.power, ring.from_tree

    @staticmethod
    def _add(parts: list) -> Poly:
        return add(*parts)

    @staticmethod
    def _mul(factors: list) -> Poly:
        out = POLY_ONE
        for f in factors:
            out = f if out is POLY_ONE else mul(out, f)
        return out

    @staticmethod
    def _constant(c: Poly) -> Fraction | None:
        num = c.num
        if not num:
            return Fraction(0)
        n = num.get(()) if len(num) == 1 else None
        return None if n is None else Fraction(n, c.den)

    def _taylor(self, name: str, a0: Poly, count: int) -> list:
        if name not in self.derivatives:
            small = Ring()
            self.derivatives[name] = small, [small.from_tree(Func(name, Var(TIME_INDEX)))]
        small, derivatives = self.derivatives[name]
        while len(derivatives) < count:
            derivatives.append(small.diff(derivatives[-1], TIME_INDEX))
        images = [a0 if isinstance(g, Var) else self.ring.func(g.name, a0) for g in small.trees]
        return [self._add([
            self._mul([Poly({(): c}, derivatives[k].den * math.factorial(k)),
                       *(self.ring.power(images[i], e) for i, e in enumerate(m) if e)])
            for m, c in derivatives[k].num.items()
        ]) for k in range(count)]


# ---------------------------------------------------------------------------
# Vectors of polynomials
# ---------------------------------------------------------------------------

def scale_rows(matrix: RationalMatrix, v: Sequence[Poly]) -> list[Poly]:
    """Exact matrix-vector product on polynomials."""
    return [add(*(scale(p, q) for q, p in zip(row, v))) for row in matrix.entries]


# ---------------------------------------------------------------------------
# Truncated time power series of expression vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeriesVec:
    """Truncated expansion sum_j t^j * c_j(x) with vector coefficients.

    ``coeffs[j][k]`` is component k of the degree-j coefficient; the
    list always holds exactly ``order + 1`` entries.  A series that
    ``rows_series`` made keeps its rows and their ring as attributes,
    not fields, and builds ``coeffs`` from them when it is first read:
    equality, hashing, repr, pickles and copies see only the trees."""

    m: int
    order: int
    coeffs: tuple[ExprVec, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"coefficient list has {len(self.coeffs)} entries, expected {self.order + 1}"
            )
        for row in self.coeffs:
            if len(row) != self.m:
                raise DimensionMismatch(
                    f"coefficient vector length {len(row)} != {self.m}"
                )

    def __getattr__(self, name: str):
        # reached only for an attribute not yet set: the trees of a series of rows
        if name != "coeffs" or "_rows" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        coeffs = tuple(tuple(map(self._ring.to_tree, row)) for row in self._rows)
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def coefficient(self, degree: int) -> ExprVec:
        return self.coeffs[degree]

    def __getstate__(self) -> dict:
        # pickles and copies carry the trees, not the rows or their ring
        return {"m": self.m, "order": self.order, "coeffs": self.coeffs}


Rows = list[list[Poly]]  # degree -> component -> polynomial


def series_rows(ring: Ring, s: TimeSeriesVec) -> Rows:
    """The coefficients of ``s`` as polynomials of ``ring``: the rows
    ``rows_series`` made it from in ``ring``, or else its trees
    converted."""
    if vars(s).get("_ring") is ring:
        return s._rows
    return [list(map(ring.from_tree, row)) for row in s.coeffs]


def series_ring(s: TimeSeriesVec) -> Ring:
    """The ring of the rows ``s`` keeps, or a new one for a series of trees."""
    return vars(s).get("_ring") or Ring()


def rows_series(ring: Ring, rows: Rows) -> TimeSeriesVec:
    """The series with coefficients ``rows``, polynomials of ``ring``.
    It keeps ``rows`` for ``series_rows`` and builds no tree until
    ``coeffs`` is read."""
    series = object.__new__(TimeSeriesVec)
    vars(series).update(m=len(rows[0]), order=len(rows) - 1, _ring=ring, _rows=rows)
    return series


# ---------------------------------------------------------------------------
# Complete problem description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: dimensions, mass matrix and its exact
    inverse, spatial operator, forcing, initial data, truncation order."""

    m: int
    n: int
    rho: RationalMatrix
    rho_inv: RationalMatrix
    L: SpatialOperator
    f_source: ExprVec
    u0: ExprVec
    u1: ExprVec
    order: int

    @classmethod
    def create(
        cls,
        m: int,
        n: int,
        rho: RationalMatrix,
        L: SpatialOperator,
        f: Sequence[Expr],
        u0: Sequence[Expr],
        u1: Sequence[Expr],
        order: int,
    ) -> "ProblemSpec":
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        if rho.size != m:
            raise DimensionMismatch(f"rho is {rho.size}x{rho.size}, expected {m}x{m}")
        if L.m != m or L.n != n:
            raise DimensionMismatch("operator dimensions disagree with the problem")
        for name, vec in (("f", f), ("u0", u0), ("u1", u1)):
            if len(vec) != m:
                raise DimensionMismatch(f"{name} has length {len(vec)}, expected {m}")
        for name, vec in (("u0", u0), ("u1", u1)):
            for component in vec:
                if uses_time(component):
                    raise TimeNotAllowed(f"{name} must be time-free", 0)
        return cls(
            m=m,
            n=n,
            rho=rho,
            rho_inv=invert(rho),
            L=L,
            f_source=tuple(normalize(c) for c in f),
            u0=tuple(normalize(c) for c in u0),
            u1=tuple(normalize(c) for c in u1),
            order=order,
        )

    def with_order(self, order: int) -> "ProblemSpec":
        """The same problem truncated at another order; it shares this
        problem's forcing expansion and polynomial ring."""
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        other = dataclasses.replace(self, order=order)
        for name in _HIDDEN:
            object.__setattr__(other, name, _hidden(self, name))
        return other

    def __getstate__(self) -> dict:
        # pickles and copies carry the problem, not its caches
        return {k: v for k, v in self.__dict__.items() if k not in _HIDDEN}


# Per-problem caches, kept as attributes rather than fields so that
# equality, hashing and repr ignore them: the forcing expansion per
# component, and the ring both engines compute in.
_HIDDEN = {"_forcing": list, "_ring": Ring}


def _hidden(p: ProblemSpec, name: str):
    try:
        return getattr(p, name)
    except AttributeError:
        value = _HIDDEN[name]()
        object.__setattr__(p, name, value)
        return value


def problem_ring(p: ProblemSpec) -> Ring:
    """The polynomial ring of ``p``, made on first use."""
    return _hidden(p, "_ring")


def forcing_rows(p: ProblemSpec, order: int) -> Rows:
    """Per-degree forcing vectors f_0..f_order from the closed-form
    forcing expressions, as polynomials of ``problem_ring(p)``.

    Each forcing component is expanded by jets in the ring once per
    problem: coefficients do not depend on the order they were expanded
    to, so a later call with an order no larger reads a prefix of the
    stored ones, and only a larger order expands again."""
    per_component = _hidden(p, "_forcing")
    if not per_component or len(per_component[0]) <= order:
        jets = _RingJets(problem_ring(p), order)
        per_component[:] = [jets.expansion(c) for c in p.f_source]
    return [[c[j] for c in per_component] for j in range(order + 1)]
