"""Exact rational linear algebra and truncated time power series.

Holds the mass matrix and its inverse, matrix-valued spatial
differential operators, truncated expansions in the time variable with
symbolic spatial coefficients, and the complete problem description
that both solver engines consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DomainError,
    ExpansionSingular,
    FormatError,
    ParseError,
    SingularRho,
    TimeNotAllowed,
    UnknownIdentifier,
)
from .expr import (
    Const,
    Expr,
    Func,
    Pow,
    Prod,
    Sum,
    TIME_INDEX,
    Var,
    _variables,
    normalize,
    too_large_power,
)
from .poly import ONE as POLY_ONE, PARTNERS, ZERO as POLY_ZERO, Poly, Ring, add, dot, scale

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
        if m == 0 or any([len(row) != m for row in self.entries]):
            raise DimensionMismatch("matrix must be square and non-empty")

    @cached_property
    def numerators(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The entries as int numerators over their least common
        denominator, and that denominator; built on first use and kept in
        ``vars(self)``, which equality and repr ignore."""
        den = math.lcm(*[x.denominator for row in self.entries for x in row])
        return tuple([tuple([x.numerator * (den // x.denominator) for x in row])
                      for row in self.entries]), den

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, m: int) -> "RationalMatrix":
        return cls(tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(m))
            for i in range(m)
        ))


def invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination (Bareiss,
    *Math. Comp.* 22, 1968) of [A | I], A the ``numerators`` over D: each
    update is divided exactly by the previous pivot, [A | I] ends as
    [det(A) I | det(A) A^-1], and the inverse is D/det(A) times its right
    block, one ``Fraction`` per entry.

    Raises SingularRho when the matrix has no inverse."""
    rows, den = matrix.numerators
    m = len(rows)
    aug = [[*row, *[int(i == j) for j in range(m)]] for i, row in enumerate(rows)]
    previous = 1
    for col in range(m):
        for pivot_row in range(col, m):
            if aug[pivot_row][col]:
                break
        else:
            raise SingularRho(f"matrix is singular (rank < {m})")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        top = aug[col]
        pivot = top[col]
        for r, row in enumerate(aug):
            if r != col:
                factor = row[col]
                aug[r] = [(pivot * x - factor * y) // previous for x, y in zip(row, top)]
        previous = pivot
    return RationalMatrix(tuple([tuple([Fraction(den * x, previous) for x in row[m:]])
                                 for row in aug]))


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
    """Matrix-valued linear differential operator, structurally the sum
    of its terms; ``ProblemSpec`` keeps its coefficients time-free."""

    m: int
    n: int
    terms: tuple[OperatorTerm, ...]

    def __post_init__(self):
        # worded as a problem file names the terms; every term's types first
        for i, t in enumerate(self.terms):
            if not all([isinstance(k, int) and not isinstance(k, bool) for k in (t.row, t.col)]):
                raise FormatError(f"L[{i}] row/col must be integers")
            if not isinstance(t.orders, tuple) or not all([
                    isinstance(k, int) and not isinstance(k, bool) for k in t.orders]):
                raise FormatError(f"L[{i}].derivs must be a list of integers")
        for i, t in enumerate(self.terms):
            if any([k < 0 for k in t.orders]):
                raise FormatError(f"L[{i}].derivs entries must be nonnegative")
            if len(t.orders) != self.n:
                raise DimensionMismatch(
                    f"L[{i}].derivs has length {len(t.orders)}, expected {self.n}"
                )
            if not (0 <= t.row < self.m and 0 <= t.col < self.m):
                raise DimensionMismatch(f"L[{i}] row/col outside 0..{self.m - 1}")

    @cached_property
    def walks(self) -> tuple:
        """Per term, how ``apply_rows`` takes its partial derivative: the
        key (column, multi-index) of the deepest partial an earlier term
        takes on its walk, x1 first, then x2, ... (None: the column), then
        runs (variable, steps, key), key naming the partial after the run
        where a later term starts from it; worked out on first use."""
        def reached(orders, steps):  # the multi-index after ``steps`` steps
            before = accumulate(orders, initial=0)
            return tuple(min(k, max(0, steps - s)) for k, s in zip(orders, before))

        def shared(a, b):  # the steps two walks have in common
            v = next((v for v, (x, y) in enumerate(zip(a, b)) if x != y), None)
            return sum(a) if v is None else sum(a[:v]) + min(a[v], b[v])

        terms = self.terms
        done = [max([shared(e.orders, t.orders) for e in terms[:i] if e.col == t.col], default=0)
                for i, t in enumerate(terms)]
        starts = {(t.col, reached(t.orders, s)): s for t, s in zip(terms, done) if s}
        walks = []
        for t, at in zip(terms, done):
            start, runs = (t.col, reached(t.orders, at)) if at else None, []
            for variable, end in enumerate(accumulate(t.orders), start=1):
                for c in sorted([*starts.values(), end]):
                    if at < c <= end:
                        key = (t.col, reached(t.orders, c))
                        runs.append((variable, c - at, key if key in starts else None))
                        at = c
            walks.append((t, start, tuple(runs)))
        return tuple(walks)


def apply_rows(
    ring: Ring, op: SpatialOperator, vec: Sequence[Poly], forcing: Sequence[Poly]
) -> list[Poly]:
    """``L vec + forcing`` on polynomials of ``ring``: per component, one
    ``Ring.dot`` pass from the forcing over each coefficient times its
    partial derivative.

    Along ``op.walks``, a partial derivative that several terms need (the
    d/dx1 of u under both d2/dx1^2 and d/dx1) is taken once per call and
    kept only if a later term starts from it, and the ring takes the
    derivative of each atom once per variable."""
    if len(vec) != op.m or len(forcing) != op.m:
        raise DimensionMismatch(f"vector lengths {len(vec)}, {len(forcing)} != {op.m}")
    kept: dict[tuple, Poly] = {}
    rows: list[list] = [[] for _ in forcing]
    for term, start, runs in op.walks:
        d = vec[term.col] if start is None else kept[start]
        for variable, steps, key in runs:
            for _ in range(steps):
                d = ring.diff(d, variable)
            if key is not None:
                kept[key] = d
        if d.num:
            rows[term.row].append((ring.from_tree(term.coeff), d))
    return [ring.dot(pairs, c) for pairs, c in zip(rows, forcing)]


# ---------------------------------------------------------------------------
# Expansion about time zero
# ---------------------------------------------------------------------------

def expand_rows(e: Expr, order: int) -> tuple[Ring, list[Poly]]:
    """The ring of the normalized tree ``e`` and the coefficients
    g_0..g_order of its expansion about time zero, polynomials of that
    ring, by ``_Jets``.

    Raises ExpansionSingular where ``e`` has no power series at time
    zero (ln of a series whose constant term is zero or a constant
    <= 0, anywhere in the tree; a negative power of a series whose
    constant term is zero), or where a constant term raised to the
    exponent would be too large to represent; FormatError where
    ``order`` is not an int."""
    check_integer(order, "expansion order")
    if order < 0:
        raise ValueError("expansion order must be nonnegative")
    ring = Ring(e)
    return ring, _Jets(ring, order).expansion(e)


def expand_in_time(e: Expr, order: int) -> ExprVec:
    """``expand_rows`` of the normalized ``e``, each coefficient as the
    tree ``Ring.factored`` makes of it, or else ``Ring.to_tree``."""
    ring, rows = expand_rows(normalize(e), order)
    return tuple(ring.factored(p) or ring.to_tree(p) for p in rows)


def _binomial(k: int, m: int) -> Fraction:
    """Generalised binomial coefficient k(k-1)...(k-m+1)/m!."""
    out = Fraction(1)
    for i in range(m):
        out = out * (k - i) / (i + 1)
    return out


class _Jets:
    """Truncated power series in time ("jets" [c_0..c_order]) of the
    subtrees of one normalized tree, polynomials of ``ring``, each built
    bottom-up from the jets of its children (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13; Knuth, TAOCP vol. 2, 4.7); ``None``
    stands for a time-free subtree e, whose jet is [e, 0, ..., 0].

    * sums add term by term; products take the truncated Cauchy
      product, one checked dot per degree;
    * exp, sin, cos, sinh, cosh and tanh of a series a take the
      Taylor-mode recurrence of b = f(a), b' = a' f'(a):
      b_k = (1/k) sum_j j a_j d_(k-j), with d the jet of f'(a), from
      d_0 = ``Ring.outer(f, a_0)`` (d is b for exp);
    * ln of a_0 + h, and a power of b_0 + h, compose their Taylor series
      about the constant term with h: ln's coefficients are
      (-1)^(k+1)/k * a_0^-k, a power's C(k, m) * b_0^(k-m), powers that
      ``Ring.power`` keeps as atoms where products would multiply them out.

    No tree is differentiated in time."""

    def __init__(self, ring: Ring, order: int):
        self.ring, self.order = ring, order
        self.memo: dict[Expr, list | None] = {}

    @staticmethod
    def _constant(c: Poly) -> Fraction | None:
        num = c.num
        if len(num) == 1 and 0 in num:
            return Fraction(num[0], c.den)
        return None if num else 0

    def expansion(self, e: Expr) -> list[Poly]:
        """The jet of the normalized tree ``e``, time-free or not."""
        jet = self.of(e)
        return [self.ring.from_tree(e)] + [POLY_ZERO] * self.order if jet is None else jet

    def of(self, e: Expr) -> list | None:
        if isinstance(e, Const):
            return None
        if isinstance(e, Var):
            if e.index != TIME_INDEX:
                return None
            jet = [POLY_ZERO] * (self.order + 1)
            if self.order:
                jet[1] = POLY_ONE
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
        out = [add(*[self.ring.from_tree(t) if j is None else j[0] for t, j in zip(e.terms, jets)])]
        live = [j for j in jets if j is not None]
        return out + [add(*[j[n] for j in live]) for n in range(1, self.order + 1)]

    def _prod(self, e: Prod) -> list | None:
        jets = [self.of(f) for f in e.factors]
        if all(j is None for j in jets):
            return None
        ring = self.ring
        free = ring.product([ring.from_tree(f) for f, j in zip(e.factors, jets) if j is None])
        live = [j for j in jets if j is not None]
        product = live[0]
        for j in live[1:]:
            product = self._cauchy(product, j)
        return [ring.product([free, c]) if c.num else POLY_ZERO for c in product]

    def _cauchy(self, a: list, b: list) -> list:
        """Truncated product of two jets, one checked dot per degree."""
        return [self.ring.dot([(a[i], b[k - i]) for i in range(k + 1)]) for k in range(len(a))]

    def _span(self, h: list) -> int:
        """Highest k for which h^k reaches the order, h with a zero
        constant term."""
        valuation = next((i for i, c in enumerate(h) if c.num), None)
        return 0 if valuation is None else self.order // valuation

    def _compose(self, taylor: list, h: list) -> list:
        """g(a_0 + h) = sum over k of taylor[k] * h^k, truncated, for g
        with Taylor coefficients ``taylor`` about a_0 (at most
        ``_span(h)`` + 1 of them) and h with a zero constant term; the
        powers h^k take one product each where h is one term."""
        parts: list[list] = [[taylor[0]]] + [[] for _ in range(self.order)]
        last = max(k for k, c in enumerate(taylor) if k == 0 or c.num)
        live = [(j, c) for j, c in enumerate(h) if c.num]
        power = h
        for k in range(1, last + 1):
            if len(live) == 1:  # h = c*t^v, so h^k is the one term c^k*t^(k*v)
                ((v, c),) = live
                power = c if k == 1 else self.ring.product([power, c])
                terms = [(k * v, power)]
            else:
                if k > 1:
                    power = self._cauchy(power, h)
                terms = [(j, c) for j, c in enumerate(power) if c.num]
            if taylor[k].num:
                for j, c in terms:
                    parts[j].append(self.ring.product([taylor[k], c]))
        return [add(*p) for p in parts]

    def _func(self, e: Func) -> list | None:
        a = self.of(e.arg)
        ring, name, n = self.ring, e.name, self.order
        if name == "ln":
            a0 = ring.from_tree(e.arg) if a is None else a[0]
            if (c := self._constant(a0)) is not None and c <= 0:
                raise ExpansionSingular("ln argument vanishes or is negative at time zero")
            if a is None:
                return None
            h = [POLY_ZERO, *a[1:]]
            taylor = [ring.func(name, a0)] + [scale(ring.power(a0, -k), Fraction((-1) ** (k + 1), k))
                                              for k in range(1, self._span(h) + 1)]
            return self._compose(taylor, h)
        if a is None:
            return None
        slopes = [(j, scale(c, j)) for j, c in enumerate(a) if j and c.num]

        def conv(pairs, q) -> Poly:  # q times the sum of the products of the pairs
            return scale(ring.dot(pairs), q)

        def step(d: list, k: int, sign: int) -> Poly:  # (sign/k) sum_j j*a_j*d_(k-j)
            return conv(((s, d[k - j]) for j, s in slopes if j <= k), Fraction(sign, k))

        # d is the jet of f'(a); for a partner g, f' = s*g and g' = s'*f,
        # so d' = s*s'*b a'
        partner, sign = PARTNERS.get(name, (None, 1))
        b = [ring.func(name, a[0])]
        d = b if partner == name else [ring.outer(name, a[0])]
        for k in range(1, n + 1):
            b.append(step(d, k, 1))
            if d is not b and k < n:  # d_k; tanh forms each b_i*b_(k-i) once
                d.append(step(b, k, sign * PARTNERS[partner][1]) if partner else conv(
                    ((b[i], scale(b[k - i], 1 if 2 * i == k else 2)) for i in range(k // 2 + 1)), -1))
        return b

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
        h = [POLY_ZERO, *b[1:]]
        count = self._span(h) + 1 if k < 0 else min(self._span(h), k) + 1
        taylor = [scale(self.ring.power(b0, k - m), _binomial(k, m)) for m in range(count)]
        return self._compose(taylor, h)


# ---------------------------------------------------------------------------
# Vectors of polynomials
# ---------------------------------------------------------------------------

def scale_rows(matrix: RationalMatrix, v: Sequence[Poly], factor=1) -> list[Poly]:
    """``factor`` times the exact matrix-vector product on polynomials:
    per row, one ``dot`` pass with the int ``numerators`` times the
    numerator of ``factor`` as weights, over the row's own denominator
    times their denominator and that of ``factor``."""
    rows, den = matrix.numerators
    n, d = factor.numerator, factor.denominator * den
    return [Poly(p.num, p.den * d, p.top) if d != 1 and p.num else p
            for p in (dot([(w * n, q) for w, q in zip(row, v)]) for row in rows)]


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
    equality, hashing and repr see only the trees; pickles and copies
    carry the rows and their ring too."""

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


Rows = list[list[Poly]]  # degree -> component -> polynomial


def series_rows(ring: Ring, s: TimeSeriesVec) -> Rows:
    """The coefficients of ``s`` as polynomials of ``ring``: the rows
    ``rows_series`` made it from in ``ring``, or else its trees
    converted."""
    if vars(s).get("_ring") is ring:
        return s._rows
    return [list(map(ring.from_tree, row)) for row in s.coeffs]


def checked_series(p: ProblemSpec, s: TimeSeriesVec) -> TimeSeriesVec:
    """``s``, refused unless it has as many components as ``p``."""
    if s.m != p.m:
        raise DimensionMismatch(f"series has {s.m} components, the problem {p.m}")
    return s


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
    """One problem instance: dimensions, mass matrix, spatial operator,
    forcing, initial data, truncation order.

    However it is made (``create``, the constructor, ``dataclasses.replace``)
    it is refused unless it obeys every rule of a problem, in the words of
    a problem file; ``SpatialOperator`` checks its own terms.  Its trees
    must be normal, and each may use x1..xn, and only the forcing t.  The
    types of rho, L and the vectors are checked first (a list is taken as
    a tuple), then rho is inverted, then each tree in turn, L's
    coefficients, u0, u1 and f: that it is an expression, then its
    variables, its polynomial in the problem's ring (which sees a sum that
    is zero only as a polynomial, such as (1+x1)*(1-x1)+x1^2-1), its use
    of t.  The variables of L's, u0's and u1's trees are the variable
    atoms that their conversion adds to the ring; f's are walked.  A tree
    keeps no byte offsets: ParseErrors are at 0.

    The checks leave three attributes that are not fields, so equality,
    hashing and repr ignore them: ``rho_inv``, ``ring``, the polynomial
    ring both engines use, and the forcing expansion per component, which
    ``forcing_rows`` fills."""

    m: int
    n: int
    rho: RationalMatrix
    L: SpatialOperator
    f_source: ExprVec
    u0: ExprVec
    u1: ExprVec
    order: int

    def __post_init__(self):
        m, n, L = self.m, self.n, self.L
        for value, name in ((m, "field 'm'"), (n, "field 'n'"), (self.order, "field 'order'")):
            check_count(value, name)
        for value, name, kind in ((self.rho, "rho", RationalMatrix), (L, "L", SpatialOperator)):
            if not isinstance(value, kind):
                raise FormatError(f"field {name!r} must be a {kind.__name__}")
        check_rho_shape(self.rho.entries, m)
        if L.m != m or L.n != n:
            raise DimensionMismatch("operator dimensions disagree with the problem")
        for name, key in (("f", "f_source"), ("u0", "u0"), ("u1", "u1")):
            vec = getattr(self, key)
            if not isinstance(vec, (list, tuple)):
                raise FormatError(f"field {name!r} must be a list of expressions")
            object.__setattr__(self, key, tuple(vec))  # a list would not hash
            if len(vec) != m:
                raise DimensionMismatch(f"field {name!r} has length {len(vec)}, expected {m}")
        rho_inv = invert(self.rho)
        trees = [(f"L[{i}].coeff", t.coeff) for i, t in enumerate(L.terms)]
        for name, vec in (("u0", self.u0), ("u1", self.u1), ("f", self.f_source)):
            trees += [(f"{name}[{i}]", tree) for i, tree in enumerate(vec)]
        for where, tree in trees:  # before the ring is sized from them
            if not isinstance(tree, Expr):
                raise FormatError(f"{where} must be an expression")
        ring, walked = Ring(*(tree for _, tree in trees)), {}
        for where, tree in trees:
            forcing, atoms, error = where.startswith("f["), len(ring.trees), None
            if not forcing:
                try:
                    ring.from_tree(tree)
                except DomainError as exc:
                    error = exc
            if forcing or error:
                index, time = _variables(tree, walked)
            else:  # the new variable atoms: an earlier tree's passed these checks
                new = [a.index for a in ring.trees[atoms:] if isinstance(a, Var)]
                index, time = max(new, default=0), TIME_INDEX in new
            if index > n:
                raise UnknownIdentifier(f"{where}: variable x{index} exceeds spatial dimension {n}", 0)
            if error:
                raise ParseError(f"{where}: {error}", 0) from error
            if time and not forcing:
                raise TimeNotAllowed(f"{where}: the time symbol is not allowed here", 0)
        vars(self).update(rho_inv=rho_inv, ring=ring, _forcing=[])

    @classmethod
    def create(cls, m: int, n: int, rho: RationalMatrix, L: SpatialOperator, f: Sequence[Expr],
               u0: Sequence[Expr], u1: Sequence[Expr], order: int) -> "ProblemSpec":
        """The problem of these fields, with f, u0 and u1 normalized."""
        f, u0, u1 = (tuple(normalize(e) if isinstance(e, Expr) else e for e in vec)
                     for vec in (f, u0, u1))  # the constructor refuses what is not one
        return cls(m, n, rho, L, f, u0, u1, order)

    def with_order(self, order: int) -> "ProblemSpec":
        """The same problem truncated at another order, not checked again:
        a shallow copy, sharing this problem's inverse, ring and forcing
        expansion."""
        check_count(order, "truncation order")
        other = object.__new__(ProblemSpec)
        vars(other).update(vars(self), order=order)
        return other


def check_integer(value: int, name: str) -> None:
    """Refuse a count that is not an int (a bool is not one), in the
    words ``{name} must be an integer``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{name} must be an integer")


def check_count(value: int, name: str) -> None:
    """Refuse a dimension or a truncation order that ``check_integer``
    refuses, or that is below 1, in the words ``{name} must be >= 1``:
    the one rule of each count of a problem."""
    check_integer(value, name)
    if value < 1:
        raise FormatError(f"{name} must be >= 1")


def check_rho_shape(rows, m: int) -> None:
    """Refuse ``rows`` unless it is m rows, lists or tuples, of m entries."""
    if not isinstance(rows, (list, tuple)) or len(rows) != m or any([
        not isinstance(row, (list, tuple)) or len(row) != m for row in rows
    ]):
        raise DimensionMismatch(f"field 'rho' must be an array of shape {m}x{m}")


def forcing_rows(p: ProblemSpec, order: int) -> Rows:
    """Per-degree forcing vectors f_0..f_order from the closed-form
    forcing expressions, as polynomials of ``p.ring``.

    Each forcing component is expanded by jets in the ring once per
    problem: coefficients do not depend on the order they were expanded
    to, so a later call with an order no larger reads a prefix of the
    stored ones, and only a larger order expands again."""
    per_component = p._forcing
    if not per_component or len(per_component[0]) <= order:
        jets = _Jets(p.ring, order)
        per_component[:] = [jets.expansion(c) for c in p.f_source]
    return [[c[j] for c in per_component] for j in range(order + 1)]
