"""Shared test helpers: seeded expression/problem generators, reference
copies of the kernel, the parser and the printer as first written, and the
correction-audit used by several suites."""

from __future__ import annotations

import math
import random
import re
from operator import add as _plus
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import HealthCheck, settings

from pdeseries.errors import (
    DomainError,
    ExpansionSingular,
    NonIntegerExponent,
    ParseError,
    SingularRho,
    TimeNotAllowed,
    UnknownIdentifier,
)
from pdeseries.expr import (
    Const,
    Expr,
    FUNCTIONS,
    Func,
    MINUS_ONE,
    ONE,
    Pow,
    Prod,
    SamplePlan,
    Sum,
    TIME_INDEX,
    Var,
    ZERO,
    _FEW_BITS,
    _add,
    _factor_key,
    _func,
    _mul,
    _pow,
    eprod,
    esum,
    normalize,
    sampled_deviation,
    sort_key,
    too_large_power,
)
from pdeseries.parser import MAX_NESTING, _fmt_power
from pdeseries.poly import ONE as POLY_ONE, ZERO as POLY_ZERO, Poly, Ring, _nonzero, add, mul, scale
from pdeseries.series import (
    OperatorTerm,
    ProblemSpec,
    RationalMatrix,
    SpatialOperator,
    invert,
)

from golden import HEAVY_2X2, PROBLEM_DIR, problem_path

settings.register_profile(
    "pdeseries",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pdeseries")

PLAN = SamplePlan()


# ---------------------------------------------------------------------------
# Random expressions
# ---------------------------------------------------------------------------

def random_raw_expr(
    rng: random.Random,
    depth: int = 3,
    n_vars: int = 2,
    funcs: tuple[str, ...] = ("sin", "cos", "exp", "ln", "sinh", "cosh", "tanh"),
    allow_time: bool = False,
    allow_negative_pow: bool = True,
) -> Expr:
    """Unnormalized random tree over the full grammar."""
    def leaf() -> Expr:
        roll = rng.random()
        if roll < 0.45:
            return Const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if allow_time and roll < 0.55:
            return Var(TIME_INDEX)
        return Var(rng.randint(1, n_vars))

    def build(d: int) -> Expr:
        if d == 0 or rng.random() < 0.25:
            return leaf()
        kind = rng.choice(("sum", "sum", "prod", "prod", "pow", "func"))
        if kind == "sum":
            return Sum(tuple(build(d - 1) for _ in range(rng.randint(2, 3))))
        if kind == "prod":
            return Prod(tuple(build(d - 1) for _ in range(rng.randint(2, 3))))
        if kind == "pow":
            exponents = [2, 3] + ([-1, -2] if allow_negative_pow else [])
            return Pow(build(d - 1), rng.choice(exponents))
        return Func(rng.choice(funcs), build(d - 1))

    return build(depth)


def random_normal_expr(rng: random.Random, **kwargs) -> Expr:
    while True:
        try:
            return normalize(random_raw_expr(rng, **kwargs))
        except DomainError:
            continue  # raw tree folded a zero to a negative power



def random_numeric_expr(rng: random.Random, depth: int = 3, n_vars: int = 2) -> Expr:
    """Random normalized expression that evaluates everywhere on [-1, 1]:
    no ln, no negative powers."""
    return random_normal_expr(
        rng,
        depth=depth,
        n_vars=n_vars,
        funcs=("sin", "cos", "exp", "sinh", "cosh", "tanh"),
        allow_negative_pow=False,
    )


# ---------------------------------------------------------------------------
# Random problems (polynomial/trig data, small dimensions)
# ---------------------------------------------------------------------------

def _random_invertible(rng: random.Random, m: int) -> RationalMatrix:
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        matrix = RationalMatrix.from_rows(rows)
        try:
            invert(matrix)
        except SingularRho:
            continue
        return matrix


def _random_data_expr(rng: random.Random, n: int) -> Expr:
    def piece() -> Expr:
        c = Const(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
        roll = rng.random()
        if roll < 0.35:
            power = rng.randint(0, 3)
            return normalize(Prod((c, Pow(Var(1), power))))
        if roll < 0.55 and n >= 2:
            return normalize(Prod((c, Pow(Var(1), rng.randint(0, 2)),
                                   Pow(Var(2), rng.randint(0, 2)))))
        if roll < 0.8:
            return normalize(Prod((c, Func("sin", Var(rng.randint(1, n))))))
        return normalize(Prod((c, Func("cos", Var(rng.randint(1, n))))))

    return normalize(Sum(tuple(piece() for _ in range(rng.randint(1, 2)))))


def random_problem(seed: int) -> tuple[ProblemSpec, int]:
    """Small random problem plus a correction count J in 1..3; order is
    set to the finalized window 2J+1."""
    rng = random.Random(seed)
    m = rng.choice((1, 1, 2))
    n = rng.choice((1, 2))
    rho = _random_invertible(rng, m)

    terms = []
    for _ in range(rng.randint(1, 3)):
        orders = [0] * n
        for _ in range(rng.choice((1, 2, 2))):
            orders[rng.randrange(n)] += 1
        if rng.random() < 0.75:
            coeff: Expr = Const(Fraction(rng.choice((-2, -1, 1, 1, 2)), rng.choice((1, 2))))
        else:
            coeff = normalize(Prod((Const(Fraction(rng.choice((-1, 1)))), Var(rng.randint(1, n)))))
        terms.append(OperatorTerm(rng.randrange(m), rng.randrange(m), coeff, tuple(orders)))
    operator = SpatialOperator(m, n, tuple(terms))

    u0 = [_random_data_expr(rng, n) for _ in range(m)]
    u1 = [_random_data_expr(rng, n) for _ in range(m)]
    f = []
    for _ in range(m):
        if rng.random() < 0.25:
            f.append(ZERO)
        else:
            t_power = rng.randint(0, 2)
            f.append(normalize(Prod((Pow(Var(TIME_INDEX), t_power), _random_data_expr(rng, n)))))

    corrections = rng.randint(1, 3)
    problem = ProblemSpec.create(
        m, n, rho, operator, f, u0, u1, order=2 * corrections + 1
    )
    return problem, corrections


# ---------------------------------------------------------------------------
# Tree differentiation as first written, the reference for the ring's one
# calculus: its own table of f'(a), and every copy of a repeated subtree
# walked again
# ---------------------------------------------------------------------------

def tree_ref_outer(e: Func) -> Expr:
    """f'(a) for ``e`` = f(a)."""
    a = e.arg
    return {
        "sin": lambda: Func("cos", a),
        "cos": lambda: _mul([MINUS_ONE, Func("sin", a)]),
        "exp": lambda: e,
        "ln": lambda: _pow(a, -1),
        "sinh": lambda: Func("cosh", a),
        "cosh": lambda: Func("sinh", a),
        "tanh": lambda: _add([ONE, _mul([MINUS_ONE, _pow(Func("tanh", a), 2)])]),
    }[e.name]()


def tree_ref_diff(e: Expr, v: int) -> Expr:
    """D_v of a normalized tree, itself normalized."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == v else ZERO
    if isinstance(e, Sum):
        return _add([tree_ref_diff(t, v) for t in e.terms])
    if isinstance(e, Prod):
        pieces = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = tree_ref_diff(f, v)
            if df == ZERO:
                continue
            pieces.append(_mul([df, *fs[:i], *fs[i + 1:]]))
        return _add(pieces)
    if isinstance(e, Pow):
        db = tree_ref_diff(e.base, v)
        if db == ZERO:
            return ZERO
        return _mul([Const(Fraction(e.exponent)), _pow(e.base, e.exponent - 1), db])
    da = tree_ref_diff(e.arg, v)
    if da == ZERO:
        return ZERO
    return _mul([tree_ref_outer(e), da])


# ---------------------------------------------------------------------------
# Tree-built reference of the operator
# ---------------------------------------------------------------------------

def apply_by_differentiate(op, vec):
    """Operator application on trees, as first written: each term
    normalizes its column and takes every step through ``tree_ref_diff``."""
    rows = [[] for _ in range(op.m)]
    for term in op.terms:
        d = normalize(vec[term.col])
        for variable, order in enumerate(term.orders, start=1):
            for _ in range(order):
                d = tree_ref_diff(d, variable)
            if d == ZERO:
                break
        if d == ZERO:
            continue
        rows[term.row].append(eprod([term.coeff, d]))
    return tuple(esum(parts) for parts in rows)


def tree_forcing(p, order: int) -> list[tuple[Expr, ...]]:
    """Per-degree forcing vectors f_0..f_order by ``RefTreeJets``, the
    jets on trees, one component at a time: they share no code with the
    ring jets that the engines use."""
    jets = RefTreeJets(order)
    per_component = [jets.expansion(c) for c in p.f_source]
    return [tuple(c[j] for c in per_component) for j in range(order + 1)]


# ---------------------------------------------------------------------------
# Fraction-dict reference of the polynomial kernel: a polynomial as a dict
# from exponent tuple to nonzero Fraction, as the kernel was first written
# ---------------------------------------------------------------------------

def ref_of(ring, p) -> dict:
    """The reference form of a ``poly.Poly`` of ``ring``, its keys decoded."""
    return {ring.exponents(m): Fraction(c, p.den) for m, c in p.num.items()}


def ref_iadd(out: dict, p: dict) -> None:
    for m, c in p.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)


def ref_scale(p: dict, q) -> dict:
    return {m: c * q for m, c in p.items()} if q else {}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            n = max(len(ma), len(mb))
            m = [x + y for x, y in zip(ma + (0,) * (n - len(ma)), mb + (0,) * (n - len(mb)))]
            while m and not m[-1]:
                m.pop()
            ref_iadd(out, {tuple(m): ca * cb})
    return out


def ref_diff(ring, p: dict, v: int) -> dict:
    """D_v p over the atoms of ``ring``; an atom's own derivative is
    taken here too, from its tree and its polynomial."""
    out: dict = {}
    for i in sorted({i for m in p for i, e in enumerate(m) if e}):
        tree, inner = ring.trees[i], ring.polys[i]
        if isinstance(tree, Var):
            d = {(): Fraction(1)} if tree.index == v else {}
        elif isinstance(tree, Sum):
            d = ref_diff(ring, ref_of(ring, inner), v)
        else:
            d = ref_diff(ring, ref_of(ring, inner), v)
            if d:  # the outer derivative may be singular where unused
                d = ref_mul(ref_of(ring, ring.from_tree(tree_ref_outer(tree))), d)
        for m, c in p.items():
            if len(m) > i and m[i]:
                partial = list(m[:i]) + [m[i] - 1] + list(m[i + 1:])
                while partial and not partial[-1]:
                    partial.pop()
                ref_iadd(out, ref_mul({tuple(partial): c * m[i]}, d))
    return out


def ref_apply(ring, op, vec: list[dict]) -> list[dict]:
    rows: list[dict] = [{} for _ in range(op.m)]
    for term in op.terms:
        d = vec[term.col]
        for variable, order in enumerate(term.orders, start=1):
            for _ in range(order):
                d = ref_diff(ring, d, variable)
        ref_iadd(rows[term.row], ref_mul(ref_of(ring, ring.from_tree(term.coeff)), d))
    return rows


def ref_scale_rows(matrix, v: list[dict]) -> list[dict]:
    out = []
    for row in matrix.entries:
        total: dict = {}
        for q, p in zip(row, v):
            ref_iadd(total, ref_scale(p, q))
        out.append(total)
    return out


def ref_invert(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by rational Gauss-Jordan elimination, as first written.

    Raises SingularRho when the matrix has no inverse."""
    m = len(matrix.entries)
    aug = [[*row, *unit] for row, unit in zip(matrix.entries, RationalMatrix.identity(m).entries)]
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


def ref_engines(p, corrections: int) -> tuple[list, list]:
    """The direct rows to the problem's order and the correction rows to
    the same degree, in the reference arithmetic; the forcing comes from
    the tree jets, the inverse mass matrix from ``ref_invert``, and only
    the trees of the data go through the ring."""
    from pdeseries.series import problem_ring

    ring, order, rho_inv = problem_ring(p), p.order, ref_invert(p.rho)
    f = [[ref_of(ring, ring.from_tree(c)) for c in row] for row in tree_forcing(p, order)]
    first = [[ref_of(ring, ring.from_tree(c)) for c in vec] for vec in (p.u0, p.u1)]
    direct = list(first)
    for j in range(order - 1):
        w = ref_apply(ring, p.L, direct[j])
        for a, b in zip(w, f[j]):
            ref_iadd(a, b)
        q = Fraction(1, (j + 1) * (j + 2))
        direct.append([ref_scale(c, q) for c in ref_scale_rows(rho_inv, w)])
    hpm = [first + [[{}] * p.m] * (order - 1)]
    for j in range(1, corrections + 1):
        rows = [[{}] * p.m, [{}] * p.m]
        for k in range(order - 1):
            s = ref_apply(ring, p.L, hpm[-1][k])
            if j == 1:
                for a, b in zip(s, f[k]):
                    ref_iadd(a, b)
            q = Fraction(1, (k + 1) * (k + 2))
            rows.append([ref_scale(c, q) for c in ref_scale_rows(rho_inv, s)])
        hpm.append(rows)
    return direct, hpm


# ---------------------------------------------------------------------------
# The jets recursion on trees, as the package held it before its jets
# moved onto polynomials; the two references below subclass it.  Sums add
# term by term, products take a sparse Cauchy product, and a function or
# a power of a series a_0 + h composes its Taylor series about a_0 with h.
# ``_taylor`` and ``_compose`` are each subclass's own.
# ---------------------------------------------------------------------------

def _raw_subst(e, v, r):
    """Substitution as first written: a raw tree, normalized after."""
    if isinstance(e, Var):
        return r if e.index == v else e
    if isinstance(e, Const):
        return e
    if isinstance(e, Func):
        return Func(e.name, _raw_subst(e.arg, v, r))
    if isinstance(e, Pow):
        return Pow(_raw_subst(e.base, v, r), e.exponent)
    if isinstance(e, Prod):
        return Prod(tuple(_raw_subst(f, v, r) for f in e.factors))
    return Sum(tuple(_raw_subst(t, v, r) for t in e.terms))


def _binomial(k: int, m: int) -> Fraction:
    """Generalised binomial coefficient k(k-1)...(k-m+1)/m!."""
    out = Fraction(1)
    for i in range(m):
        out = out * (k - i) / (i + 1)
    return out


class TreeJets:
    """Truncated power series in time ("jets" [c_0..c_order]) of the
    subtrees of one expansion, each built bottom-up from the jets of its
    children; ``None`` stands for a time-free subtree e, whose jet is
    [e, 0, ..., 0].  The recursion is written over hooks: ``_add``,
    ``_mul``, ``_power``, ``_terms`` (what a product spreads over),
    ``_leaf`` (a time-free subtree as a value) and ``_constant`` (the
    rational a value is, or None)."""

    _add, _mul, _power = staticmethod(esum), staticmethod(eprod), staticmethod(Expr.__pow__)

    def __init__(self, order: int):
        self.order = order
        self.memo: dict[Expr, list | None] = {}

    @staticmethod
    def _terms(c: Expr) -> tuple[Expr, ...]:
        return c.terms if isinstance(c, Sum) else (c,)

    @staticmethod
    def _leaf(e: Expr):
        return e

    @staticmethod
    def _constant(c) -> Fraction | None:
        return c.value if isinstance(c, Const) else None

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
        # product rule would leave it; the jet's own zero stays as it is
        out, zero = [self._mul([free, product[0]])], self._leaf(ZERO)
        for c in product[1:]:
            out.append(c if c is zero else self._add([self._mul([free, t]) for t in self._terms(c)]))
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


# ---------------------------------------------------------------------------
# The tree jets as first written: f^(k)(a0)/k! from differentiating the
# one-node tree f(t) k times and substituting a0, every power h^k of the
# argument by truncated products, and the time-free factor of a product
# multiplied into every coefficient
# ---------------------------------------------------------------------------

class RefTreeJets(TreeJets):
    """``TreeJets`` with its ``_taylor``, ``_prod`` and ``_compose`` as
    first written, verbatim but for substitution, which is
    ``_raw_subst`` normalized after."""

    def __init__(self, order: int):
        super().__init__(order)
        self.derivatives: dict = {}  # per function name: [f(t), f'(t), ...]

    def _taylor(self, name: str, a0, count: int) -> list:
        """From differentiating the one-node tree f(t) and substituting a0."""
        derivatives = self.derivatives.setdefault(name, [Func(name, Var(TIME_INDEX))])
        while len(derivatives) < count:
            derivatives.append(tree_ref_diff(derivatives[-1], TIME_INDEX))
        return [eprod([Const(Fraction(1, math.factorial(k))),
                       tree_ref_normalize(_raw_subst(d, TIME_INDEX, a0))])
                for k, d in enumerate(derivatives[:count])]

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


# ---------------------------------------------------------------------------
# The ring jets as first written: every function, ln and powers alike,
# composes its Taylor series about a_0 with the rest of the argument's jet
# ---------------------------------------------------------------------------

class RefRingJets(TreeJets):
    """The same recursion on polynomials of ``ring``.  f^(k)(a0)/k!
    comes from differentiating f(t) in a small ring of its own, then
    mapping t to a0 and each g(t) there to g(a0), monomial by monomial."""

    _terms = staticmethod(lambda c: (c,))
    _add = staticmethod(lambda parts: add(*parts))

    def __init__(self, ring: Ring, order: int):
        super().__init__(order)
        self.ring, self._power, self._leaf = ring, ring.power, ring.from_tree
        self.derivatives: dict = {}  # per function name: (small ring, [f(t), f'(t), ...])

    def _mul(self, factors: list) -> Poly:
        out = POLY_ONE
        for f in factors:
            out = f if out is POLY_ONE else self.ring.checked(mul(out, f))
        return out

    @staticmethod
    def _constant(c: Poly) -> Fraction | None:
        num = c.num
        if len(num) == 1 and 0 in num:
            return Fraction(num[0], c.den)
        return None if num else 0

    def _taylor(self, name: str, a0: Poly, count: int) -> list:
        if name not in self.derivatives:
            small = Ring()
            self.derivatives[name] = small, [small.from_tree(Func(name, Var(TIME_INDEX)))]
        small, derivatives = self.derivatives[name]
        while len(derivatives) < count:
            derivatives.append(small.diff(derivatives[-1], TIME_INDEX))
        images = [a0 if isinstance(g, Var) else self.ring.func(g.name, a0) for g in small.trees]
        return [self._add([
            self._mul([Poly({0: c}, derivatives[k].den * math.factorial(k)),
                       *(self.ring.power(images[i], e) for i, e in enumerate(small.exponents(m)) if e)])
            for m, c in derivatives[k].num.items()
        ]) for k in range(count)]

    # the tree jets' composition, which the class above runs for every function

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

    _compose = RefTreeJets._compose

    def _func(self, e: Func) -> list | None:
        a = self.of(e.arg)
        a0 = self._leaf(e.arg) if a is None else a[0]
        if e.name == "ln" and (c := self._constant(a0)) is not None and c <= 0:
            raise ExpansionSingular("ln argument vanishes or is negative at time zero")
        if a is None:
            return None
        h = [self._leaf(ZERO), *a[1:]]
        return self._compose(self._taylor(e.name, a0, self._span(h) + 1), h)


# ---------------------------------------------------------------------------
# The polynomial kernel with tuple keys (entry i: the exponent of atom i,
# no trailing zero), verbatim but for the names; the engines' recursion
# over it reads its data, forcing and atoms from a packed ring
# ---------------------------------------------------------------------------

def _tuple_trim(m: tuple) -> tuple:
    n = len(m)
    while n and not m[n - 1]:
        n -= 1
    return m[:n]


def _tuple_unit(i: int, e: int = 1) -> tuple:
    return (0,) * i + (e,)


def tuple_add(*parts: Poly) -> Poly:
    """The sum of ``parts``: the lcm of their denominators, then one
    integer sum per monomial."""
    parts = [p for p in parts if p.num]
    if len(parts) < 2:
        return parts[0] if parts else POLY_ZERO
    den = math.lcm(*[p.den for p in parts])
    out: dict = {}
    get = out.get
    for p in parts:
        f = den // p.den
        for m, c in p.num.items():
            s = get(m)
            out[m] = c * f if s is None else s + c * f
    return Poly(_nonzero(out), den)


def tuple_mul(a: Poly, b: Poly) -> Poly:
    na, nb = a.num, b.num
    if len(na) < len(nb):
        na, nb = nb, na
    out: dict = {}
    get = out.get
    terms_b = list(nb.items())
    for ma, ca in na.items():
        la = len(ma)
        for mb, cb in terms_b:
            lb = len(mb)
            m = tuple(map(_plus, ma, mb))
            if la > lb:
                m += ma[lb:]
            elif lb > la:
                m += mb[la:]
            elif m and not m[-1]:
                m = _tuple_trim(m)  # a negative exponent cancelled the last one
            c = get(m)
            out[m] = ca * cb if c is None else c + ca * cb
    return Poly(_nonzero(out), a.den * b.den)


TUPLE_ONE = Poly({(): 1})


class TupleRing:
    """The atoms of a packed ``ring`` under the tuple kernel: ``of``
    decodes a polynomial of ``ring``, and an atom's derivative is taken
    here, from its decoded polynomial and outer derivative."""

    def __init__(self, ring):
        self.ring, self.derivatives = ring, {}

    def of(self, p: Poly) -> Poly:
        return Poly({self.ring.exponents(m): c for m, c in p.num.items()}, p.den)

    def diff(self, p: Poly, v: int) -> Poly:
        """Partial derivative in variable ``v``.  One pass over the terms
        builds dp/d(atom i) for every atom i whose derivative is nonzero."""
        partials: dict = {}  # atom i -> numerators of dp/d(atom i)
        constant = set()  # atoms whose derivative is zero
        for m, c in p.num.items():
            last = len(m) - 1
            for i, e in enumerate(m):
                if not e or i in constant:
                    continue
                partial = partials.get(i)
                if partial is None:
                    if not self._atom_derivative(i, v):
                        constant.add(i)
                        continue
                    partial = partials[i] = {}
                if i < last:
                    partial[m[:i] + (e - 1,) + m[i + 1:]] = c * e
                else:
                    partial[_tuple_trim(m[:i]) if e == 1 else m[:i] + (e - 1,)] = c * e
        parts = []
        for i, partial in partials.items():
            d, partial = self.derivatives[i, v], Poly(partial, p.den)
            parts.append(partial if d == TUPLE_ONE else tuple_mul(partial, d))
        return tuple_add(*parts)

    def _atom_derivative(self, i: int, v: int) -> Poly:
        d = self.derivatives.get((i, v))
        if d is None:
            tree, inner = self.ring.trees[i], self.ring.polys[i]
            if isinstance(tree, Var):
                d = TUPLE_ONE if tree.index == v else POLY_ZERO
            else:
                d = self.diff(self.of(inner), v)
                if d and not isinstance(tree, Sum):
                    outer = self.of(self.ring.from_tree(tree_ref_outer(tree)))
                    d = tuple_mul(outer, d)
            self.derivatives[i, v] = d
        return d

    def apply(self, op, vec: list, forcing: list) -> list:
        rows = [[c] for c in forcing]
        for term in op.terms:
            d = vec[term.col]
            for variable, order in enumerate(term.orders, start=1):
                for _ in range(order):
                    d = self.diff(d, variable)
            if d.num:
                coeff = self.of(self.ring.from_tree(term.coeff))
                rows[term.row].append(tuple_mul(coeff, d))
        return [tuple_add(*parts) for parts in rows]


def tuple_engines(p, corrections: int) -> tuple[list, list]:
    """``taylor_rows(p)`` and ``hpm_rows(p, corrections, p.order)`` over
    the tuple kernel, from the data and forcing of ``problem_ring(p)``
    decoded."""
    from pdeseries.series import forcing_rows, problem_ring

    ring = TupleRing(problem_ring(p))
    f = [list(map(ring.of, row)) for row in forcing_rows(p, p.order)]
    first = [[ring.of(ring.ring.from_tree(c)) for c in vec] for vec in (p.u0, p.u1)]

    def step(row, forcing, k):
        w = ring.apply(p.L, row, forcing)
        q = Fraction(1, (k + 1) * (k + 2))
        return [tuple_add(*(scale(c, x * q) for x, c in zip(r, w))) for r in p.rho_inv.entries]

    direct = list(first)
    for j in range(p.order - 1):
        direct.append(step(direct[j], f[j], j))
    zero = [POLY_ZERO] * p.m
    hpm = [first + [zero] * (p.order - 1)]
    for j in range(1, corrections + 1):
        hpm.append([zero, zero] + [step(row, f[k] if j == 1 else zero, k)
                                   for k, row in enumerate(hpm[-1][:p.order - 1])])
    return direct, hpm


def ref_tree(ring, p: dict) -> Expr:
    """The canonical tree of a reference polynomial, by ``esum`` and
    ``eprod`` of its terms."""
    return esum(
        eprod([Const(c), *(Pow(ring.trees[i], e) for i, e in enumerate(m) if e)])
        for m, c in p.items()
    )


# ---------------------------------------------------------------------------
# Reference of the tree kernel: normalize's _pow, _sum_content, _mul and
# _add as first written
# ---------------------------------------------------------------------------

def tree_ref_normalize(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Func):
        return _func(e.name, tree_ref_normalize(e.arg))
    if isinstance(e, Pow):
        return tree_ref_pow(tree_ref_normalize(e.base), e.exponent)
    if isinstance(e, Prod):
        return tree_ref_mul([tree_ref_normalize(f) for f in e.factors])
    return tree_ref_add([tree_ref_normalize(t) for t in e.terms])


def _ref_split_coeff(t: Expr) -> tuple[Fraction, Expr]:
    if isinstance(t, Prod) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        return t.factors[0].value, (rest[0] if len(rest) == 1 else Prod(rest))
    return Fraction(1), t


def _ref_term_key(t: Expr):
    coeff, rest = _ref_split_coeff(t)
    return (sort_key(rest), coeff)


def tree_ref_pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if k.bit_length() > _FEW_BITS and too_large_power(k, 1):
        raise DomainError("exponent too large to represent")
    if isinstance(base, Const):
        if base.value == 0 and k < 0:
            raise DomainError("zero raised to a negative power")
        if too_large_power(base.value, k):
            raise DomainError("power of a constant too large to represent")
        return Const(base.value ** k)
    if isinstance(base, Pow):
        return tree_ref_pow(base.base, base.exponent * k)
    if isinstance(base, Prod):
        return tree_ref_mul([tree_ref_pow(f, k) for f in base.factors])
    if isinstance(base, Sum):
        content, primitive = tree_ref_sum_content(base)
        if content != 1:
            return tree_ref_mul([tree_ref_pow(Const(content), k), Pow(primitive, k)])
    return Pow(base, k)


def tree_ref_sum_content(s: Sum) -> tuple[Fraction, Expr]:
    coeffs = [
        t.value if isinstance(t, Const) else _ref_split_coeff(t)[0] for t in s.terms
    ]
    content = Fraction(
        math.gcd(*(abs(c.numerator) for c in coeffs)),
        math.lcm(*(c.denominator for c in coeffs)),
    )
    if coeffs[0] < 0:
        content = -content
    if content == 1:
        return Fraction(1), s
    inverse = Const(1 / content)
    return content, tree_ref_add([tree_ref_mul([inverse, t]) for t in s.terms])


def tree_ref_mul(factors) -> Expr:
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)

    coeff = Fraction(1)
    powers: dict[Expr, int] = {}
    for f in flat:
        if isinstance(f, Const):
            coeff *= f.value
            bits = coeff.numerator.bit_length() + coeff.denominator.bit_length()
            if bits > _FEW_BITS and too_large_power(coeff, 1):
                raise DomainError("product of constants too large to represent")
            continue
        if isinstance(f, Pow):
            base, k = f.base, f.exponent
        else:
            base, k = f, 1
        if isinstance(base, Sum):
            if k == 1 and sum(not isinstance(g, Const) for g in flat) == 1:
                rational = tree_ref_mul([g for g in flat if isinstance(g, Const)])
                if rational == ONE:
                    return base
                return tree_ref_add([tree_ref_mul([rational, t]) for t in base.terms])
            content, base = tree_ref_sum_content(base)
            if content != 1:
                if too_large_power(content, k):
                    raise DomainError("power of a constant too large to represent")
                coeff *= content ** k
                if too_large_power(coeff, 1):
                    raise DomainError("product of constants too large to represent")
        powers[base] = powers.get(base, 0) + k

    if coeff == 0:
        return ZERO

    parts = [tree_ref_pow(b, k) for b, k in powers.items() if k != 0]
    parts.sort(key=_factor_key)
    if not parts:
        return Const(coeff)
    if coeff == 1:
        return parts[0] if len(parts) == 1 else Prod(tuple(parts))
    if len(parts) == 1 and isinstance(parts[0], Sum):
        return tree_ref_add([tree_ref_mul([Const(coeff), t]) for t in parts[0].terms])
    return Prod((Const(coeff), *parts))


def tree_ref_add(terms) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)

    const_acc = Fraction(0)
    groups: dict[Expr, Fraction] = {}
    for t in flat:
        if isinstance(t, Const):
            const_acc += t.value
            bits = const_acc.numerator.bit_length() + const_acc.denominator.bit_length()
            if bits > _FEW_BITS and too_large_power(const_acc, 1):
                raise DomainError("constant too large to represent")
            continue
        coeff, rest = _ref_split_coeff(t)
        groups[rest] = groups.get(rest, Fraction(0)) + coeff

    parts: list[Expr] = []
    for rest, coeff in groups.items():
        if coeff == 0:
            continue
        parts.append(rest if coeff == 1 else tree_ref_mul([Const(coeff), rest]))
    parts.sort(key=_ref_term_key)
    if const_acc != 0:
        parts.insert(0, Const(const_acc))
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


# ---------------------------------------------------------------------------
# Reference of Ring.to_tree as first written: the nodes of the terms
# sorted and assembled directly, esum and eprod called only where a
# rational times a sum atom to the first power must be spread
# ---------------------------------------------------------------------------

def ref_to_tree(ring, p) -> Expr:
    """Tree of the ``poly.Poly`` ``p`` of ``ring``.  Where a sum atom to
    the first power with coefficient 1 stands next to other terms, the
    sum is kept as one term, which ``normalize`` would flatten."""
    trees, den, terms = ring.trees, p.den, []
    for m, c in p.num.items():
        parts = [trees[i] if e == 1 else Pow(trees[i], e)
                 for i, e in enumerate(ring.exponents(m)) if e]
        parts.sort(key=_factor_key)
        terms.append((Fraction(c, den), parts))
    if any(c != 1 and len(f) == 1 and isinstance(f[0], Sum) for c, f in terms):
        # a rational times a sum atom to the first power: eprod spreads it
        return esum(eprod([Const(c), *f]) for c, f in terms)
    constants = [Const(c) for c, f in terms if not f]
    terms = sorted((
        (f[0] if len(f) == 1 else Prod(tuple(f))) if c == 1 else Prod((Const(c), *f))
        for c, f in terms if f
    ), key=_ref_term_key)
    terms[:0] = constants
    return Sum(tuple(terms)) if len(terms) > 1 else terms[0] if terms else ZERO


# ---------------------------------------------------------------------------
# Reference of print_expr as first written: a later term of a sum with a
# negative leading rational is printed as its negation after " - ",
# names prefixed; the power text is the package's
# ---------------------------------------------------------------------------

def ref_fmt(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return "t" if e.index == TIME_INDEX else f"x{e.index}"
    if isinstance(e, Func):
        return f"{e.name}({ref_fmt(e.arg)})"
    if isinstance(e, Pow):
        return _fmt_power(ref_fmt(e.base), isinstance(e.base, (Sum, Prod, Const)), e.exponent)
    if isinstance(e, Prod):
        factors = e.factors
        prefix = ""
        if isinstance(factors[0], Const):
            value = factors[0].value
            factors = factors[1:]
            if value == -1:
                prefix = "-"
            else:
                prefix = f"{value}*"
        body = "*".join(_ref_fmt_factor(f) for f in factors)
        return prefix + body
    if isinstance(e, Sum):
        out = ref_fmt(e.terms[0])
        for term in e.terms[1:]:
            negated = _ref_negated(term)
            if negated is not None:
                out += f" - {ref_fmt(negated)}"
            else:
                out += f" + {ref_fmt(term)}"
        return out
    raise TypeError(f"not an expression: {e!r}")


def _ref_fmt_factor(f: Expr) -> str:
    text = ref_fmt(f)
    return f"({text})" if isinstance(f, Sum) else text


def _ref_negated(term: Expr) -> Expr | None:
    """The positive counterpart when the term has a negative leading
    rational, else None."""
    if isinstance(term, Const) and term.value < 0:
        return Const(-term.value)
    if (
        isinstance(term, Prod)
        and isinstance(term.factors[0], Const)
        and term.factors[0].value < 0
    ):
        value, rest = -term.factors[0].value, term.factors[1:]
        if value != 1:
            return Prod((Const(value), *rest))
        return rest[0] if len(rest) == 1 else Prod(rest)
    return None


# ---------------------------------------------------------------------------
# Reference of the expression parser: the lexer of frozen-dataclass tokens
# and the descent as first written, names prefixed; the kernel is the
# package's
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefToken:
    kind: str
    lexeme: str
    pos: int  # byte offset


_REF_SINGLE = {
    ord("+"): "plus",
    ord("-"): "minus",
    ord("*"): "star",
    ord("/"): "slash",
    ord("^"): "caret",
    ord("("): "lparen",
    ord(")"): "rparen",
    ord(","): "comma",
}

_REF_DIGITS = frozenset(b"0123456789")
_REF_IDENT_START = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REF_IDENT_CONT = _REF_IDENT_START | _REF_DIGITS


def ref_tokenize(src: str) -> list[RefToken]:
    data = src.encode("utf-8")
    out: list[RefToken] = []
    i = 0
    while i < len(data):
        c = data[i]
        if c in b" \t\r\n":
            i += 1
            continue
        if c in _REF_DIGITS:
            start = i
            while i < len(data) and data[i] in _REF_DIGITS:
                i += 1
            if i + 1 < len(data) and data[i] == ord(".") and data[i + 1] in _REF_DIGITS:
                i += 1
                while i < len(data) and data[i] in _REF_DIGITS:
                    i += 1
            out.append(RefToken("number", data[start:i].decode("ascii"), start))
            continue
        if c in _REF_IDENT_START:
            start = i
            while i < len(data) and data[i] in _REF_IDENT_CONT:
                i += 1
            out.append(RefToken("ident", data[start:i].decode("ascii"), start))
            continue
        kind = _REF_SINGLE.get(c)
        if kind is not None:
            out.append(RefToken(kind, chr(c), i))
            i += 1
            continue
        raise ParseError(f"unexpected character {bytes([c])!r}", i)
    out.append(RefToken("eof", "", len(data)))
    return out


_REF_VAR_PATTERN = re.compile(r"x([1-9][0-9]*)\Z")



class _RefParser:
    """Recursive descent that returns each construct normalized, built
    with the steps ``normalize`` takes; a DomainError in a step becomes
    a ParseError at that construct."""

    def __init__(self, tokens: list[RefToken], n: int, allow_time: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.allow_time = allow_time
        self.depth = 0

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def advance(self) -> RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind or 'end of input'}", tok.pos, (description,)
            )
        return self.advance()

    def enter(self, tok: RefToken) -> None:
        """Open one nesting level at ``tok``; the caller closes it by
        decrementing ``depth`` once the nested operand is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                "unexpected token after expression", tok.pos,
                ("operator", "end of input"),
            )
        return e

    # A chain of + or of * is folded once, by one esum or eprod of all
    # its operands: folding operand by operand would fold the growing
    # result again at every step.

    def additive(self) -> Expr:
        starts = [self.peek().pos]
        terms = [self.multiplicative()]
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            starts.append(self.peek().pos)
            right = self.multiplicative()
            if op.kind == "minus":
                right = _ref_step(starts[-1], eprod, [MINUS_ONE, right])
            terms.append(right)
        return _ref_chain(esum, terms, starts)

    def multiplicative(self) -> Expr:
        starts = [self.peek().pos]
        factors = [self.unary()]
        while self.peek().kind in ("star", "slash"):
            op = self.advance()
            starts.append(self.peek().pos)
            right = self.unary()
            if op.kind == "slash":
                right = _ref_step(starts[-1], _pow, right, -1)
            factors.append(right)
        return _ref_chain(eprod, factors, starts)

    def unary(self) -> Expr:
        if self.peek().kind == "minus":
            tok = self.advance()
            self.enter(tok)
            operand = self.unary()
            self.depth -= 1
            return _ref_step(tok.pos, eprod, [MINUS_ONE, operand])
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind != "caret":
            return base
        self.enter(self.advance())
        exp_tok = self.peek()
        exponent = self.unary()  # right associativity: x^2^3 = x^(2^3)
        self.depth -= 1
        if not isinstance(exponent, Const) or exponent.value.denominator != 1:
            raise NonIntegerExponent(
                "exponent must reduce to an integer constant", exp_tok.pos
            )
        return _ref_step(exp_tok.pos, _pow, base, int(exponent.value))

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                # an integer skips Fraction's string parser
                lexeme = tok.lexeme
                return Const(Fraction(lexeme if "." in lexeme else int(lexeme)))
            except ValueError as exc:  # more digits than int() converts
                raise ParseError("number too long to represent", tok.pos) from exc
        if tok.kind == "lparen":
            self.enter(self.advance())
            inner = self.additive()
            self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        if tok.kind == "ident":
            self.advance()
            name = tok.lexeme
            if name == "t":
                if not self.allow_time:
                    raise TimeNotAllowed(
                        "the time symbol is not allowed here", tok.pos
                    )
                return Var(TIME_INDEX)
            if name in FUNCTIONS:
                self.enter(self.expect("lparen", "'(' after function name"))
                arg = self.additive()
                self.expect("rparen", "')'")
                self.depth -= 1
                return _func(name, arg)
            match = _REF_VAR_PATTERN.match(name)
            if match:
                index = int(match.group(1))
                if index > self.n:
                    raise UnknownIdentifier(
                        f"variable {name} exceeds spatial dimension {self.n}", tok.pos
                    )
                return Var(index)
            raise UnknownIdentifier(f"unknown identifier {name!r}", tok.pos)
        raise ParseError(
            f"unexpected {tok.kind or 'end of input'}", tok.pos,
            ("number", "identifier", "'('", "'-'"),
        )


def _ref_step(at: int, fold, *args) -> Expr:
    """``fold(*args)``, a DomainError reported at byte offset ``at``."""
    try:
        return fold(*args)
    except DomainError as exc:
        raise ParseError(str(exc), at) from exc


def _ref_chain(fold, operands: list[Expr], starts: list[int]) -> Expr:
    """``fold`` (esum or eprod) of a chain's normalized operands, which
    start at the byte offsets ``starts``.  Where it fails, the error is
    placed at the operand whose folding into the operands before it
    first fails."""
    if len(operands) == 1:
        return operands[0]
    try:
        return fold(operands)
    except DomainError as exc:
        error = exc

    def folds(count: int) -> bool:
        try:
            fold(operands[:count])
        except DomainError:
            return False
        return True

    # the first `lo` operands fold, the first `hi` do not: double `hi`
    # from 2, then bisect, so the folds cost about two folds of the
    # whole chain
    lo, hi = 1, 2
    while hi < len(operands) and folds(hi):
        lo, hi = hi, min(2 * hi, len(operands))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if folds(mid):
            lo = mid
        else:
            hi = mid
    raise ParseError(str(error), starts[hi - 1]) from error


def ref_parse_expr(src: str, n: int, *, allow_time: bool = False) -> Expr:
    return _RefParser(ref_tokenize(src), n, allow_time).parse()


# ---------------------------------------------------------------------------
# Correction audit: second time derivative of each correction must match
# its defining source term
# ---------------------------------------------------------------------------

def correction_audit_max_deviation(p, expansion, plan: SamplePlan = PLAN) -> float:
    """Worst coefficient deviation of d2/dt2 u^(j) against
    rho^{-1}(L u^(j-1) + f when j == 1) over all corrections j >= 1.

    Both sides are built on trees, apart from the engines: degree k of
    d2/dt2 u^(j) is (k+1)(k+2) times degree k+2 of u^(j), L goes
    through ``apply_by_differentiate``, the forcing through
    ``tree_forcing``, and rho^{-1} is applied entry by entry."""
    f = tree_forcing(p, expansion.working_order)
    worst = 0.0
    for j in range(1, len(expansion.corrections)):
        prev, cur = expansion.corrections[j - 1], expansion.corrections[j]
        for k in range(expansion.working_order - 1):
            lu = apply_by_differentiate(p.L, prev.coefficient(k))
            if j == 1:
                lu = tuple(esum([a, b]) for a, b in zip(lu, f[k]))
            source = [
                esum(eprod([Const(q), c]) for q, c in zip(row, lu))
                for row in p.rho_inv.entries
            ]
            factor = Const(Fraction((k + 1) * (k + 2)))
            second = [eprod([factor, c]) for c in cur.coefficient(k + 2)]
            for a, b in zip(second, source):
                if a == b:
                    continue  # structurally identical, deviation zero
                dev = sampled_deviation(a, b, plan)
                if dev > worst:
                    worst = dev
    return worst


def variable_indices(e: Expr) -> set[int]:
    """Indices of the variables in ``e``, time included as 0."""
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Func):
        return variable_indices(e.arg)
    if isinstance(e, Pow):
        return variable_indices(e.base)
    children = e.factors if isinstance(e, Prod) else e.terms
    return set().union(*map(variable_indices, children))
