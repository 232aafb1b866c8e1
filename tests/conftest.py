"""Shared test helpers: seeded expression/problem generators, reference
copies of the kernel, the parser and the printer as first written, and the
correction-audit used by several suites."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings

from pdeseries.errors import (
    DomainError,
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
    _factor_key,
    _func,
    _outer_derivative,
    _pow,
    differentiate,
    eprod,
    esum,
    normalize,
    sampled_deviation,
    sort_key,
    too_large_power,
)
from pdeseries.parser import MAX_NESTING, _fmt_power
from pdeseries.series import (
    OperatorTerm,
    ProblemSpec,
    RationalMatrix,
    SpatialOperator,
    expand_in_time,
    invert,
)

settings.register_profile(
    "pdeseries",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pdeseries")

PLAN = SamplePlan()

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


def problem_path(name: str) -> str:
    return str(PROBLEM_DIR / name)


# the heavy 2x2 problem of the benchmark: variable coefficients, a
# transcendental forcing, coupled components
HEAVY_2X2 = """{"m": 2, "n": 2, "rho": [["2","1"],["1","1"]],
 "L": [{"row":0,"col":0,"coeff":"1+x1^2","derivs":[2,0]},
       {"row":0,"col":1,"coeff":"x2","derivs":[0,1]},
       {"row":1,"col":0,"coeff":"sin(x1)","derivs":[1,0]},
       {"row":1,"col":1,"coeff":"1","derivs":[0,2]}],
 "f": ["exp(t)*sin(x1+t)*cos(x2)", "t^2*x1"],
 "u0": ["sin(x1)*exp(x2)", "x1^2"], "u1": ["cos(x2)", "0"], "order": 8}
"""


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
# Tree-built reference of the operator
# ---------------------------------------------------------------------------

def apply_by_differentiate(op, vec):
    """Operator application on trees, as first written: each term
    normalizes its column and takes every step through ``differentiate``."""
    rows = [[] for _ in range(op.m)]
    for term in op.terms:
        d = normalize(vec[term.col])
        for variable, order in enumerate(term.orders, start=1):
            for _ in range(order):
                d = differentiate(d, variable)
            if d == ZERO:
                break
        if d == ZERO:
            continue
        rows[term.row].append(eprod([term.coeff, d]))
    return tuple(esum(parts) for parts in rows)


def tree_forcing(p, order: int) -> list[tuple[Expr, ...]]:
    """Per-degree forcing vectors f_0..f_order by ``expand_in_time``,
    the jets on trees, one component at a time: apart from the ring
    expansion that the engines use."""
    per_component = [expand_in_time(c, order) for c in p.f_source]
    return [tuple(c[j] for c in per_component) for j in range(order + 1)]


# ---------------------------------------------------------------------------
# Fraction-dict reference of the polynomial kernel: a polynomial as a dict
# from exponent tuple to nonzero Fraction, as the kernel was first written
# ---------------------------------------------------------------------------

def ref_of(p) -> dict:
    """The reference form of a ``poly.Poly``."""
    return {m: Fraction(c, p.den) for m, c in p.num.items()}


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
            d = ref_diff(ring, ref_of(inner), v)
        else:
            d = ref_diff(ring, ref_of(inner), v)
            if d:  # the outer derivative may be singular where unused
                d = ref_mul(ref_of(ring.from_tree(_outer_derivative(tree))), d)
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
        ref_iadd(rows[term.row], ref_mul(ref_of(ring.from_tree(term.coeff)), d))
    return rows


def ref_scale_rows(matrix, v: list[dict]) -> list[dict]:
    out = []
    for row in matrix.entries:
        total: dict = {}
        for q, p in zip(row, v):
            ref_iadd(total, ref_scale(p, q))
        out.append(total)
    return out


def ref_engines(p, corrections: int) -> tuple[list, list]:
    """The direct rows to the problem's order and the correction rows to
    the same degree, in the reference arithmetic; the forcing comes from
    the tree jets, and only the trees of the data go through the ring."""
    from pdeseries.series import problem_ring

    ring, order = problem_ring(p), p.order
    f = [[ref_of(ring.from_tree(c)) for c in row] for row in tree_forcing(p, order)]
    first = [[ref_of(ring.from_tree(c)) for c in vec] for vec in (p.u0, p.u1)]
    direct = list(first)
    for j in range(order - 1):
        w = ref_apply(ring, p.L, direct[j])
        for a, b in zip(w, f[j]):
            ref_iadd(a, b)
        direct.append(ref_scale_rows(p.rho_inv.scaled(Fraction(1, (j + 1) * (j + 2))), w))
    hpm = [first + [[{}] * p.m] * (order - 1)]
    for j in range(1, corrections + 1):
        rows = [[{}] * p.m, [{}] * p.m]
        for k in range(order - 1):
            s = ref_apply(ring, p.L, hpm[-1][k])
            if j == 1:
                for a, b in zip(s, f[k]):
                    ref_iadd(a, b)
            q = Fraction(1, (k + 1) * (k + 2))
            rows.append([ref_scale(c, q) for c in ref_scale_rows(p.rho_inv, s)])
        hpm.append(rows)
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
# _add as first written, recomputing every sum's content on every use
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
        parts = [trees[i] if e == 1 else Pow(trees[i], e) for i, e in enumerate(m) if e]
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
    for j in range(1, expansion.max_correction + 1):
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
