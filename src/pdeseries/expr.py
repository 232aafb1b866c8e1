"""Immutable symbolic expression trees over spatial variables.

Expressions are built from exact rational constants, indexed variables,
sums, products, integer powers and a small set of analytic functions
(sin, cos, exp, ln, sinh, cosh, tanh).  ``normalize`` brings a tree to a
canonical flattened form with folded constants and collected terms; it
never applies trigonometric or exponential identities.  The engines
decide value equality on the polynomial first (``Ring.deviation``) and
sample, seeded, only where the two polynomials differ
(``sampled_deviation``, ``equal_sampled``): the package's stand-in for
undecidable symbolic zero-testing.

Floats never enter the symbolic layer; they appear only in ``evaluate``.
Variable index 0 is reserved for the time symbol of the extended
grammar used by time expansion; spatial variables are indexed 1..n.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .errors import DomainError, SamplingExhausted

TIME_INDEX = 0

FUNCTIONS = ("sin", "cos", "exp", "ln", "sinh", "cosh", "tanh")
_FUNC_RANK = {name: i for i, name in enumerate(FUNCTIONS)}


class Expr:
    """Base class for expression nodes.

    Instances are immutable, hashable and comparable structurally.
    Arithmetic operators build normalized trees, so tests and problem
    builders can write ``2 * x - x`` and obtain ``x``.
    """

    __slots__ = ()

    def __add__(self, other) -> "Expr":
        return _add([self, as_expr(other)])

    __radd__ = __add__

    def __sub__(self, other) -> "Expr":
        return _add([self, _mul([MINUS_ONE, as_expr(other)])])

    def __rsub__(self, other) -> "Expr":
        return _add([as_expr(other), _mul([MINUS_ONE, self])])

    def __mul__(self, other) -> "Expr":
        return _mul([self, as_expr(other)])

    __rmul__ = __mul__

    def __neg__(self) -> "Expr":
        return _mul([MINUS_ONE, self])

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("exponents must be Python ints")
        return _pow(self, exponent)

    def __truediv__(self, other) -> "Expr":
        return _mul([self, _pow(as_expr(other), -1)])

    def __rtruediv__(self, other) -> "Expr":
        return _mul([as_expr(other), _pow(self, -1)])


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """Exact rational constant.  Its hash is the dataclass's, of ``(value,)``,
    taken through the int for an integer, which skips ``Fraction.__hash__``."""

    value: Fraction

    def __post_init__(self):
        if isinstance(self.value, float):
            raise TypeError("floats are not allowed in the symbolic layer")
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    def __hash__(self) -> int:
        q = self.value
        return hash((q.numerator if q.denominator == 1 else q,))


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """Variable by index: 0 is the time symbol, 1..n are spatial."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be nonnegative")


class _Compound(Expr):
    """Base of the nodes with children.

    Hashing a frozen dataclass rehashes the whole tree on every dict
    probe, so compound nodes keep their hash in a slot, filled on the
    first ``hash()`` from the children's cached hashes, read as None
    while empty so no AttributeError is raised.  The value is the one
    the dataclass would compute, ``hash`` of the field tuple.  A second
    slot keeps the node's ``sort_key``, filled on its first call.  The
    slots are not dataclass fields and not part of the structure:
    equality, ``repr``, pickling and copying see only the fields, and a
    hash never travels to a process with a different string-hash seed."""

    __slots__ = ("_hash", "_key")

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(tuple([getattr(self, name) for name in self.__match_args__]))
            object.__setattr__(self, "_hash", h)
        return h


# Each subclass names the inherited __hash__ in its own body; otherwise
# the frozen dataclass would install its recursive hash over it.

@dataclass(frozen=True, slots=True)
class Sum(_Compound):
    terms: tuple[Expr, ...]

    __hash__ = _Compound.__hash__

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True, slots=True)
class Prod(_Compound):
    factors: tuple[Expr, ...]

    __hash__ = _Compound.__hash__

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True, slots=True)
class Pow(_Compound):
    """Integer power of a base expression."""

    base: Expr
    exponent: int

    __hash__ = _Compound.__hash__

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise TypeError("power exponent must be a Python int")


@dataclass(frozen=True, slots=True)
class Func(_Compound):
    """Application of one of the supported analytic functions."""

    name: str
    arg: Expr

    __hash__ = _Compound.__hash__

    def __post_init__(self):
        if self.name not in FUNCTIONS:
            raise ValueError(f"unsupported function {self.name!r}")


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def as_expr(x) -> Expr:
    """Coerce an int or Fraction to a constant; pass expressions through."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Const(Fraction(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def const(x) -> Const:
    return Const(Fraction(x))


def var(index: int) -> Var:
    return Var(index)


def func(name: str, arg) -> Expr:
    return normalize(Func(name, as_expr(arg)))


def sin(e) -> Expr:
    return func("sin", e)


def cos(e) -> Expr:
    return func("cos", e)


def exp(e) -> Expr:
    return func("exp", e)


def ln(e) -> Expr:
    return func("ln", e)


def sinh(e) -> Expr:
    return func("sinh", e)


def cosh(e) -> Expr:
    return func("cosh", e)


def tanh(e) -> Expr:
    return func("tanh", e)


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------

def sort_key(e: Expr):
    """Total order on trees; drives deterministic child ordering.

    Keys are flat: ``(0, num, den)``, ``(1, index)``, ``(2, argkey,
    rank)``, ``(3, basekey, exponent)``, ``(4, *factor_keys)``,
    ``(5, *term_keys)``.  Compound nodes cache theirs in a slot."""
    if isinstance(e, Const):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return (1, e.index)
    key = getattr(e, "_key", None)
    if key is not None:
        return key
    if isinstance(e, Func):
        key = (2, sort_key(e.arg), _FUNC_RANK[e.name])
    elif isinstance(e, Pow):
        key = (3, sort_key(e.base), e.exponent)
    elif isinstance(e, Prod):
        key = (4, *map(sort_key, e.factors))
    else:
        key = (5, *map(sort_key, e.terms))
    object.__setattr__(e, "_key", key)
    return key


def _factor_key(f: Expr):
    # Product factors sort by (base, exponent) so that sin(x1)^2 keeps
    # its place next to other functions of x1 regardless of the power.
    if isinstance(f, Pow):
        return (sort_key(f.base), f.exponent)
    return (sort_key(f), 1)


def _rest_key(part: tuple) -> tuple:
    """Order of ``_add``'s (factors, term) pairs: the ``sort_key`` of
    the factors after the coefficient, which differ from pair to pair,
    read without building their node."""
    rest = part[0]
    return sort_key(rest[0]) if len(rest) == 1 else (4, *map(sort_key, rest))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

# Exact special values: these are rational constant folds, not
# simplification identities (normalize applies no trig/exp identities).
_AT_ZERO = {"sin": ZERO, "sinh": ZERO, "tanh": ZERO,
            "cos": ONE, "cosh": ONE, "exp": ONE}


def normalize(e: Expr) -> Expr:
    """Canonical form: flattened, constant-folded, like terms collected,
    children ordered by the fixed total order.  Idempotent.  Applies no
    trigonometric or exponential identities."""
    return _normalize(e, {})


def _normalize(e: Expr, memo: dict) -> Expr:
    """``normalize`` of ``e``; ``memo`` maps each node seen to its result."""
    if isinstance(e, (Const, Var)):
        return e
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    out = memo.get(e)
    if out is None:
        if isinstance(e, Func):
            out = _func(e.name, _normalize(e.arg, memo))
        elif isinstance(e, Pow):
            out = _pow(_normalize(e.base, memo), e.exponent)
        elif isinstance(e, Prod):
            out = _mul([_normalize(f, memo) for f in e.factors])
        else:
            out = _add([_normalize(t, memo) for t in e.terms])
        memo[e] = out
    return out


def _func(name: str, arg: Expr) -> Expr:
    """``name`` applied to the normalized ``arg``, exact special values
    folded."""
    if arg == ZERO and name in _AT_ZERO:
        return _AT_ZERO[name]
    if arg == ONE and name == "ln":
        return ZERO
    return Func(name, arg)


def _pow(base: Expr, k: int) -> Expr:
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
            # refused before it is computed: it could exhaust memory
            raise DomainError("power of a constant too large to represent")
        return Const(base.value ** k)
    if isinstance(base, Pow):
        return _pow(base.base, base.exponent * k)
    if isinstance(base, Prod):
        return _mul([_pow(f, k) for f in base.factors])
    if isinstance(base, Sum):
        content, primitive = _sum_content(base)
        if content != 1:
            return _mul([_pow(Const(content), k), Pow(primitive, k)])
    return Pow(base, k)


_UNIT = Fraction(1)


def _sum_content(s: Sum) -> tuple[Fraction, Expr]:
    """Split a normalized sum into (rational content, primitive sum).

    The content is the gcd of the term coefficients, signed so the
    primitive sum's leading coefficient is positive.  Keeping sums
    inside products primitive makes normalization independent of how a
    product was associated."""
    coeffs = [
        t.value if isinstance(t, Const)
        else t.factors[0].value if isinstance(t, Prod) and isinstance(t.factors[0], Const)
        else 1
        for t in s.terms
    ]
    gcd = math.gcd(*(c.numerator for c in coeffs))
    lcm = math.lcm(*(c.denominator for c in coeffs))
    if gcd == lcm == 1 and coeffs[0] > 0:
        return _UNIT, s
    content = Fraction(gcd, lcm) if coeffs[0] > 0 else Fraction(-gcd, lcm)
    inverse = Const(1 / content)
    # the primitive sum's coefficients are coprime integers, the first positive
    return content, _add([_mul([inverse, t]) for t in s.terms])


def _mul(factors: list[Expr]) -> Expr:
    if len(factors) == 2 and isinstance(factors[0], Const) and _small(factors[0].value):
        # a small rational times a rational with a small product, a
        # variable, a function or a power of one: the loop's result, as
        # its digit checks pass where every rational is small
        c, f = factors
        if isinstance(f, Const):
            q = c.value * f.value
            if _small(q):
                return Const(q) if q else ZERO
        base = f.base if isinstance(f, Pow) and f.exponent not in (0, 1) and _small(f.exponent) else f
        if isinstance(base, (Var, Func)):
            return ZERO if not c.value else f if c.value == 1 else Prod((c, f))
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)

    # the running product stays within the digit limit, so folding many
    # large constants costs linear, not quadratic, time before it fails;
    # it starts at the first constant (None: no constant yet)
    coeff = None
    powers: dict[Expr, int] = {}
    for f in flat:
        if isinstance(f, Const):
            coeff = f.value if coeff is None else coeff * f.value
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
                # a rational times one sum: spread it over the terms, which
                # needs no content; the content alone can be too large to
                # represent, as in -(x1/3^3000 + x2/7^3000 + x3/11^3000)
                rational = _mul([g for g in flat if isinstance(g, Const)])
                if rational == ONE:
                    return base
                return _add([_mul([rational, t]) for t in base.terms])
            content, base = _sum_content(base)
            if content != 1:
                if too_large_power(content, k):
                    raise DomainError("power of a constant too large to represent")
                coeff = content ** k if coeff is None else coeff * content ** k
                if too_large_power(coeff, 1):
                    raise DomainError("product of constants too large to represent")
        powers[base] = powers.get(base, 0) + k

    if coeff == 0:
        return ZERO

    parts = [b if k == 1 else _pow(b, k) for b, k in powers.items() if k != 0]
    if len(parts) > 1:
        parts.sort(key=_factor_key)
    if not parts:
        return ONE if coeff is None else Const(coeff)
    if coeff is None or coeff == 1:
        return parts[0] if len(parts) == 1 else Prod(tuple(parts))
    if len(parts) == 1 and isinstance(parts[0], Sum):
        # distribute the rational over a bare sum so that scaled sums
        # stay flat and like terms keep collecting across operations
        return _add([_mul([Const(coeff), t]) for t in parts[0].terms])
    return Prod((Const(coeff), *parts))


# Rationals this small print under any int-to-text limit: Python sets
# none below 640 digits, and 2^2000 has 603.
_FEW_BITS = 2000


def _small(q) -> bool:
    """True when the rational or int ``q`` has at most _FEW_BITS bits."""
    return q.numerator.bit_length() + q.denominator.bit_length() <= _FEW_BITS


def _add(terms: list[Expr]) -> Expr:
    if not terms:
        return ZERO
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)

    # the running constant stays within the digit limit, as in _mul
    const_acc = None
    # the factors after a term's coefficient -> [coefficient, the term
    # itself while no other term has been collected with it]
    groups: dict[tuple, list] = {}
    for t in flat:
        if isinstance(t, Const):
            const_acc = t.value if const_acc is None else const_acc + t.value
            bits = const_acc.numerator.bit_length() + const_acc.denominator.bit_length()
            if bits > _FEW_BITS and too_large_power(const_acc, 1):
                raise DomainError("constant too large to represent")
            continue
        if not isinstance(t, Prod):
            coeff, rest = _UNIT, (t,)
        elif isinstance(t.factors[0], Const):
            coeff, rest = t.factors[0].value, t.factors[1:]
        else:
            coeff, rest = _UNIT, t.factors
        group = groups.get(rest)
        if group is None:
            groups[rest] = [coeff, t]
        else:
            group[0] += coeff
            group[1] = None

    kept: list[tuple] = []  # (factors after the coefficient, term)
    for rest, (coeff, t) in groups.items():
        if t is not None:
            # a term alone keeps its node; the check is the one that
            # rebuilding it, coefficient first, would make
            if coeff is not _UNIT:
                bits = coeff.numerator.bit_length() + coeff.denominator.bit_length()
                if bits > _FEW_BITS and too_large_power(coeff, 1):
                    raise DomainError("product of constants too large to represent")
            kept.append((rest, t))
        elif coeff == 1:
            kept.append((rest, rest[0] if len(rest) == 1 else Prod(rest)))
        elif coeff != 0:
            kept.append((rest, _mul([Const(coeff), *rest])))
    if len(kept) > 1:
        kept.sort(key=_rest_key)
    parts = [Const(const_acc)] if const_acc else []
    parts += [t for _, t in kept]
    if not parts:
        return ZERO
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def esum(terms: Iterable[Expr]) -> Expr:
    """Normalized sum of already-normalized expressions.  A term that
    meets no like term is kept as its node, so a term that is not
    normalized stays as it is."""
    return _add(list(terms))


def eprod(factors: Iterable[Expr]) -> Expr:
    """Normalized product of already-normalized expressions."""
    return _mul(list(factors))


def too_large_power(q: Fraction, k: int) -> bool:
    """True when the rational (or int) ``q`` raised to ``k`` has more
    digits than the interpreter converts to text
    (``sys.get_int_max_str_digits``); never for 0 and +-1.  Computing
    such a power can exhaust memory, and it could never be printed."""
    # 0 means no limit; interpreters before 3.10.7 have none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = max(abs(q.numerator), q.denominator)  # 1 for 0 and +-1
    # big < 2^b, so big^|k| has at most 0.302 |k| b + 1 digits
    if not limit or big == 1 or abs(k) * big.bit_length() < 3 * limit:
        return False
    # big^|k| has floor(|k| log10 big) + 1 digits; within a digit of the
    # limit the float estimate may round either way, and the exact power
    # is small enough to compute
    digits = math.log10(big)
    if abs(k) > (limit + 1) / digits:
        return True
    if abs(k) < (limit - 1) / digits:
        return False
    return big ** abs(k) >= 10 ** limit


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

def _variables(e: Expr, memo: dict) -> tuple[int, bool]:
    """(largest spatial variable index, whether time occurs) of ``e``.
    ``memo`` holds the answer for every compound node seen, so a shared
    subtree is walked once however many copies of it there are."""
    if isinstance(e, Var):
        return e.index, e.index == TIME_INDEX
    if isinstance(e, Const):
        return 0, False
    out = memo.get(e)
    if out is not None:
        return out
    if isinstance(e, Func):
        out = _variables(e.arg, memo)
    elif isinstance(e, Pow):
        out = _variables(e.base, memo)
    else:
        index, time = 0, False
        for child in e.factors if isinstance(e, Prod) else e.terms:
            i, t = _variables(child, memo)
            index, time = max(index, i), time or t
        out = index, time
    memo[e] = out
    return out


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

_MATH = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


def evaluate(e: Expr, point: Sequence[float], *, time: float | None = None) -> float:
    """Evaluate at a point (component i binds variable x_i, 1-based).

    ``time`` supplies the value of the time symbol for expressions from
    the extended grammar.  Each distinct subtree is evaluated once.
    Raises DomainError where the point fails: ln of a value <= 0, zero
    to a negative power, an overflow, or a math domain error."""
    failed: set = set()
    value = _eval_points(e, [point], [time], {}, failed)[0]
    if failed:
        raise DomainError("evaluation left the domain of a primitive or overflowed")
    return value


def _eval_points(e: Expr, xs: list, ts: list, memo: dict, failed: set) -> list[float]:
    """Values of ``e`` at the points ``(xs[i], ts[i])``.  ``memo`` holds
    the values of every compound node seen, so equal subtrees are
    evaluated once; per point the floats are those of a recursive walk.

    A point fails at a node on ln of a value <= 0, zero to a negative
    power, an overflow, or a math domain error such as sin(inf): its
    index joins ``failed``, the node takes the value 1.0 there, and the
    other points go on unchanged."""
    if isinstance(e, Const):
        try:
            return [float(e.value)] * len(xs)
        except OverflowError:
            failed.update(range(len(xs)))
            return [1.0] * len(xs)
    if isinstance(e, Var):
        if e.index != TIME_INDEX:
            return [float(x[e.index - 1]) for x in xs]
        if None in ts:
            raise ValueError("expression uses the time symbol but no time value was given")
        return ts
    out = memo.get(e)
    if out is not None:
        return out
    if isinstance(e, Sum):
        cols = [_eval_points(t, xs, ts, memo, failed) for t in e.terms]
        out = [sum(vs) for vs in zip(*cols)]
    elif isinstance(e, Prod):
        cols = [_eval_points(f, xs, ts, memo, failed) for f in e.factors]
        out = [math.prod(vs, start=1.0) for vs in zip(*cols)]
    elif isinstance(e, Pow):
        bs = _eval_points(e.base, xs, ts, memo, failed)
        out = _column(lambda b: b ** e.exponent, bs, failed)
    elif isinstance(e, Func):
        out = _column(_MATH[e.name], _eval_points(e.arg, xs, ts, memo, failed), failed)
    else:
        raise TypeError(f"not an expression: {e!r}")
    memo[e] = out
    return out


def _column(fn, args: list, failed: set) -> list[float]:
    """``fn`` at every point, once each; a point where it raises joins
    ``failed`` and gets 1.0."""
    out, rest = [], iter(args)
    while True:
        try:  # extend keeps the values before the failure; map resumes after it
            out.extend(map(fn, rest))
            return out
        except (ArithmeticError, ValueError):
            failed.add(len(out))
            out.append(1.0)


# ---------------------------------------------------------------------------
# Sampled equality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """Configuration of the numeric equality oracle.

    Points are drawn uniformly from ``SAMPLE_DOMAIN`` for every variable
    (and for the time symbol when present), deterministically from
    ``seed``; ``points_per_check`` of them are kept per check.  Two
    expressions count as equal at a point when
    ``|a - b| <= tolerance * (1 + max(|a|, |b|))``.  A deviation from
    zero, |a| / (1 + |a|), is below 1, so a tolerance of 1 or more would
    pass every tail-zero and residual check: it lies strictly between 0
    and 1.
    """

    seed: int = 42
    points_per_check: int = 32
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.points_per_check < 1:
            raise ValueError("points_per_check must be at least 1")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must be positive and below 1")


DEFAULT_PLAN = SamplePlan()

SAMPLE_DOMAIN = (-1.0, 1.0)

_RESAMPLE_TRIES = 64


def sampled_deviation(a: Expr, b: Expr, plan: SamplePlan = DEFAULT_PLAN) -> float:
    """Worst relative deviation |a-b| / (1 + max(|a|,|b|)) over the plan's
    sample points.

    The points kept are the first ``points_per_check`` draws of the
    seeded stream at which both sides evaluate and their difference is
    finite.  Each batch of draws is evaluated all at once, each distinct
    subtree of either side once; the draws that fail are replaced in the
    next batch.
    SamplingExhausted after ``_RESAMPLE_TRIES`` failed draws in a row."""
    walked: dict = {}
    (index_a, time_a), (index_b, time_b) = _variables(a, walked), _variables(b, walked)
    draws = _draws(plan.seed, max(1, index_a, index_b), time_a or time_b)
    worst, wanted, failures_in_a_row = 0.0, plan.points_per_check, 0
    while wanted:
        xs, ts = zip(*islice(draws, wanted))
        memo, failed = {}, set()
        values = zip(_eval_points(a, xs, ts, memo, failed), _eval_points(b, xs, ts, memo, failed))
        for i, (va, vb) in enumerate(values):
            if i in failed or not math.isfinite(va - vb):
                failures_in_a_row += 1
                if failures_in_a_row == _RESAMPLE_TRIES:
                    raise SamplingExhausted(
                        f"no valid sample point found in {_RESAMPLE_TRIES} draws"
                    )
                continue
            failures_in_a_row = 0
            wanted -= 1
            dev = abs(va - vb) / (1.0 + max(abs(va), abs(vb)))
            if dev > worst:
                worst = dev
    return worst


def _draws(seed: int, n_vars: int, with_time: bool):
    """Endless sample points ``(x, t)`` drawn from ``seed``."""
    rng = random.Random(seed)
    lo, hi = SAMPLE_DOMAIN
    while True:
        point = [rng.uniform(lo, hi) for _ in range(n_vars)]
        yield point, (rng.uniform(lo, hi) if with_time else None)


def equal_sampled(a: Expr, b: Expr, plan: SamplePlan = DEFAULT_PLAN) -> bool:
    """Numeric equality oracle: true iff the expressions agree within the
    plan's tolerance at every sampled point."""
    return sampled_deviation(a, b, plan) <= plan.tolerance
