"""Expression core: evaluation, normalization and the sampled equality
oracle, and the derivatives of trees that the ring takes."""

import copy
import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PLAN,
    random_normal_expr,
    random_numeric_expr,
    random_raw_expr,
    tree_ref_add,
    tree_ref_diff,
    tree_ref_mul,
    tree_ref_normalize,
    tree_ref_pow,
    variable_indices,
)
from pdeseries import expr, parser
from pdeseries.errors import DomainError, FormatError, ParseError, SamplingExhausted
from pdeseries.expr import (
    Const,
    Func,
    Pow,
    Prod,
    SamplePlan,
    Sum,
    Var,
    ZERO,
    ONE,
    MINUS_ONE,
    const,
    equal_sampled,
    evaluate,
    normalize,
    sampled_deviation,
    sort_key,
    var,
)
from pdeseries.parser import parse_expr, print_expr
from pdeseries.poly import Poly, Ring


def _reference_eval(e, point, time=None):
    """Independent evaluator used as an oracle against evaluate().

    Sums go through the builtin ``sum``, as in evaluate(), so that both
    give the same float on interpreters whose ``sum`` compensates."""
    if isinstance(e, Const):
        return e.value.numerator / e.value.denominator
    if isinstance(e, Var):
        return time if e.index == 0 else point[e.index - 1]
    if isinstance(e, Sum):
        return sum(_reference_eval(t, point, time) for t in e.terms)
    if isinstance(e, Prod):
        total = 1.0
        for f in e.factors:
            total *= _reference_eval(f, point, time)
        return total
    if isinstance(e, Pow):
        return _reference_eval(e.base, point, time) ** e.exponent
    table = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
             "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh}
    return table[e.name](_reference_eval(e.arg, point, time))


def _reference_deviation(a, b, plan):
    """The oracle point by point: per point draw the x's, then t; redraw
    while either side fails or their difference is not finite, at most
    64 times."""
    indices = variable_indices(a) | variable_indices(b)
    n_vars = max(indices | {1})
    with_time = 0 in indices
    rng = random.Random(plan.seed)
    lo, hi = expr.SAMPLE_DOMAIN
    worst = 0.0
    for _ in range(plan.points_per_check):
        for _attempt in range(64):
            point = [rng.uniform(lo, hi) for _ in range(n_vars)]
            tval = rng.uniform(lo, hi) if with_time else None
            try:
                va = _reference_eval(a, point, tval)
                vb = _reference_eval(b, point, tval)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            if math.isfinite(va - vb):
                break
        else:
            raise SamplingExhausted("no valid sample point")
        worst = max(worst, abs(va - vb) / (1.0 + max(abs(va), abs(vb))))
    return worst


def _outcome(oracle, a, b, plan):
    try:
        return oracle(a, b, plan)
    except SamplingExhausted:
        return "exhausted"


def _nested_sort_key(e):
    """The sort key as first written: a tag and a tuple of parts."""
    if isinstance(e, Const):
        return (0, (e.value.numerator, e.value.denominator))
    if isinstance(e, Var):
        return (1, (e.index,))
    if isinstance(e, Func):
        return (2, (_nested_sort_key(e.arg), expr._FUNC_RANK[e.name]))
    if isinstance(e, Pow):
        return (3, (_nested_sort_key(e.base), e.exponent))
    if isinstance(e, Prod):
        return (4, tuple(_nested_sort_key(f) for f in e.factors))
    return (5, tuple(_nested_sort_key(t) for t in e.terms))


class TestEvaluate:
    def test_trig_point(self):
        e = parse_expr("sin(x1)^2 * cos(x2)", 2)
        assert evaluate(e, (math.pi / 2, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert evaluate(const(Fraction(3, 2)), ()) == 1.5

    def test_matches_reference_evaluator(self):
        e = parse_expr("2*cos(2*x1)*cos(x2) - sin(x1)^2*cos(x2)", 2)
        got = evaluate(e, (0.7, 0.3))
        want = _reference_eval(e, (0.7, 0.3))
        assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_ln_nonpositive_raises(self):
        with pytest.raises(DomainError):
            evaluate(Func("ln", Var(1)), (-1.0,))

    def test_negative_power_of_zero_raises(self):
        with pytest.raises(DomainError):
            evaluate(Pow(Var(1), -1), (0.0,))

    @pytest.mark.parametrize("call,error,message", [
        (lambda: evaluate(parse_expr("t*x1", 1, allow_time=True), (0.5,)), ValueError,
         "expression uses the time symbol but no time value was given"),
        (lambda: parse_expr("x1", -1), FormatError, "spatial dimension must be >= 1"),
    ])
    def test_argument_errors(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


def _differentiate(e, v):
    """D_v of a tree through the package's one calculus, ``Ring.diff``."""
    ring = Ring()
    return ring.to_tree(ring.diff(ring.from_tree(e), v))


class TestDifferentiate:
    def test_chain_rule_square(self):
        got = _differentiate(parse_expr("sin(x1)^2", 1), 1)
        want = parse_expr("2*sin(x1)*cos(x1)", 1)
        assert got == want

    def test_second_derivative_double_angle(self):
        d2 = _differentiate(_differentiate(parse_expr("sin(x1)^2", 1), 1), 1)
        assert equal_sampled(d2, parse_expr("2*cos(2*x1)", 1), PLAN)

    def test_constant_rule(self):
        assert _differentiate(const(5), 1) == ZERO

    @pytest.mark.parametrize("text,var_index,expected", [
        ("exp(2*x1)", 1, "2*exp(2*x1)"),
        ("ln(x1)", 1, "x1^(-1)"),
        ("tanh(x1)", 1, "1 - tanh(x1)^2"),
        ("cosh(x2)", 2, "sinh(x2)"),
        ("x1*x2", 2, "x1"),
        ("x1^3", 1, "3*x1^2"),
    ])
    def test_table(self, text, var_index, expected):
        e = parse_expr(text, 2)
        assert _differentiate(e, var_index) == parse_expr(expected, 2)
        # the reference walk on trees states the same rules
        assert tree_ref_diff(e, var_index) == parse_expr(expected, 2)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_linearity(self, seed):
        rng = random.Random(seed)
        a = random_numeric_expr(rng)
        b = random_numeric_expr(rng)
        v = rng.randint(1, 2)
        left = _differentiate(a + b, v)
        right = _differentiate(a, v) + _differentiate(b, v)
        assert equal_sampled(left, right, PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_product_rule(self, seed):
        rng = random.Random(seed)
        a = random_numeric_expr(rng, depth=2)
        b = random_numeric_expr(rng, depth=2)
        v = rng.randint(1, 2)
        left = _differentiate(a * b, v)
        right = _differentiate(a, v) * b + a * _differentiate(b, v)
        assert equal_sampled(left, right, PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_finite_difference(self, seed):
        rng = random.Random(seed)
        e = random_numeric_expr(rng, depth=2)
        v = rng.randint(1, 2)
        d = _differentiate(e, v)
        point = [rng.uniform(-1, 1) for _ in range(2)]
        h = 1e-5
        up = list(point)
        down = list(point)
        up[v - 1] += h
        down[v - 1] -= h
        fd = (evaluate(e, up) - evaluate(e, down)) / (2 * h)
        exact = evaluate(d, point)
        assert abs(fd - exact) <= 1e-5 * (1 + abs(exact))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_the_reference_keeps_a_normalized_tree_normalized(self, seed):
        # the tree-built operator chains tree_ref_diff without normalizing
        # between steps, which needs this
        rng = random.Random(seed)
        d = random_normal_expr(rng, depth=4, n_vars=2)
        for v in (1, 1, 2, 1, 2):
            d = tree_ref_diff(d, v)
            assert normalize(d) == d


def _repeating(k):
    """k terms that each hold one deep subtree, and that subtree."""
    shared = parse_expr("sin(x1 + cos(x1*x2)^2*exp(x2^2 + x1)*ln(2 + x1^2))", 2)
    terms = [Prod((Pow(Var(2), j + 2), shared)) for j in range(1, k + 1)]
    return normalize(Sum(tuple(terms))), shared


class TestNormalize:
    def test_collect_like_terms(self):
        e = Sum((Var(1), ZERO, Var(1)))
        assert normalize(e) == Prod((const(2), Var(1)))

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_repeated_subtree_is_normalized_once(self, monkeypatch, k):
        _, shared = _repeating(k)
        raw = Sum(tuple(Prod((Pow(Var(2), j + 2), shared)) for j in range(1, k + 1)))
        calls = []
        original = expr._func

        def counting(name, arg):
            calls.append((name, arg))
            return original(name, arg)

        monkeypatch.setattr(expr, "_func", counting)
        got = normalize(raw)
        # the shared subtree holds four functions, whatever k
        assert len(calls) == 4
        monkeypatch.undo()
        assert got == tree_ref_normalize(raw)

    def test_unit_factor_removal(self):
        e = Prod((ONE, Func("sin", Var(1)), ONE))
        assert normalize(e) == Func("sin", Var(1))

    def test_exact_rational_fold(self):
        e = Sum((const(Fraction(1, 2)), const(Fraction(1, 3))))
        assert normalize(e) == const(Fraction(5, 6))

    def test_power_merge(self):
        e = Prod((Var(1), Pow(Var(1), 2)))
        assert normalize(e) == Pow(Var(1), 3)

    def test_cancellation_to_zero(self):
        assert normalize(Sum((Var(1), Prod((const(-1), Var(1)))))) == ZERO

    def test_special_values_fold(self):
        assert normalize(Func("exp", ZERO)) == ONE
        assert normalize(Func("sin", ZERO)) == ZERO
        assert normalize(Func("ln", ONE)) == ZERO
        # a nonzero rational argument stays symbolic
        assert normalize(Func("exp", ONE)) == Func("exp", ONE)

    def _assert_invariants(self, e):
        if isinstance(e, Sum):
            assert len(e.terms) >= 2
            assert not any(isinstance(t, Sum) for t in e.terms)
            assert sum(isinstance(t, Const) for t in e.terms) <= 1
            for t in e.terms:
                self._assert_invariants(t)
        elif isinstance(e, Prod):
            assert len(e.factors) >= 2
            assert not any(isinstance(f, Prod) for f in e.factors)
            assert sum(isinstance(f, Const) for f in e.factors) <= 1
            for f in e.factors:
                self._assert_invariants(f)
        elif isinstance(e, Pow):
            assert e.exponent not in (0, 1)
            assert not isinstance(e.base, (Const, Pow, Prod))
            self._assert_invariants(e.base)
        elif isinstance(e, Func):
            self._assert_invariants(e.arg)

    @pytest.mark.parametrize("raw", [
        Pow(const(2), 99999999),
        Pow(Prod((const(2), Var(1))), 99999999),
        Pow(Sum((Prod((const(Fraction(1, 2)), Var(1))), const(Fraction(1, 2)))), -99999999),
    ])
    def test_huge_constant_power_is_refused_before_it_is_computed(self, raw):
        with pytest.raises(DomainError, match="too large"):
            normalize(raw)

    def test_constant_powers_within_the_limit(self):
        assert normalize(Pow(Prod((const(2), Var(1))), 14000)) == Prod(
            (const(2**14000), Pow(Var(1), 14000))
        )
        assert normalize(Pow(const(10), 4299)) == const(10**4299)
        with pytest.raises(DomainError):
            normalize(Pow(const(10), 4300))  # 4301 digits

    def test_many_large_constant_factors_fail_early(self, monkeypatch):
        # the running product never holds many more digits than the limit
        # allows, so the refusal costs linear, not quadratic, time
        seen = []
        original = expr.too_large_power

        def recording(q, k):
            seen.append(max(abs(Fraction(q).numerator), Fraction(q).denominator).bit_length())
            return original(q, k)

        monkeypatch.setattr(expr, "too_large_power", recording)
        src = "*".join(["(2^14000*x2)"] * 3000)
        with pytest.raises(ParseError) as err:
            parse_expr(src, 3)
        assert err.value.offset == 13
        assert seen and max(seen) <= 2 * 14001

    @given(st.integers(min_value=0, max_value=10**6))
    def test_idempotent_and_invariants(self, seed):
        rng = random.Random(seed)
        raw = random_raw_expr(rng)
        try:
            normalized = normalize(raw)
        except DomainError:
            return  # raw tree folded a zero to a negative power
        h = hash(normalized)
        again = normalize(normalized)  # rebuilt, not the same objects
        assert again == normalized
        assert hash(again) == h
        assert hash(normalized) == h
        self._assert_invariants(normalized)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_association_confluence(self, seed):
        # how a product or sum was associated must not change the
        # canonical form
        rng = random.Random(seed)
        parts = [random_normal_expr(rng, depth=2) for _ in range(3)]
        flat_prod = normalize(Prod(tuple(parts)))
        nested_prod = normalize(Prod((Prod((parts[0], parts[1])), parts[2])))
        assert flat_prod == nested_prod
        flat_sum = normalize(Sum(tuple(parts)))
        nested_sum = normalize(Sum((parts[0], Sum((parts[1], parts[2])))))
        assert flat_sum == nested_sum

    @given(st.integers(min_value=0, max_value=10**6))
    def test_value_preserving(self, seed):
        rng = random.Random(seed)
        raw = random_raw_expr(
            rng, funcs=("sin", "cos", "exp", "sinh", "cosh", "tanh"),
            allow_negative_pow=False,
        )
        normalized = normalize(raw)
        point = [rng.uniform(-1, 1) for _ in range(2)]
        a = evaluate(raw, point)
        b = evaluate(normalized, point)
        assert abs(a - b) <= 1e-12 * (1 + max(abs(a), abs(b)))


def _subtrees(e):
    yield e
    if isinstance(e, (Sum, Prod)):
        for child in e.terms if isinstance(e, Sum) else e.factors:
            yield from _subtrees(child)
    elif isinstance(e, Pow):
        yield from _subtrees(e.base)
    elif isinstance(e, Func):
        yield from _subtrees(e.arg)


class TestHash:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_hash_fixed_after_first_call(self, seed):
        e = random_normal_expr(random.Random(seed), depth=4)
        first = hash(e)
        table = {node: i for i, node in enumerate(_subtrees(e))}
        assert table[e] == 0
        assert hash(e) == first
        # every cached hash is the hash of the node's own fields
        for node in _subtrees(e):
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
            assert hash(node) == hash(fields)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_sort_key_gives_the_nested_order(self, seed):
        rng = random.Random(seed)
        nodes = [n for _ in range(4) for n in _subtrees(random_normal_expr(rng, depth=3))]
        assert sorted(nodes, key=sort_key) == sorted(nodes, key=_nested_sort_key)
        for x, y in zip(nodes, reversed(nodes)):
            assert (sort_key(x) < sort_key(y)) == (_nested_sort_key(x) < _nested_sort_key(y))
            assert (sort_key(x) == sort_key(y)) == (x == y)

    def test_cached_sort_key_is_not_part_of_the_structure(self):
        e = parse_expr("sin(x1)^2*(x1 + x2) - cos(x2)", 2)
        key = sort_key(e)
        assert sort_key(e) is key  # filled once
        for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert clone == e and hash(clone) == hash(e)
            assert sort_key(clone) == key

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(7), Fraction(-3), Fraction(10**4000),
                                   Fraction(-3, 5), Fraction(1, 10**40)])
    def test_const_hash_is_the_dataclass_hash(self, q):
        c = Const(q)
        assert hash(c) == hash((q,)) == hash(Const(Fraction(q.numerator, q.denominator)))
        assert repr(c) == f"Const(value={q!r})"
        assert [f.name for f in dataclasses.fields(Const)] == ["value"]
        for clone in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c)):
            assert clone == c and hash(clone) == hash(c) and repr(clone) == repr(c)
        assert pickle.dumps(c) == pickle.dumps(Const(q))
        assert c != Const(q + 1) and {c: 1}[Const(q)] == 1

    def test_cache_is_not_part_of_the_structure(self):
        e = parse_expr("sin(x1)^2*(x1 + x2) - cos(x2)", 2)
        hash(e)
        assert [f.name for f in dataclasses.fields(Sum)] == ["terms"]
        assert repr(Pow(var(1), 2)) == "Pow(base=Var(index=1), exponent=2)"
        for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert clone == e and hash(clone) == hash(e)


def _kernel_outcome(fold, *args):
    """The tree ``fold(*args)`` gives, or the DomainError it raises."""
    try:
        return fold(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


def _parse_outcome(src, n):
    try:
        return parse_expr(src, n)
    except ParseError as exc:
        return (type(exc).__name__, str(exc), exc.offset)


class TestKernelParity:
    """The kernel against ``conftest``'s copy of it as first written,
    which rebuilds every term and folds constants from 1 and 0."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_normalize_agrees_with_the_reference(self, seed):
        raw = random_raw_expr(random.Random(seed), depth=4, n_vars=3)
        assert _kernel_outcome(normalize, raw) == _kernel_outcome(tree_ref_normalize, raw)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_operations_agree_with_the_reference(self, seed):
        rng = random.Random(seed)
        a, b, c = (random_normal_expr(rng, depth=3) for _ in range(3))
        q = Const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        cases = [
            (expr._mul, tree_ref_mul, [a, b]),
            (expr._mul, tree_ref_mul, [q, a, b, c]),
            (expr._mul, tree_ref_mul, [a, q]),
            # a rational first, as the two-factor fast path takes it
            (expr._mul, tree_ref_mul, [q, a]),
            (expr._mul, tree_ref_mul, [q, Pow(b, rng.choice((-1, 0, 1, 2)))]),  # raw too
            (expr._mul, tree_ref_mul, [q, Pow(Var(1), 10**4400)]),  # raw, refused
            (expr._mul, tree_ref_mul, [Const(Fraction(3**1300, 7)), a]),  # not small
            (expr._add, tree_ref_add, [a, b, c]),
            (expr._add, tree_ref_add, [a, expr._mul([q, b]), c, expr._mul([MINUS_ONE, a])]),
            (expr._add, tree_ref_add, [q, expr._mul([q, a]), expr._mul([a, b])]),
            (expr._mul, tree_ref_mul, [a, Pow(b, 2), Pow(c, 3)]),
            (expr._mul, tree_ref_mul, [Pow(b, 2), b]),
            (expr._mul, tree_ref_mul, [Var(2), Pow(Pow(a, 2), 3), a]),
        ]
        # twice: once as the operands fill their hashes and keys, once after
        for _ in range(2):
            for fold, reference, args in cases:
                assert _kernel_outcome(fold, args) == _kernel_outcome(reference, args)
            for k in (-2, -1, 2, 3):
                assert _kernel_outcome(expr._pow, a, k) == _kernel_outcome(tree_ref_pow, a, k)

    @pytest.mark.parametrize("src", [
        # leading coefficient negative
        "(-2*x1 + 4*x2)*x3",
        "(-x1/3 + x2/6)^2*(x1 - x2)",
        "(-3 + 6*x1)^-1*(1 - 2*x1)",
        "-(x1 - 2*x2)*(3*x2 - 6*x1)",
        # like terms that collect to zero
        "x1*sin(x2) - sin(x2)*x1 + 3",
        "2*(x1 + x2) - 2*x1 - 2*x2",
        "(x1 + 1)^2 - (1 + x1)^2 + x3",
        "x1/3 + x1/6 - x1/2 + x2",
        # powers of sums that have a content
        "(2*x1 + 4*x2)^3",
        "(x1/2 + x2/4)^-2*(x1 + 2*x2)",
        "(2*x1 + 2)^2*(3*x1 + 3)^-1",
        "(6*x1 - 4)^2*x2 + (6*x1 - 4)^2*x2",
        # constants near the digit limit
        "(x1-x1)*1/7^5000*1/7^5000",
        "1/7^5000*1/7^5000*(x1-x1)",
        "x1/7^3000 + x1/11^3000",
        "5*10^4299*x1 + 5*10^4299*x1",
        "-(x1/3^3000 + x2/7^3000 + x3/11^3000)",
        "(x1/3^3000 + x2/7^3000)*x3",
        "(x1/3^3000 + x2/7^3000 + x3/11^3000)*x3",
        "(x1/3^3000 + x2/7^3000)^2*x3",
        "x1^(10^4299)*x1^(9*10^4299)*x2",
    ])
    def test_parses_agree_with_the_reference(self, src, monkeypatch):
        ours = _parse_outcome(src, 3)
        monkeypatch.setattr(parser, "esum", lambda terms: tree_ref_add(list(terms)))
        monkeypatch.setattr(parser, "eprod", lambda factors: tree_ref_mul(list(factors)))
        monkeypatch.setattr(parser, "_pow", tree_ref_pow)
        assert ours == _parse_outcome(src, 3)

    def test_constants_agree_under_the_lowest_digit_limit(self, monkeypatch):
        # 640 digits is the lowest limit Python allows: 2^1990 has 600
        # digits and passes it, its square has 1199 and is refused
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            big = Const(Fraction(2**1990))
            refused = ("DomainError", "product of constants too large to represent")
            assert _kernel_outcome(expr._mul, [big, big]) == refused
            for args in ([big, big], [MINUS_ONE, big], [big, Const(Fraction(1, 2**1990))],
                         [big, big, Var(1)], [big, Var(1)]):
                assert _kernel_outcome(expr._mul, args) == _kernel_outcome(tree_ref_mul, args)
            texts = ["2^1990*2^1990", "x1*2^1990*2^1990", "-(2^1990*2^1990)",
                     "2^1990*2^1990*x1", "-2^1990*2^1990", "2^1990*2^-1990"]
            ours = [_parse_outcome(src, 1) for src in texts]
            monkeypatch.setattr(parser, "esum", lambda terms: tree_ref_add(list(terms)))
            monkeypatch.setattr(parser, "eprod", lambda factors: tree_ref_mul(list(factors)))
            monkeypatch.setattr(parser, "_pow", tree_ref_pow)
            assert ours == [_parse_outcome(src, 1) for src in texts]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("product", [
        # normalized: with a rational head and without, holding a sum or
        # a power of a sum, and with a head near the digit limit
        parse_expr("3/2*x1*sin(x2)", 2),
        parse_expr("x1*sin(x2)", 2),
        parse_expr("-2/3*x1*(x1 + x2)", 2),
        parse_expr("x1*(x1 - 2*x2)^2", 2),
        parse_expr("5*sin(x1)*(x1 + x2)^-1", 2),
        parse_expr("(x1 + x2)^2*(x1 - x2)^-3", 2),
        parse_expr("10^4000/3*x1*x2", 2),
        parse_expr("3*x1*sin(x2)^2*(x1 + x2)^-1", 2),
        # a raw power of a rational leaves a second rational
        expr._mul([Var(1), Var(2), Pow(Const(Fraction(2)), 2), Const(Fraction(3))]),
        # hand-built, as Expr's operators can pass them
        Prod((Const(Fraction(2)), Sum((Var(1), Var(2))))),
        Prod((Var(2), Var(1))),
    ], ids=["head", "no-head", "sum", "power-of-sum", "inverse-sum", "two-sums", "large-head",
            "powers", "two-rationals", "hand-built-sum", "hand-built-unsorted"])
    def test_a_rational_times_a_product_agrees_with_the_reference(self, product):
        head = product.factors[0].value if isinstance(product.factors[0], Const) else Fraction(1)
        # the last one takes the product with the head past the digit
        # limit where the head is near it
        rationals = (0, 1, -1, Fraction(-2, 7), 1 / head, Fraction(10**400, 7))
        for _ in range(2):
            for q in rationals:
                args = [Const(Fraction(q)), product]
                assert _kernel_outcome(expr._mul, args) == _kernel_outcome(tree_ref_mul, args)

    @pytest.mark.parametrize("a, b", [
        # hand-built sums whose primitive part is not a sum: the terms
        # cancel to a rational, collect to one product, or are one rational
        (Var(1), Sum((Prod((Const(Fraction(2)), Var(1))), Prod((Const(Fraction(-2)), Var(1)))))),
        (Var(2), Sum((Prod((Const(Fraction(2)), Var(1))),))),
        (Var(2), Sum((Const(Fraction(3)),))),
    ], ids=["cancel", "one-product", "one-rational"])
    def test_a_sum_whose_primitive_part_is_no_sum_agrees_with_the_reference(self, a, b):
        assert a * b == tree_ref_mul([a, b])
        assert normalize(a * b) == normalize(Prod((a, b)))

    @pytest.mark.parametrize("factors", [
        # powers that meet no other factor, one that merges with its base,
        # a power of a sum with a content, and raw powers of a rational and
        # of a power, which leave a second rational and a repeated base
        [parse_expr("x1*exp(x2)", 2), parse_expr("sin(x2)^2", 2), parse_expr("(x1 + x2)^3", 2)],
        [parse_expr("sin(x2)^2", 2), parse_expr("sin(x2)", 2)],
        [Var(1), Pow(parse_expr("2*x1 + 2*x2", 2), 2)],
        [Var(1), Var(2), Pow(Const(Fraction(2)), 2), Const(Fraction(3))],
        [Var(2), Pow(Pow(Var(1), 2), 3), Var(1)],
    ], ids=["lone-powers", "merged", "sum-with-content", "raw-rational", "raw-power"])
    def test_products_of_powers_agree_with_the_reference(self, factors):
        assert _kernel_outcome(expr._mul, factors) == _kernel_outcome(tree_ref_mul, factors)

    def test_a_term_kept_whole_is_still_checked(self):
        # no kernel makes this term, but one given to _add is refused as
        # rebuilding it, coefficient first, refused it
        big = Prod((Const(Fraction(10**4300)), Var(1)))
        refused = ("DomainError", "product of constants too large to represent")
        assert _kernel_outcome(expr._add, [big, Var(2)]) == refused
        assert _kernel_outcome(tree_ref_add, [big, Var(2)]) == refused


class TestEqualSampled:
    def test_double_angle_identity(self):
        a = parse_expr("2*cos(2*x1)", 1)
        b = parse_expr("2*cos(x1)^2 - 2*sin(x1)^2", 1)
        assert equal_sampled(a, b, PLAN)

    def test_distinct_variables_differ(self):
        assert not equal_sampled(Var(1), Var(2), PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_normalize_preserves_value(self, seed):
        rng = random.Random(seed)
        raw = random_raw_expr(
            rng, funcs=("sin", "cos", "exp", "sinh", "cosh", "tanh"),
            allow_negative_pow=False,
        )
        assert equal_sampled(raw, normalize(raw), PLAN)

    def test_deterministic_given_seed(self):
        a = random_normal_expr(random.Random(7))
        plan = SamplePlan(seed=123)
        try:
            d1 = sampled_deviation(a, ZERO, plan)
            d2 = sampled_deviation(a, ZERO, plan)
        except SamplingExhausted:
            pytest.skip("degenerate sample expression")
        assert d1 == d2

    def test_sampling_exhausted(self):
        bad = Func("ln", const(-2))
        with pytest.raises(SamplingExhausted):
            equal_sampled(bad, ZERO, PLAN)

    def test_resamples_through_partial_singularities(self):
        # ln(x1) fails on half the domain; retries must cope
        assert equal_sampled(Func("ln", Func("exp", Var(1))), Var(1), PLAN)


class TestOracleParity:
    """All points at once give the floats of the point-by-point loop."""

    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from([1, 2, 7, 32]))
    def test_random_trees(self, seed, points):
        rng = random.Random(seed)
        with_time = seed % 2 == 0
        a = random_raw_expr(rng, allow_time=with_time)
        b = random_raw_expr(rng, allow_time=with_time)
        plan = SamplePlan(seed=seed, points_per_check=points)
        pairs = [(a, b), (a, ZERO)]
        try:
            pairs.append((a, normalize(a)))
        except DomainError:
            pass  # a folds a zero to a negative power
        for x, y in pairs:
            want = _outcome(_reference_deviation, x, y, plan)
            assert _outcome(sampled_deviation, x, y, plan) == want

    @pytest.mark.parametrize("seed", [0, 1, 42])
    @pytest.mark.parametrize("points", [1, 7, 32])
    @pytest.mark.parametrize("a,b,want", [
        (Func("ln", Var(1)), Var(1), None),           # redraws half the points
        (Func("ln", const(-2)), ZERO, "exhausted"),   # every draw fails
        # sin(inf) for x1 above about 0.5: the product overflows without raising
        (parse_expr("sin(exp(700*x1)*exp(699*x1))", 1), ZERO, None),
        (parse_expr("10^400*sin(x1)", 1), ZERO, "exhausted"),  # no float for the constant
        # both sides overflow to inf without raising: no point compares them
        (parse_expr("exp(400)*exp(401)*x1", 1), parse_expr("2*exp(400)*exp(401)*x1", 1),
         "exhausted"),
    ])
    def test_partial_and_empty_domains(self, seed, points, a, b, want):
        plan = SamplePlan(seed=seed, points_per_check=points)
        got = _outcome(sampled_deviation, a, b, plan)
        assert got == _outcome(_reference_deviation, a, b, plan)
        assert want is None or got == want

    def test_each_distinct_subtree_is_evaluated_once_per_point(self, monkeypatch):
        calls, draws = [], []
        original_draws = expr._draws

        def counting_sin(x):
            calls.append(x)
            return math.sin(x)

        def counting_draws(*args):
            for point in original_draws(*args):
                draws.append(point)
                yield point

        monkeypatch.setitem(expr._MATH, "sin", counting_sin)
        monkeypatch.setattr(expr, "_draws", counting_draws)
        text = " + ".join(f"{k}*sin(x1)^{k}*cos(sin(x1 + x2) - x2)" for k in range(1, 30))
        plan = SamplePlan(points_per_check=16)
        # ln(x1) fails at about half the draws
        for suffix, defined in (("", lambda x1: True), (" + ln(x1)", lambda x1: x1 > 0)):
            calls.clear()
            draws.clear()
            a, b = parse_expr(text + suffix, 2), parse_expr(text + suffix, 2)  # equal, not shared
            assert a == b and a is not b
            assert sampled_deviation(a, b, plan) == 0.0
            # every draw at which both sides are defined is kept: none is thrown away
            assert sum(defined(x[0]) for x, _ in draws) == plan.points_per_check
            distinct_sin_subtrees = 2  # sin(x1) and sin(x1 + x2)
            assert 0 < len(calls) <= len(draws) * distinct_sin_subtrees

    def test_structure_is_walked_once_per_distinct_subtree(self, monkeypatch):
        calls = []
        original = expr._variables

        def counting(e, memo):
            calls.append(e)
            return original(e, memo)

        monkeypatch.setattr(expr, "_variables", counting)
        shared = Var(2)
        for _ in range(12):
            shared = Func("sin", Sum((shared, Prod((Var(1), shared)))))
        walks = {}
        for k in (1, 4, 16):
            calls.clear()
            sampled_deviation(Sum((Var(0),) + (shared,) * k), Sum((shared,) * k), PLAN)
            walks[k] = len(calls)
        # each further copy costs one memo hit, not a walk of 2^12 copies
        assert walks[4] - walks[1] == 2 * 3 and walks[16] - walks[1] == 2 * 15
        assert walks[1] < 100


class TestSamplePlan:
    @pytest.mark.parametrize("kwargs", [
        {"points_per_check": 0},
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
        {"tolerance": math.inf},
        {"tolerance": 1.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SamplePlan(**kwargs)


class TestOperators:
    def test_python_operators_build_normalized_trees(self):
        x = var(1)
        assert 2 * x - x == x
        assert (x + 1) - 1 == x
        assert x / 2 == Prod((const(Fraction(1, 2)), x))
        assert x ** 2 / x == x
        with pytest.raises(TypeError):
            x ** 0.5

    @pytest.mark.parametrize("exponent", [True, False])
    def test_bool_exponents_are_refused(self, exponent):
        # as Pow and the other operators refuse bool
        with pytest.raises(TypeError, match="exponents must be Python ints"):
            var(1) ** exponent
        with pytest.raises(TypeError, match="power exponent must be a Python int"):
            Pow(var(1), exponent)
        with pytest.raises(TypeError, match="cannot use bool as an expression"):
            var(1) * exponent


X1 = Var(1)
# what each function's helper gives at 0: the exact special values fold
AT_ZERO = {"sin": ZERO, "cos": ONE, "exp": ONE, "ln": Func("ln", ZERO),
           "sinh": ZERO, "cosh": ONE, "tanh": ZERO}


class TestRarePaths:
    """Statements that no other test runs: the operators and helpers
    written for callers outside the package, and the guards against
    values that are not trees."""

    @pytest.mark.parametrize("call,want", [
        (lambda: 1 - X1, Sum((ONE, Prod((MINUS_ONE, X1))))),
        (lambda: -X1, Prod((MINUS_ONE, X1))),
        (lambda: 1 / X1, Pow(X1, -1)),
        (lambda: type(Const(3).value), Fraction),
        (lambda: repr(Poly({0: 1}, 2)), "Poly({0: 1}, 2)"),
        *[(lambda name=name: getattr(expr, name)(X1), Func(name, X1)) for name in AT_ZERO],
        *[(lambda name=name: getattr(expr, name)(0), value) for name, value in AT_ZERO.items()],
    ])
    def test_result(self, call, want):
        assert call() == want

    @pytest.mark.parametrize("call,error,message", [
        (lambda: Const(0.5), TypeError, "floats are not allowed in the symbolic layer"),
        (lambda: Var(-1), ValueError, "variable index must be nonnegative"),
        (lambda: Pow(X1, 0.5), TypeError, "power exponent must be a Python int"),
        (lambda: Func("sec", X1), ValueError, "unsupported function 'sec'"),
        (lambda: expr.as_expr("x"), TypeError, "cannot use str as an expression"),
        (lambda: normalize("x1"), TypeError, "not an expression: 'x1'"),
        (lambda: evaluate("x1", (0.5,)), TypeError, "not an expression: 'x1'"),
        (lambda: print_expr("x1"), TypeError, "not an expression: 'x1'"),
        (lambda: Ring().from_tree("x1"), TypeError, "not an expression: 'x1'"),
        # a rational times a sum's content: _mul refuses the product
        (lambda: parse_expr("2^14000*x1*(2^14000*x2 + 2^14000*x3)", 3), ParseError,
         "product of constants too large to represent at offset 11"),
    ])
    def test_error(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message
