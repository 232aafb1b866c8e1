"""Sparse distributed polynomials: ring laws, tree conversions,
derivatives, and both engines against values built on trees."""

import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    HEAVY_2X2,
    PLAN,
    PROBLEM_DIR,
    apply_by_differentiate,
    random_normal_expr,
    random_problem,
    random_raw_expr,
    ref_diff,
    ref_engines,
    ref_fmt,
    ref_iadd,
    ref_mul,
    ref_of,
    ref_scale,
    ref_to_tree,
    ref_tree,
    tree_forcing,
    tree_ref_diff,
    tree_ref_outer,
    tuple_engines,
    TupleRing,
    _tuple_unit,
)
from pdeseries import expr, poly
from pdeseries.cli import main
from pdeseries.errors import DomainError, SamplingExhausted
from pdeseries.expr import (
    FUNCTIONS,
    ZERO,
    Const,
    Func,
    Pow,
    Prod,
    Sum,
    Var,
    eprod,
    esum,
    normalize,
    sampled_deviation,
)
from pdeseries.hpm import HpmExpansion, hpm_rows, partial_sum, solve_hpm
from pdeseries.parser import (
    load_problem, parse_expr, parse_problem, print_expr, print_polys,
)
from pdeseries.poly import ONE, Ring, add, mul, scale, sub
from pdeseries.series import (
    OperatorTerm,
    SpatialOperator,
    TimeSeriesVec,
    apply_rows,
    forcing_rows,
)
from pdeseries.taylor import taylor_coefficients, taylor_rows
from pdeseries.verify import equivalence_check

SEEDS = st.integers(min_value=0, max_value=10**6)
# the bundled problems and the benchmark's
_PROBLEM_FILES = sorted(PROBLEM_DIR.glob("*.prob")) + sorted(
    (PROBLEM_DIR.parent / "benchmarks" / "problems").glob("*.prob"))

def _random_polys(seed: int, count: int):
    """``count`` polynomials of one ring, with functions, ln and
    negative powers of sums."""
    rng = random.Random(seed)
    ring = Ring()
    out = []
    for _ in range(count):
        try:
            out.append(ring.from_tree(random_normal_expr(rng, depth=3, n_vars=2)))
        except DomainError:
            assume(False)
    return ring, out


def _close(a, b) -> bool:
    try:
        return sampled_deviation(a, b, PLAN) <= PLAN.tolerance
    except SamplingExhausted:
        return True  # ln of a negative value at every point drawn, both sides


class TestRingLaws:
    @given(SEEDS)
    def test_addition(self, seed):
        _, (a, b, c) = _random_polys(seed, 3)
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, poly.ZERO) == a and sub(a, a) == poly.ZERO
        assert sub(add(a, b), b) == a

    @given(SEEDS)
    def test_multiplication(self, seed):
        _, (a, b, c) = _random_polys(seed, 3)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, ONE) == a and mul(a, poly.ZERO) == poly.ZERO

    @given(SEEDS)
    def test_scaling(self, seed):
        _, (a,) = _random_polys(seed, 1)
        q, r = Fraction(-3, 7), Fraction(5, 2)
        assert scale(scale(a, q), r) == scale(a, q * r)
        assert scale(a, 0) == poly.ZERO and scale(a, 1) == a
        assert mul(a, poly.const(q)) == scale(a, q)

    def test_negative_exponents_cancel_to_a_canonical_key(self):
        ring = Ring()
        x = ring.from_tree(Var(1))
        inverse = ring.from_tree(Pow(Var(1), -1))
        assert mul(x, inverse) == ONE and list(map(ring.exponents, mul(x, inverse).num)) == [()]
        s = ring.from_tree(parse_expr("1 + x1", 1))
        s_inv = ring.from_tree(parse_expr("(2 + 2*x1)^(-1)", 1))
        assert mul(s_inv, s_inv) == scale(ring.power(s, -2), Fraction(1, 4))
        assert mul(s_inv, s_inv) == ring.from_tree(parse_expr("1/4*(1 + x1)^(-2)", 1))


def _sum_of_parts(pairs, start) -> tuple[dict, int, int]:
    """``start`` plus each product built on its own (``mul``, or ``scale``
    for a weight), summed over Fractions per monomial: the ``num``, ``den``
    and ``top`` that ``dot`` must give."""
    parts = [start] + [mul(a, b) if isinstance(a, poly.Poly) else scale(b, a) for a, b in pairs]
    total: dict = {}
    for p in parts:
        for m, c in p.num.items():
            total[m] = total.get(m, 0) + Fraction(c, p.den)
    total = {m: c for m, c in total.items() if c}
    den = math.lcm(*(c.denominator for c in total.values()))
    return {m: int(c * den) for m, c in total.items()}, den, max((p.top for p in parts if p.num), default=0)


_WEIGHTS = (Fraction(-3, 7), 0, 1, -1, Fraction(5, 2), 2, Fraction(1, 6))


class TestDot:
    """``dot`` against its parts built one by one."""

    @staticmethod
    def _check(ring, pairs, start=poly.ZERO):
        got = _normal(ring, poly.dot(pairs, start))
        assert (got.num, got.den, got.top) == _sum_of_parts(pairs, start)
        return got

    @given(SEEDS)
    def test_products_weights_and_a_start_with_mixed_denominators(self, seed):
        ring, polys = _random_polys(seed, 4)
        rng = random.Random(seed)
        # mixed denominators: each polynomial over its own rational
        polys = [scale(p, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))) for p in polys]
        pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(rng.randint(1, 4))]
        pairs += [(rng.choice(_WEIGHTS), rng.choice(polys)) for _ in range(rng.randint(1, 4))]
        rng.shuffle(pairs)
        for start in (poly.ZERO, polys[0]):
            self._check(ring, pairs, start)
            self._check(ring, [pq for pq in pairs if isinstance(pq[0], poly.Poly)], start)
            self._check(ring, [pq for pq in pairs if not isinstance(pq[0], poly.Poly)], start)

    @given(SEEDS)
    def test_each_weight_alone_is_scale(self, seed):
        ring, (a,) = _random_polys(seed, 1)
        for q in _WEIGHTS:
            assert self._check(ring, [(q, a)]) == scale(a, q)
        assert poly.dot([(1, a)]) is a

    @given(SEEDS)
    def test_products_that_cancel_give_zero_with_their_top(self, seed):
        ring, (a, b, c) = _random_polys(seed, 3)
        assume(a and b)
        for start in (poly.ZERO, c):
            got = self._check(ring, [(a, b), (scale(b, Fraction(-2, 3)), scale(a, Fraction(3, 2)))], start)
            assert got == start and got.top == max(a.top + b.top, c.top if start else 0)
        got = self._check(ring, [(a, b), (-1, mul(a, b))])
        assert (got.num, got.den) == ({}, 1)

    @given(SEEDS)
    def test_empty_single_and_start_only(self, seed):
        ring, (a, b) = _random_polys(seed, 2)
        assert poly.dot([]) is poly.ZERO and poly.dot([], a) is (a if a else poly.ZERO)
        assert poly.dot([(0, a), (poly.ZERO, b), (b, poly.ZERO)], a) is (a if a else poly.ZERO)
        assert self._check(ring, [(a, b)]) == mul(a, b)
        assert self._check(ring, [], a) == a


def _normal(ring, p):
    """``p`` in normal form: int numerators over a positive int
    denominator coprime to them, keys that decode to vectors within the
    fields and within ``top``, zero as no terms over 1."""
    assert isinstance(p, poly.Poly) and type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    for m in p.num:
        e = ring.exponents(m)
        assert not e or e[-1]
        assert max(map(abs, e), default=0) <= p.top < ring.half
    assert math.gcd(p.den, *p.num.values()) == 1
    return p


_MIXED_ATOMS = ("x1", "x2", "sin(x1)", "exp(x2)", "cosh(x1*x2)", "sin(x1/3)", "exp(x2/2)",
                "(x1/3 + x2)^(-1)", "(sin(x1/3) + x2)^(-1)", "tanh(x1*x2)", "ln(1 + x1^2 + x1*x2)")


class TestAgainstReference:
    """The kernel against the Fraction-dict reference in conftest."""

    @given(SEEDS, st.sampled_from((1, 2)))
    def test_kernel_equals_the_reference(self, seed, v):
        ring, (a, b, c) = _random_polys(seed, 3)
        ra, rb, rc = (ref_of(ring, x) for x in (a, b, c))
        product = _normal(ring, mul(a, b))
        assert ref_of(ring, product) == ref_mul(ra, rb)
        # (a + b)(a - b): the cross terms cancel inside the product
        assert ref_of(ring, _normal(ring, mul(add(a, b), sub(a, b)))) == ref_mul(
            ref_of(ring, add(a, b)), ref_of(ring, sub(a, b)))
        total = {}
        for r in (ra, rb, rc, ref_scale(ra, -1)):
            ref_iadd(total, r)
        assert ref_of(ring, _normal(ring, add(a, b, c, scale(a, -1)))) == total
        assert _normal(ring, add(a, scale(a, -1))) == poly.ZERO and poly.ZERO.den == 1
        for q in (Fraction(-3, 7), Fraction(6), Fraction(5, 2), 0):
            assert ref_of(ring, _normal(ring, scale(product, q))) == ref_scale(ref_mul(ra, rb), q)
        for p in (a, product):
            assert ref_of(ring, _normal(ring, ring.diff(p, v))) == ref_diff(ring, ref_of(ring, p), v)

    @given(SEEDS, st.sampled_from((1, 2)))
    def test_one_diff_meets_every_kind_of_atom_derivative(self, seed, v):
        # atoms whose D_v is one term (x1, sin, exp, cosh), one term over
        # a denominator (sin(x1/3), exp(x2/2), a sum atom of sin(x1/3)),
        # or several terms (tanh, ln of a sum), in the terms of one p
        rng = random.Random(seed)
        ring = Ring()
        atoms = [ring.from_tree(parse_expr(text, 2)) for text in _MIXED_ATOMS]
        terms = []
        for _ in range(rng.randint(1, 5)):
            term = poly.const(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)))
            for a in rng.sample(atoms, rng.randint(1, 4)):
                term = mul(term, ring.power(a, rng.choice((-2, -1, 1, 2, 3))))
            terms.append(term)
        p = add(*terms)
        d = _normal(ring, ring.diff(p, v))
        tuples = TupleRing(ring)
        assert tuples.of(d) == tuples.diff(tuples.of(p), v)
        assert ref_of(ring, d) == ref_diff(ring, ref_of(ring, p), v)

    def test_engines_equal_the_reference_trees(self):
        problems = [(seed, *random_problem(seed)) for seed in range(2000, 2030)]
        for path in _PROBLEM_FILES:
            p = load_problem(str(path))
            problems.append((path.name, p, (p.order - 1) // 2))
        for case, p, corrections in problems:
            direct, hpm = ref_engines(p, corrections)
            ring = p.ring
            got = [taylor_rows(p), *hpm_rows(p, corrections, p.order)]
            for rows, want in zip(got, [direct, *hpm]):
                for row, ref_row in zip(rows, want, strict=True):
                    for c, r in zip(row, ref_row, strict=True):
                        assert _built_as_first_written(ring, _normal(ring, c)) == ref_tree(ring, r), case

    def test_engines_equal_the_tuple_kernel(self):
        # every row of both engines, its keys decoded, against the same
        # recursion over the kernel with exponent tuples
        problems = [(seed, *random_problem(seed)) for seed in range(4000, 4030)]
        for path in _PROBLEM_FILES:
            p = load_problem(str(path))
            problems.append((path.name, p, (p.order - 1) // 2))
        for case, p, corrections in problems:
            ring = p.ring
            direct, hpm = tuple_engines(p, corrections)
            got = [taylor_rows(p), *hpm_rows(p, corrections, p.order)]
            for rows, want in zip(got, [direct, *hpm], strict=True):
                for row, tuple_row in zip(rows, want, strict=True):
                    for c, t in zip(row, tuple_row, strict=True):
                        decoded = {ring.exponents(m): n for m, n in _normal(ring, c).num.items()}
                        assert (decoded, c.den) == (t.num, t.den), case

    @pytest.mark.parametrize("path", _PROBLEM_FILES, ids=lambda p: p.name)
    def test_problem_rows_are_built_as_first_written(self, path):
        p = load_problem(str(path))
        ring = p.ring
        for rows in (forcing_rows(p, p.order), taylor_rows(p)):
            for row in rows:
                for c in row:
                    _built_as_first_written(ring, c)

    def test_sum_atoms_and_constants_are_built_as_first_written(self):
        ring = Ring()
        x1 = ring.from_tree(Var(1))
        big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
        powers = [ring.from_tree(parse_expr(text, 2)) for text in
                  ("(1 + x1)^(-2)", "(2*x1 - x2)^(-1)*x2^(-3)", "(x1 + x2)^99999999")]
        # (x1 + x2)^99999999 * (x1 + x2)^-99999998: the sum atom to the power 1
        first = mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))
        assert list(map(ring.exponents, first.num)) == [(0, 0, 1)]
        polys = [poly.ZERO, ONE, poly.const(Fraction(-5, 7)), first]
        for q in (Fraction(-1), Fraction(3), Fraction(-5, 7), Fraction(1, 2)):
            polys += [scale(first, q), add(scale(first, q), x1, poly.const(q))]
            for s in powers:
                polys += [scale(s, q), add(scale(s, q), s, x1, poly.const(q))]
        for p in polys:
            _built_as_first_written(ring, p)

    def test_a_sum_atom_next_to_other_terms_is_flattened(self):
        # the one place the first builder left a tree normalize changes
        ring = Ring()
        big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
        s = mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))
        p = add(s, ring.from_tree(Var(3)))
        tree = ring.to_tree(p)
        assert tree == normalize(ref_to_tree(ring, p)) == parse_expr("x1 + x2 + x3", 3)
        assert ref_to_tree(ring, p) != tree
        assert print_polys(ring, [p])[0] == print_expr(tree) == "x1 + x2 + x3"


def _built_as_first_written(ring, p):
    """``ring.to_tree(p)``, checked against the builder as first written:
    the same tree, printed to the same bytes."""
    tree, first = ring.to_tree(p), ref_to_tree(ring, p)
    assert tree == first and print_expr(tree) == print_expr(first)
    return tree


class TestConversions:
    @given(SEEDS)
    def test_to_tree_then_from_tree_is_the_identity(self, seed):
        ring, polys = _random_polys(seed, 2)
        for p in (*polys, mul(*polys)):
            tree = ring.to_tree(p)
            ring.known.clear()
            assert ring.from_tree(tree) == p
            assert normalize(tree) == tree
            assert tree == esum(
                eprod([Const(Fraction(c, p.den)),
                       *(Pow(ring.trees[i], e) for i, e in enumerate(ring.exponents(m)) if e)])
                for m, c in p.num.items()
            )

    @given(SEEDS)
    def test_from_tree_then_to_tree_keeps_the_value(self, seed):
        e = random_raw_expr(random.Random(seed), depth=3, n_vars=2, allow_time=True)
        ring = Ring()
        try:
            want = normalize(e)
        except DomainError:
            with pytest.raises(DomainError):
                ring.from_tree(e)
            return
        assert _close(ring.to_tree(ring.from_tree(e)), want)

    def test_zero_to_a_negative_power_is_refused(self):
        # the tree form keeps x1*(1 + x1) - x1 - x1^2 whole; the sum is zero
        e = parse_expr("(x1*(1 + x1) - x1 - x1^2)^(-1)", 1)
        with pytest.raises(DomainError):
            Ring().from_tree(e)

    def test_large_powers_of_sums_stay_one_atom(self):
        ring = Ring()
        p = ring.from_tree(parse_expr("(1 + x1)^99999999", 1))
        assert len(p) == 1 and len(ring.from_tree(parse_expr("(1 + x1)^3", 1))) == 4
        d = ring.diff(p, 1)
        assert ring.to_tree(d) == parse_expr("99999999*(1 + x1)^99999998", 1)

    def test_first_power_is_the_polynomial_itself(self):
        ring = Ring()
        # more terms than EXPAND_LIMIT: a power other than 1 is a sum atom
        p = ring.from_tree(parse_expr(" + ".join(f"x1^{k}" for k in range(1, 1002)), 1))
        assert len(p) == 1001 and ring.power(p, 1) is p
        inverse = ring.power(p, -1)
        assert len(inverse) == 1 and ring.power(inverse, -1) == p
        assert ring.power(scale(inverse, Fraction(3, 2)), -1) == scale(p, Fraction(2, 3))

    def test_a_rational_past_the_digit_limit_is_refused(self):
        ring = Ring()
        p = scale(ring.from_tree(Var(1)), 7 ** 900)  # 761 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(DomainError):
                ring.to_tree(p)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text,k", [
        ("7^500*x1", 99999),  # one term: its rational to the power
        ("7^500*x1 + 7^500*x1^2", -99999),  # a sum atom: its content to the power
    ])
    def test_a_power_of_a_large_constant_is_refused(self, text, k):
        ring = Ring()
        with pytest.raises(DomainError) as err:
            ring.power(ring.from_tree(parse_expr(text, 1)), k)
        assert str(err.value) == "power of a constant too large to represent"

    def test_positive_powers_of_sums_are_multiplied_out(self):
        # (x1 * (1 + x1)^-1)^-2 = x1^-2 * (1 + x1)^2, with the square expanded
        ring = Ring()
        s_inv = Pow(Sum((Const(Fraction(1)), Var(1))), -1)
        raw = Pow(Prod((Var(1), s_inv)), -2)
        assert ring.from_tree(raw) == ring.from_tree(normalize(raw))
        assert ring.to_tree(ring.from_tree(raw)) == parse_expr("1 + 2*x1^(-1) + x1^(-2)", 1)

    def test_a_sum_atom_to_the_first_power_is_equal_in_value_only(self):
        # the normal form is not unique here: == tells the two apart, and
        # only the sampled deviation sees that they agree
        ring = Ring()
        first = mul(ring.from_tree(parse_expr("(x1 + x2)^99999999", 2)),
                    ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))
        expanded = ring.from_tree(parse_expr("x1 + x2", 2))
        assert list(map(ring.exponents, first.num)) == [(0, 0, 1)]
        assert list(map(ring.exponents, expanded.num)) == [(1,), (0, 1)]
        assert first != expanded and len(sub(first, expanded)) == 3
        assert ring.deviation(first, expanded, PLAN) == 0.0

    def test_special_values_fold(self):
        ring = Ring()
        assert ring.from_tree(parse_expr("sin(x1 - x1) + cos(0) + ln(1)", 1)) == ONE
        e = parse_expr("sin(x1*(1 + x1) - x1 - x1^2)", 1)
        assert ring.from_tree(e) == poly.ZERO


# atoms print_polys must place and spell: sums at negative powers and
# at powers too large to expand, functions of sums, bare constants
PRINTER_ATOMS = ("(1 + x1)^(-2)", "(2*x1 - x2)^(-1)*x2^(-3)", "(x1 + x2)^99999999",
                 "sin(1 + x1)", "cosh(x2 - 1/3*x1)^2*exp(x1)", "-5/7", "0")


def _printer_polys(seed: int) -> tuple[Ring, list]:
    """Polynomials of one ring built from ``PRINTER_ATOMS``, random
    expressions and a sum atom to the first power, times rationals."""
    rng = random.Random(seed)
    ring, pool = _random_polys(seed, 2)
    pool += [ring.from_tree(parse_expr(text, 2)) for text in PRINTER_ATOMS]
    big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
    # (x1 + x2)^99999999 * (x1 + x2)^-99999998: the sum atom to the power 1
    pool.append(mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2))))
    out = []
    for _ in range(4):
        parts = [scale(mul(rng.choice(pool), rng.choice(pool)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 4))]
        out.append(add(*parts))
    return ring, pool + out


class TestPrinter:
    @given(SEEDS)
    def test_prints_the_bytes_of_the_tree(self, seed):
        ring, polys = _printer_polys(seed)
        for p in polys:
            assert print_polys(ring, [p])[0] == print_expr(ring.to_tree(p))

    def test_a_rational_times_a_sum_atom_is_printed_from_its_tree(self):
        ring = Ring()
        big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
        s = mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))
        assert list(map(ring.exponents, s.num)) == [(0, 0, 1)]  # the atom x1 + x2, to the power 1
        p = add(scale(s, 3), ring.from_tree(Var(1)))
        # eprod spreads 3 over the sum, and the x1 terms collect
        assert print_polys(ring, [p])[0] == print_expr(ring.to_tree(p)) == "4*x1 + 3*x2"
        assert print_polys(ring, [s])[0] == "x1 + x2"
        assert print_polys(ring, [poly.ZERO])[0] == "0"

    def test_engine_rows_print_as_first_written(self):
        for seed in range(3000, 3020):
            p, corrections = random_problem(seed)
            ring = p.ring
            for rows in (taylor_rows(p), *hpm_rows(p, corrections, p.order)):
                for row in rows:
                    for c in row:
                        assert print_polys(ring, [c])[0] == ref_fmt(ring.to_tree(c)), seed

    def test_a_rational_past_the_digit_limit_is_refused_as_by_to_tree(self):
        ring = Ring()
        x1 = ring.from_tree(Var(1))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for p in (scale(x1, 7 ** 900), scale(x1, Fraction(1, 7 ** 900)),
                      add(x1, poly.const(7 ** 900)), add(poly.const(1), scale(x1, -7 ** 900))):
                with pytest.raises(DomainError) as tree_error:
                    ring.to_tree(p)
                with pytest.raises(DomainError) as text_error:
                    print_polys(ring, [p])[0]
                assert str(text_error.value) == str(tree_error.value)
        finally:
            sys.set_int_max_str_digits(limit)


def _sum_atom(ring: Ring):
    """x1 + x2 as an atom of ``ring``, to the power 1."""
    big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
    return mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))


class TestBatchPrinter:
    @given(SEEDS, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_any_batch_prints_each_polynomial_as_its_tree(self, seed, rng):
        # rows of a random problem, and in its ring sum atoms at the
        # powers 1 and -1, alone, scaled and next to other terms, bare
        # constants and zero; batches cut at random from a shuffle
        p, corrections = random_problem(seed)
        ring = p.ring
        polys = [c for rows in (taylor_rows(p), *hpm_rows(p, corrections, p.order))
                 for row in rows for c in row]
        s, inverse = _sum_atom(ring), ring.from_tree(parse_expr("(x1 + 2*x2)^(-1)", 2))
        polys += [s, scale(s, Fraction(-2, 3)), add(s, polys[-1]), inverse, add(inverse, s),
                  scale(inverse, 5), poly.const(Fraction(-5, 7)), poly.const(4), poly.ZERO]
        rng.shuffle(polys)
        cuts = sorted(rng.sample(range(1, len(polys)), 3))
        for batch in (polys[i:j] for i, j in zip([0, *cuts], [*cuts, len(polys)])):
            assert print_polys(ring, batch) == [print_expr(ring.to_tree(q)) for q in batch]

    def test_a_batch_refuses_where_the_first_polynomial_alone_refuses(self):
        ring = Ring()
        x1, s = ring.from_tree(Var(1)), _sum_atom(ring)
        printable = [x1, poly.const(Fraction(3, 7)), add(x1, poly.const(2)), s, scale(s, 2)]
        past = [scale(x1, 7 ** 900), add(poly.const(1), scale(x1, -7 ** 900)),
                poly.const(Fraction(1, 7 ** 900)), add(scale(s, 7 ** 900), x1)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for seed in range(40):
                rng = random.Random(seed)
                polys = rng.sample(printable, 3) + rng.sample(past, 2)
                rng.shuffle(polys)
                alone = []
                for q in polys:
                    try:
                        alone.append(print_polys(ring, [q])[0])
                    except DomainError as exc:
                        message = str(exc)
                        break
                k = len(alone)
                assert print_polys(ring, polys[:k]) == alone
                for batch in (polys[:k + 1], polys):
                    with pytest.raises(DomainError) as batch_error:
                        print_polys(ring, batch)
                    assert str(batch_error.value) == message
        finally:
            sys.set_int_max_str_digits(limit)


def _sech2(ring: Ring, text: str):
    """1 - tanh(a)^2 and tanh(a), polynomials of ``ring``, a the text."""
    tanh = ring.from_tree(parse_expr(f"tanh({text})", 2))
    return sub(ONE, mul(tanh, tanh)), tanh


class TestFactored:
    @given(SEEDS, st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2))
    @settings(max_examples=60)
    def test_takes_out_the_powers_that_divide_and_keeps_the_value(self, seed, k1, k2, j):
        ring, (q,) = _random_polys(seed, 1)
        (s1, t1), (s2, t2) = _sech2(ring, "x1"), _sech2(ring, "x1 + 2*x2")
        q = add(q, ring.power(t1, j), mul(t2, ring.from_tree(Var(2))))
        p = ring.product([q, *[s1] * k1, *[s2] * k2])
        for s, t, k in ((s1, t1, k1), (s2, t2, k2)):
            i = ring.index[ring.to_tree(t)]
            r = p
            for _ in range(k):
                r = ring._over_sech2(r, i)
                assert r is not None
            assert ring.product([r, *[s] * k]) == p
        tree = ring.factored(p)
        if tree is not None:
            assert ring.from_tree(tree) == p
            assert print_polys(ring, [p], factored=True) == [print_expr(tree)]
        else:
            assert print_polys(ring, [p], factored=True) == [print_expr(ring.to_tree(p))]

    @pytest.mark.parametrize("text,printed", [
        # nothing taken out: one power of 1 - tanh^2 is no shorter
        ("1 - tanh(x1)^2", None),
        ("-tanh(x1) + tanh(x1)^3", None),
        ("-1/3 + 4/3*tanh(x1)^2 - tanh(x1)^4", None),
        ("1 + tanh(x1)^2 - tanh(x1)^4", None),  # not divided
        ("(1 - tanh(x1)^2)*(1 - tanh(x2)^2)", "(1 - tanh(x1)^2)*(1 - tanh(x2)^2)"),
        ("-1/2*(x1 + x2 + tanh(x1)^(-1))*(1 - tanh(x1)^2)^2",
         "-1/2*(1 - tanh(x1)^2)^2*(x1 + x2 + tanh(x1)^(-1))"),
        ("3*(1 - tanh(x2)^2)^3*(1 - tanh(x1)^2)*tanh(x1)",
         "3*tanh(x1)*(1 - tanh(x1)^2)*(1 - tanh(x2)^2)^3"),
    ])
    def test_prints_each_power_taken_out(self, text, printed):
        ring = Ring()
        p = ring.from_tree(parse_expr(text, 2))
        tree = ring.factored(p)
        assert (tree if tree is None else print_expr(tree)) == printed
        assert print_polys(ring, [p], factored=True) == [printed or print_expr(ring.to_tree(p))]
        assert tree is None or ring.from_tree(tree) == p


# exponents at and past the edge of a 64-bit field; as a problem, the
# case is u0 and its inverse power u1, so that one ring holds both
RANGE_CASES = ("x1^(2^40)", "x1^(2^62)*x1^(2^62)", "x1^(2^63)", "(1 + x1)^99999999",
               "x1^(10^2200)")
RANGE_COMMANDS = (("solve",), ("hpm", "--corrections", "1"), ("compare", "--corrections", "1"),
                  ("residual",))


def _raw(text: str):
    """The tree of ``text`` before normalizing: a product stays a product."""
    if "*" in text:
        return Prod(tuple(_raw(f) for f in text.split("*")))
    return parse_expr(text, 1)


def _taylor_text(u0, u1, order: int) -> list[str]:
    """u[j] of the wave equation u_tt = u_x1x1 from u0 and u1, on trees."""
    out, d = [], [normalize(u0), normalize(u1)]
    for j in range(order + 1):
        out.append(print_expr(eprod([Const(Fraction(1, math.factorial(j))), d[j % 2]])))
        if j % 2:
            d = [tree_ref_diff(tree_ref_diff(x, 1), 1) for x in d]
    return out


class TestExponentRange:
    def test_keys_decode_to_the_exponent_tuples(self):
        for ring in (Ring(), Ring(parse_expr("x1^(10^2200)", 1))):
            w, half = ring.width, ring.half
            for i, e in ((0, 1), (1, 1), (3, -7), (2, half - 1), (5, -half)):
                assert ring.exponents(e << w * i) == _tuple_unit(i, e)
            for vector in ((5, -3, 0, 7), (-half, half - 1), (half - 1, -half, -1), (0, 0, -1)):
                key = sum(e << w * i for i, e in enumerate(vector))
                assert ring.exponents(key) == vector

    @pytest.mark.parametrize("text", RANGE_CASES)
    def test_kernel_is_right_or_refuses(self, text):
        tree = _raw(text)
        for ring in (Ring(), Ring(tree)):
            try:
                p = ring.from_tree(tree)
                inverse = ring.power(p, -1)
                d = ring.diff(mul(p, mul(inverse, inverse)), 1)  # D p^-1
            except DomainError as exc:
                # only the 64-bit field, for an exponent of 2^63 or more
                assert str(exc) == "exponent too large to represent"
                assert ring.width == 64 and "2^40" not in text and "99999999" not in text
                continue
            assert mul(p, inverse) == ONE
            assert ring.to_tree(p) == normalize(tree)
            assert ring.to_tree(inverse) == normalize(Pow(tree, -1))
            assert ring.to_tree(d) == tree_ref_diff(normalize(Pow(tree, -1)), 1)
            assert all(max(map(abs, ring.exponents(m))) <= q.top < ring.half
                       for q in (p, inverse, d) for m in q.num)

    def test_a_power_past_the_field_is_refused(self):
        ring = Ring()
        p = ring.from_tree(parse_expr("x1^(2^40)", 1))
        assert ring.exponents(next(iter(ring.power(p, 2 ** 22).num))) == (2 ** 62,)
        for k in (2 ** 23, -(2 ** 23)):
            with pytest.raises(DomainError, match="exponent too large to represent"):
                ring.power(p, k)
        with pytest.raises(DomainError, match="exponent too large to represent"):
            ring.from_tree(parse_expr("(1 + x1)^(2^63)", 1))

    # one operator term whose product with D u reaches 2^63 on a 64-bit
    # field, alone and with a second term that cancels it term by term
    _PAST_THE_FIELD = ("x1^(2^62)", "-x1^(2^62)")

    @pytest.mark.parametrize("count", (1, 2))
    def test_an_operator_product_past_the_field_is_refused(self, count):
        ring = Ring()
        assert ring.width == 64
        op = SpatialOperator(1, 1, tuple(OperatorTerm(0, 0, parse_expr(c, 1), (1,))
                                         for c in self._PAST_THE_FIELD[:count]))
        u = ring.from_tree(parse_expr("x1^(2^62)", 1))
        with pytest.raises(DomainError) as err:
            apply_rows(ring, op, [u], [ONE])
        assert str(err.value) == "exponent too large to represent"

    @pytest.mark.parametrize("argv", RANGE_COMMANDS, ids=lambda a: a[0])
    def test_the_refusal_is_exit_two(self, monkeypatch, tmp_path, capsys, argv):
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": c, "derivs": [1]} for c in self._PAST_THE_FIELD],
            "f": ["0"], "u0": ["x1^(2^62)"], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "past.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # a ring sized for the problem holds the product
        assert main([argv[0], str(path), *argv[1:]]) == 0
        capsys.readouterr()
        monkeypatch.setattr(poly, "_reach", lambda e: 0)  # every ring 64 bits wide
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", "error: exponent too large to represent\n")

    def test_a_series_of_trees_gets_a_ring_sized_for_them(self):
        e = parse_expr("x1^(2^63) + x1^(-(2^63))", 1)
        h = HpmExpansion((TimeSeriesVec(1, 1, ((e,), (e,))),), 1)
        assert partial_sum(h, 1).coeffs == ((e,), (e,))

    def test_corrections_get_a_ring_sized_for_all_of_them(self):
        # a ring sized for the first correction alone, 64 bits for x1 or the
        # problem's for the engine's rows, had no room for x1^(2^70): the
        # sum depended on the order of the corrections
        small, huge = (TimeSeriesVec(1, 1, ((parse_expr(t, 1),), (ZERO,)))
                       for t in ("x1", "x1^(2^70)"))
        engine = solve_hpm(load_problem(str(PROBLEM_DIR / "wave_1d.prob")), 0).corrections[0]
        for other, text in ((small, "x1"), (engine, "sin(x1)")):  # trees; rows kept in a ring
            want = ((parse_expr(f"{text} + x1^(2^70)", 1),),)
            for pair in ((other, huge), (huge, other)):
                assert partial_sum(HpmExpansion(pair, 1), 0).coeffs == want

    @pytest.mark.parametrize("argv", RANGE_COMMANDS, ids=lambda a: a[0])
    @pytest.mark.parametrize("text", RANGE_CASES)
    def test_commands_give_the_right_rows_or_a_named_error(self, tmp_path, capsys, text, argv):
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": [text], "u1": [f"({text})^(-1)"], "order": 4,
        }
        path = tmp_path / "range.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and re.fullmatch(r"error: [a-z][^\n]*\n", err)
            assert "internal" not in err
            return
        assert code == 0 and err == ""
        if argv[0] == "compare":
            assert out.endswith("overall: equivalent\n")
        elif argv[0] == "residual":
            assert out.endswith("overall: pass\n")
        else:
            if argv[0] == "hpm":  # the partial sum, through degree 3
                out = out.split("partial sum")[1]
            rows = re.findall(r"^ *u\[(\d+)\] = (.*)$", out, re.M)
            want = _taylor_text(parse_expr(text, 1), parse_expr(f"({text})^(-1)", 1), len(rows) - 1)
            assert [r for _, r in rows] == want

    @pytest.mark.parametrize("text", RANGE_CASES)
    def test_expand_is_right_or_a_named_error(self, capsys, text):
        code = main(["expand", "--expr", f"{text}*exp(t)", "--order", "2"])
        out, err = capsys.readouterr()
        e = parse_expr(text, 1)
        assert (code, err) == (0, "")
        assert out == f"[{print_expr(e)}, {print_expr(e)}, {print_expr(esum([eprod([Const(Fraction(1, 2)), e])]))}]\n"


class TestDerivatives:
    @given(SEEDS, st.sampled_from((1, 2)))
    def test_same_values_as_differentiate(self, seed, v):
        rng = random.Random(seed)
        e = random_normal_expr(rng, depth=3, n_vars=2)
        ring = Ring()
        try:
            p = ring.from_tree(e)
        except DomainError:
            assume(False)
        assert _close(ring.to_tree(ring.diff(p, v)), tree_ref_diff(e, v))

    @given(SEEDS)
    def test_derivation_rules(self, seed):
        ring, (a, b) = _random_polys(seed, 2)
        assert ring.diff(mul(a, b), 1) == add(mul(ring.diff(a, 1), b), mul(a, ring.diff(b, 1)))
        assert ring.diff(ring.diff(a, 1), 2) == ring.diff(ring.diff(a, 2), 1)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_function_rules_are_those_of_expr(self, name):
        # special values come from expr's folding, and derivatives from
        # Ring.outer, checked exactly against the reference's own table of
        # f'(a): of a variable, a sum, a sum atom and a nested function
        assert Ring().func(name, poly.ZERO) == Ring().from_tree(normalize(Func(name, ZERO)))
        for arg in ("0", "1", "x1"):
            ring, a = Ring(), parse_expr(arg, 1)
            assert ring.func(name, ring.from_tree(a)) == ring.from_tree(expr._func(name, a))
        for arg in ("x1", "1 + x1^2", "1/(1 + x1^2)", "sin(x1)"):
            e = normalize(Func(name, parse_expr(arg, 1)))
            ring = Ring()
            assert ring.outer(name, ring.from_tree(e.arg)) == ring.from_tree(tree_ref_outer(e))
            got, want = ring.diff(ring.from_tree(e), 1), ring.from_tree(tree_ref_diff(e, 1))
            if (name, arg) == ("ln", "1/(1 + x1^2)"):
                # 1/a multiplies out 1 + x1^2, which the (1 + x1^2)^-2 of
                # D a cannot cancel: the value of the tree's one term in two
                assert (len(got), len(want)) == (2, 1)
                assert ring.deviation(got, want, PLAN) <= PLAN.tolerance
            else:
                assert got == want

    def test_only_the_atoms_a_polynomial_holds_are_differentiated(self, tmp_path, capsys):
        ring = Ring()
        ring.from_tree(parse_expr("cos(x2) + exp(7)*x3", 3))  # atoms p does not hold
        e = parse_expr("exp(400)*exp(401)*sin(x1)", 1)
        p = ring.from_tree(e)
        held = {i for m in p.num for i, k in enumerate(ring.exponents(m)) if k}
        assert ring.to_tree(ring.diff(p, 1)) == tree_ref_diff(e, 1)
        # the atoms of p, and x1 inside sin(x1); none of the others
        assert {i for i, _ in ring.derivatives} == held | {ring.index[Var(1)]}
        doc = {
            "m": 1, "n": 1, "rho": [["1"]],
            "L": [{"row": 0, "col": 0, "coeff": "1", "derivs": [2]}],
            "f": ["0"], "u0": [print_expr(e)], "u1": ["0"], "order": 4,
        }
        path = tmp_path / "constants.prob"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["hpm", str(path), "--corrections", "1"]) == 0
        rows = re.findall(r"^ *u\[\d+\] = (.*)$", capsys.readouterr().out.split("partial sum")[1], re.M)
        assert rows == _taylor_text(e, ZERO, 3)

    def test_each_atom_derivative_is_kept(self):
        ring = Ring()
        p = ring.from_tree(parse_expr("tanh(x1*x2)^3 + ln(1 + x1^2)*sin(x2)", 2))
        ring.diff(p, 1)
        kept = dict(ring.derivatives)
        ring.diff(mul(p, p), 1)
        assert {k: v for k, v in ring.derivatives.items() if k in kept} == kept
        assert all(ring.derivatives[k] is kept[k] for k in kept)


def _tree_taylor(p, order):
    """The direct recursion on trees, with the tree-built operator and
    the tree-built forcing."""
    f = tree_forcing(p, order)
    rows = [p.u0, p.u1]
    for j in range(order - 1):
        w = [esum([a, b]) for a, b in zip(apply_by_differentiate(p.L, rows[j]), f[j])]
        q = Fraction(1, (j + 1) * (j + 2))
        rows.append(tuple(
            esum(eprod([Const(q * entry), c]) for entry, c in zip(row, w) if entry)
            for row in p.rho_inv.entries
        ))
    return rows


class TestEngineParity:
    def test_both_engines_match_tree_values_on_random_problems(self):
        for seed in range(2000, 2100):
            p, corrections = random_problem(seed)
            want = _tree_taylor(p, p.order)
            direct = taylor_coefficients(p)
            summed = partial_sum(solve_hpm(p, corrections), p.order)
            for d in range(p.order + 1):
                for a, b, c in zip(direct.coefficient(d), summed.coefficient(d), want[d]):
                    assert _close(a, c) and _close(b, c), (seed, d)

    def test_heavy_compare_is_decided_without_sampling(self, monkeypatch, capsys, tmp_path):
        calls = []
        original = poly.sampled_deviation

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(poly, "sampled_deviation", counted)
        report = equivalence_check(parse_problem(HEAVY_2X2), 4, PLAN)
        assert report.overall and len(report.per_degree) == 10
        assert all(c.max_deviation == 0.0 for c in report.per_degree)
        assert calls == []
        path = tmp_path / "heavy.prob"
        path.write_text(HEAVY_2X2)
        assert main(["compare", str(path), "--corrections", "4"]) == 0
        assert capsys.readouterr().out.endswith("overall: equivalent\n")
        assert calls == []


class TestRingScope:
    def test_one_ring_per_problem_shared_by_its_orders(self):
        p, q = parse_problem(HEAVY_2X2), parse_problem(HEAVY_2X2)
        assert p.ring is not q.ring
        assert p.with_order(3).ring is p.ring
