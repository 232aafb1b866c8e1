"""Sparse distributed polynomials: ring laws, tree conversions,
derivatives, and both engines against values built on trees."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
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
)
from pdeseries import poly
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
    differentiate,
    eprod,
    esum,
    normalize,
    sampled_deviation,
)
from pdeseries.hpm import hpm_rows, partial_sum, solve_hpm
from pdeseries.parser import load_problem, parse_expr, parse_problem, print_expr, print_poly
from pdeseries.poly import ONE, Ring, add, mul, scale, sub
from pdeseries.series import forcing_rows, problem_ring
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
        assert mul(x, inverse) == ONE and list(mul(x, inverse).num) == [()]
        s = ring.from_tree(parse_expr("1 + x1", 1))
        s_inv = ring.from_tree(parse_expr("(2 + 2*x1)^(-1)", 1))
        assert mul(s_inv, s_inv) == scale(ring.power(s, -2), Fraction(1, 4))
        assert mul(s_inv, s_inv) == ring.from_tree(parse_expr("1/4*(1 + x1)^(-2)", 1))


def _normal(p):
    """``p`` in normal form: int numerators over a positive int
    denominator coprime to them, trimmed keys, zero as no terms over 1."""
    assert isinstance(p, poly.Poly) and type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert all(not m or m[-1] for m in p.num)
    assert math.gcd(p.den, *p.num.values()) == 1
    return p


class TestAgainstReference:
    """The kernel against the Fraction-dict reference in conftest."""

    @given(SEEDS, st.sampled_from((1, 2)))
    def test_kernel_equals_the_reference(self, seed, v):
        ring, (a, b, c) = _random_polys(seed, 3)
        ra, rb, rc = map(ref_of, (a, b, c))
        product = _normal(mul(a, b))
        assert ref_of(product) == ref_mul(ra, rb)
        # (a + b)(a - b): the cross terms cancel inside the product
        assert ref_of(_normal(mul(add(a, b), sub(a, b)))) == ref_mul(
            ref_of(add(a, b)), ref_of(sub(a, b)))
        total = {}
        for r in (ra, rb, rc, ref_scale(ra, -1)):
            ref_iadd(total, r)
        assert ref_of(_normal(add(a, b, c, scale(a, -1)))) == total
        assert _normal(add(a, scale(a, -1))) == poly.ZERO and poly.ZERO.den == 1
        for q in (Fraction(-3, 7), Fraction(6), Fraction(5, 2), 0):
            assert ref_of(_normal(scale(product, q))) == ref_scale(ref_mul(ra, rb), q)
        for p in (a, product):
            assert ref_of(_normal(ring.diff(p, v))) == ref_diff(ring, ref_of(p), v)

    def test_engines_equal_the_reference_trees(self):
        problems = [(seed, *random_problem(seed)) for seed in range(2000, 2030)]
        for path in _PROBLEM_FILES:
            p = load_problem(str(path))
            problems.append((path.name, p, (p.order - 1) // 2))
        for case, p, corrections in problems:
            direct, hpm = ref_engines(p, corrections)
            ring = problem_ring(p)
            got = [taylor_rows(p), *hpm_rows(p, corrections, p.order)]
            for rows, want in zip(got, [direct, *hpm]):
                for row, ref_row in zip(rows, want, strict=True):
                    for c, r in zip(row, ref_row, strict=True):
                        assert _built_as_first_written(ring, _normal(c)) == ref_tree(ring, r), case

    @pytest.mark.parametrize("path", _PROBLEM_FILES, ids=lambda p: p.name)
    def test_problem_rows_are_built_as_first_written(self, path):
        p = load_problem(str(path))
        ring = problem_ring(p)
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
        assert list(first.num) == [(0, 0, 1)]
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
        assert print_poly(ring, p) == print_expr(tree) == "x1 + x2 + x3"


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
                       *(Pow(ring.trees[i], e) for i, e in enumerate(m) if e)])
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
        assert list(first.num) == [(0, 0, 1)] and list(expanded.num) == [(1,), (0, 1)]
        assert first != expanded and len(sub(first, expanded)) == 3
        assert ring.deviation(first, expanded, PLAN) == 0.0

    def test_special_values_fold(self):
        ring = Ring()
        assert ring.from_tree(parse_expr("sin(x1 - x1) + cos(0) + ln(1)", 1)) == ONE
        e = parse_expr("sin(x1*(1 + x1) - x1 - x1^2)", 1)
        assert ring.from_tree(e) == poly.ZERO


# atoms print_poly must place and spell: sums at negative powers and
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
            assert print_poly(ring, p) == print_expr(ring.to_tree(p))

    def test_a_rational_times_a_sum_atom_is_printed_from_its_tree(self):
        ring = Ring()
        big = ring.from_tree(parse_expr("(x1 + x2)^99999999", 2))
        s = mul(big, ring.from_tree(parse_expr("(x1 + x2)^(-99999998)", 2)))
        assert list(s.num) == [(0, 0, 1)]  # the atom x1 + x2, to the power 1
        p = add(scale(s, 3), ring.from_tree(Var(1)))
        # eprod spreads 3 over the sum, and the x1 terms collect
        assert print_poly(ring, p) == print_expr(ring.to_tree(p)) == "4*x1 + 3*x2"
        assert print_poly(ring, s) == "x1 + x2"
        assert print_poly(ring, poly.ZERO) == "0"

    def test_engine_rows_print_as_first_written(self):
        for seed in range(3000, 3020):
            p, corrections = random_problem(seed)
            ring = problem_ring(p)
            for rows in (taylor_rows(p), *hpm_rows(p, corrections, p.order)):
                for row in rows:
                    for c in row:
                        assert print_poly(ring, c) == ref_fmt(ring.to_tree(c)), seed

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
                    print_poly(ring, p)
                assert str(text_error.value) == str(tree_error.value)
        finally:
            sys.set_int_max_str_digits(limit)


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
        assert _close(ring.to_tree(ring.diff(p, v)), differentiate(e, v))

    @given(SEEDS)
    def test_derivation_rules(self, seed):
        ring, (a, b) = _random_polys(seed, 2)
        assert ring.diff(mul(a, b), 1) == add(mul(ring.diff(a, 1), b), mul(a, ring.diff(b, 1)))
        assert ring.diff(ring.diff(a, 1), 2) == ring.diff(ring.diff(a, 2), 1)

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_function_rules_are_those_of_expr(self, name):
        # special values and derivatives come from expr's one table
        assert Ring().func(name, poly.ZERO) == Ring().from_tree(normalize(Func(name, ZERO)))
        for arg in ("x1", "1 + x1^2"):
            e = normalize(Func(name, parse_expr(arg, 1)))
            ring = Ring()
            assert ring.diff(ring.from_tree(e), 1) == ring.from_tree(differentiate(e, 1))

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
        assert problem_ring(p) is not problem_ring(q)
        assert problem_ring(p.with_order(3)) is problem_ring(p)
