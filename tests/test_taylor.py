"""Direct series engine: golden problems, exact-termination detection,
and structural properties of the recursion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLAN, problem_path, random_problem, tree_forcing
from pdeseries.errors import DimensionMismatch
from pdeseries.expr import ZERO, Var, const, equal_sampled
from pdeseries.parser import load_problem, parse_expr
from pdeseries.poly import ZERO as POLY_ZERO, Ring, add
from pdeseries.series import (
    OperatorTerm,
    ProblemSpec,
    RationalMatrix,
    SpatialOperator,
    TimeSeriesVec,
    apply_rows,
    scale_rows,
)
from pdeseries.taylor import detect_exact, solve_taylor, taylor_coefficients


@pytest.fixture(scope="module")
def forced_wave():
    return load_problem(problem_path("forced_wave_2d.prob"))


@pytest.fixture(scope="module")
def wave():
    return load_problem(problem_path("wave_1d.prob"))


class TestGoldenProblems:
    def test_forced_wave_collapses_to_linear_solution(self, forced_wave):
        sol = solve_taylor(forced_wave, PLAN)
        u1 = parse_expr("sin(x1)^2*cos(x2)", 2)
        assert equal_sampled(sol.series.coefficient(1)[0], u1, PLAN)
        for j in (0, 2, 3, 4, 5, 6):
            assert equal_sampled(sol.series.coefficient(j)[0], ZERO, PLAN)
        assert sol.exact and sol.exact_reason == "linear-exact"

    def test_wave_matches_cosine_series(self, wave):
        sol = solve_taylor(wave, PLAN)
        sine = parse_expr("sin(x1)", 1)
        for k in range(5):
            expected = const(Fraction((-1) ** k, math.factorial(2 * k))) * sine
            assert sol.series.coefficient(2 * k)[0] == expected
        for j in (1, 3, 5, 7):
            assert sol.series.coefficient(j)[0] == ZERO
        assert not sol.exact

    def test_null_problem_is_all_zero(self, wave):
        p = ProblemSpec.create(
            1, 1, wave.rho, wave.L, (ZERO,), (ZERO,), (ZERO,), order=6
        )
        sol = solve_taylor(p, PLAN)
        for j in range(7):
            assert sol.series.coefficient(j) == (ZERO,)
        assert sol.exact and sol.exact_reason == "tail-zero"


class TestDetectExact:
    def test_linear_exact_reason(self, forced_wave):
        series = taylor_coefficients(forced_wave)
        assert detect_exact(forced_wave, series, PLAN) == (True, "linear-exact")

    def test_wave_is_not_exact(self, wave):
        series = taylor_coefficients(wave)
        exact, reason = detect_exact(wave, series, PLAN)
        assert not exact and reason is None

    def test_tail_zero_for_stationary_solution(self, wave):
        # u0 = x1 is annihilated by the operator, so the series stops
        # even though u0 is nonzero (not the linear-exact pattern).
        p = ProblemSpec.create(
            1, 1, wave.rho, wave.L, (ZERO,), (parse_expr("x1", 1),), (ZERO,), order=5
        )
        sol = solve_taylor(p, PLAN)
        assert sol.exact and sol.exact_reason == "tail-zero"

    @pytest.mark.parametrize("name, m", [("wave_1d.prob", 2), ("coupled_2x2.prob", 1)])
    def test_wrong_component_count_is_refused(self, name, m):
        p = load_problem(problem_path(name))
        series = TimeSeriesVec(m, p.order, ((Var(1),) * m,) * (p.order + 1))
        with pytest.raises(DimensionMismatch):
            detect_exact(p, series, PLAN)

    def test_linear_exact_coefficients_vanish(self, forced_wave):
        # when the verdict is linear-exact, every degree >= 2 vanishes
        sol = solve_taylor(forced_wave, PLAN)
        assert sol.exact_reason == "linear-exact"
        for j in range(2, sol.series.order + 1):
            for c in sol.series.coefficient(j):
                assert equal_sampled(c, ZERO, PLAN)


class TestRecursionProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_solution_map_is_linear(self, seed):
        p1, _ = random_problem(seed)
        rng = random.Random(seed ^ 0x5EED)
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        p2 = ProblemSpec.create(
            p1.m, p1.n, p1.rho, p1.L,
            tuple(c * const(a) for c in p1.f_source),
            tuple(c * const(a) for c in p1.u0),
            tuple(c * const(a) for c in p1.u1),
            p1.order,
        )
        s1 = taylor_coefficients(p1)
        s2 = taylor_coefficients(p2)
        for j in range(p1.order + 1):
            for left, right in zip(s2.coefficient(j), s1.coefficient(j)):
                assert equal_sampled(left, right * const(a), PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_scaling_covariance(self, seed):
        # scaling the whole equation (mass matrix, operator and forcing)
        # by a nonzero rational leaves the solution unchanged
        p1, _ = random_problem(seed)
        c = Fraction(3, 2)
        scaled_L = SpatialOperator(p1.L.m, p1.L.n, tuple(
            OperatorTerm(t.row, t.col, t.coeff * const(c), t.orders)
            for t in p1.L.terms
        ))
        p2 = ProblemSpec.create(
            p1.m, p1.n, RationalMatrix.from_rows([[c * x for x in row] for row in p1.rho.entries]),
            scaled_L,
            tuple(x * const(c) for x in p1.f_source),
            p1.u0, p1.u1, p1.order,
        )
        s1 = taylor_coefficients(p1)
        s2 = taylor_coefficients(p2)
        for j in range(p1.order + 1):
            for left, right in zip(s1.coefficient(j), s2.coefficient(j)):
                assert equal_sampled(left, right, PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_shift_consistency(self, seed):
        # (j+1)(j+2) u_{j+2} recomputes to rho^{-1}(L u_j + f_j)
        p, _ = random_problem(seed)
        series = taylor_coefficients(p)
        f = tree_forcing(p, p.order)
        ring = Ring()  # apart from the ring the engine computed in
        for j in range(p.order - 1):
            u = [ring.from_tree(c) for c in series.coefficient(j)]
            lu = apply_rows(ring, p.L, u, [POLY_ZERO] * p.m)
            w = [add(a, ring.from_tree(b)) for a, b in zip(lu, f[j])]
            recomputed = tuple(map(ring.to_tree, scale_rows(p.rho_inv, w)))
            scaled_back = tuple(
                c * const(Fraction((j + 1) * (j + 2))) for c in series.coefficient(j + 2)
            )
            assert scaled_back == recomputed
