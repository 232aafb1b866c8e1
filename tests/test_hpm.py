"""Perturbation-correction engine: worked corrections, structural laws,
and the defining-relation audit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HEAVY_2X2, PLAN, correction_audit_max_deviation, problem_path, random_problem
from pdeseries import hpm, series
from pdeseries.cli import main
from pdeseries.expr import ZERO, const, equal_sampled
from pdeseries.hpm import hpm_rows, partial_sum, solve_hpm
from pdeseries.parser import load_problem, parse_expr
from pdeseries.poly import scale
from pdeseries.series import problem_ring, rows_series


@pytest.fixture(scope="module")
def wave():
    return load_problem(problem_path("wave_1d.prob"))


@pytest.fixture(scope="module")
def forced_wave():
    return load_problem(problem_path("forced_wave_2d.prob"))


class TestWorkedCorrections:
    def test_wave_corrections(self, wave):
        h = solve_hpm(wave, 2)
        sine = parse_expr("sin(x1)", 1)
        c0, c1, c2 = h.corrections
        assert c0.coefficient(0) == (sine,)
        assert all(c0.coefficient(d) == (ZERO,) for d in range(1, c0.order + 1))
        assert c1.coefficient(2) == (const(Fraction(-1, 2)) * sine,)
        assert c2.coefficient(4) == (const(Fraction(1, 24)) * sine,)

    def test_forced_wave_first_correction_vanishes(self, forced_wave):
        # the operator image of t*u1 cancels the forcing exactly, so
        # every correction beyond the zeroth is identically zero
        h = solve_hpm(forced_wave, 2)
        u1 = parse_expr("sin(x1)^2*cos(x2)", 2)
        assert h.corrections[0].coefficient(1) == (u1,)
        for j in (1, 2):
            for d in range(h.working_order + 1):
                assert h.corrections[j].coefficient(d) == (ZERO,)

    def test_zero_corrections_is_initial_polynomial(self, wave):
        h = solve_hpm(wave, 0)
        assert h.max_correction == 0 and len(h.corrections) == 1
        assert h.corrections[0].coefficient(0) == (parse_expr("sin(x1)", 1),)

    def test_correction_count_validation(self, wave):
        with pytest.raises(ValueError):
            solve_hpm(wave, -1)


def _assert_capped_matches_uncapped(p, corrections):
    # degree k of correction j reads only degree k-2 of correction j-1,
    # so the rows the comparison builds to 2J+1 are those of solve_hpm
    window = 2 * corrections + 1
    full = solve_hpm(p, corrections)
    capped = [rows_series(problem_ring(p), rows)
              for rows in hpm_rows(p, corrections, window)]
    assert full.working_order >= window
    assert len(capped) == len(full.corrections) == corrections + 1
    for small, large in zip(capped, full.corrections):
        assert small.order == window
        for d in range(window + 1):
            assert small.coefficient(d) == large.coefficient(d)


class TestWorkingOrder:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_capped_rows_equal_uncapped(self, seed):
        p, corrections = random_problem(seed)
        _assert_capped_matches_uncapped(p, corrections)

    @pytest.mark.parametrize("name", ["wave_1d.prob", "forced_wave_2d.prob",
                                      "coupled_2x2.prob"])
    @pytest.mark.parametrize("corrections", [0, 1, 3])
    def test_capped_rows_on_bundled_problems(self, name, corrections):
        p = load_problem(problem_path(name))
        _assert_capped_matches_uncapped(p, corrections)


class TestDegreesComputed:
    def test_only_the_degrees_the_integral_reads_are_computed(self, monkeypatch, tmp_path,
                                                              capsys):
        # the double time integral reads degrees 0..working-2 of the
        # previous correction; at working order 14 that is 13 rows each
        calls = []
        original = hpm.apply_rows

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hpm, "apply_rows", counted)
        path = tmp_path / "heavy.prob"
        path.write_text(HEAVY_2X2)
        assert main(["hpm", str(path), "--corrections", "3"]) == 0
        assert "partial sum (degrees 0..14):" in capsys.readouterr().out
        assert len(calls) == 3 * 13


class TestPartialSum:
    def test_wave_partial_sum(self, wave):
        h = solve_hpm(wave, 2)
        total = partial_sum(h, 5)
        sine = parse_expr("sin(x1)", 1)
        assert total.coefficient(0) == (sine,)
        assert total.coefficient(2) == (const(Fraction(-1, 2)) * sine,)
        assert total.coefficient(4) == (const(Fraction(1, 24)) * sine,)
        for d in (1, 3, 5):
            assert total.coefficient(d) == (ZERO,)

    def test_degree_zero_keeps_initial_value(self, wave):
        h = solve_hpm(wave, 2)
        total = partial_sum(h, 0)
        assert total.order == 0
        assert total.coefficient(0) == (parse_expr("sin(x1)", 1),)

    def test_refuses_degrees_past_the_working_order(self, wave):
        # degrees 4.. of wave's true sum are 1/24*sin(x1), ..., not zero
        h = solve_hpm(wave, 1)
        assert h.working_order == 3 and partial_sum(h, 3).order == 3
        for trunc in (4, 8):
            with pytest.raises(ValueError):
                partial_sum(h, trunc)

    def test_one_correction_low_truncation(self, wave):
        h = solve_hpm(wave, 0)
        total = partial_sum(h, 1)
        assert total.coefficient(0) == (parse_expr("sin(x1)", 1),)
        assert total.coefficient(1) == (ZERO,)


class TestStructuralLaws:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_minimal_degree_law(self, seed):
        # correction j has exact zeros below time degree 2j
        p, corrections = random_problem(seed)
        h = solve_hpm(p, corrections)
        for j in range(1, corrections + 1):
            for d in range(min(2 * j, h.working_order + 1)):
                assert h.corrections[j].coefficient(d) == (ZERO,) * p.m

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10)
    def test_finality_law(self, seed):
        # adding correction J+1 cannot change degrees <= 2J+1
        p, corrections = random_problem(seed)
        window = 2 * corrections + 1
        small = partial_sum(solve_hpm(p, corrections), window)
        large = partial_sum(solve_hpm(p, corrections + 1), window)
        for d in range(window + 1):
            for a, b in zip(small.coefficient(d), large.coefficient(d)):
                assert equal_sampled(a, b, PLAN)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_second_derivative_matches_source(self, seed):
        # d2/dt2 u^(j) == rho^{-1}(L u^(j-1) + f when j == 1), the audit
        # that catches any mis-scaled integration
        p, corrections = random_problem(seed)
        h = solve_hpm(p, corrections)
        assert correction_audit_max_deviation(p, h, PLAN) <= PLAN.tolerance

    def test_audit_covers_golden_problems(self, wave, forced_wave):
        for p, j in ((wave, 3), (forced_wave, 2)):
            h = solve_hpm(p, j)
            assert correction_audit_max_deviation(p, h, PLAN) <= PLAN.tolerance

    def test_audit_sees_a_fault_in_the_engine_arithmetic(self, monkeypatch):
        # the audit rebuilds its source terms on trees, so a fault in the
        # polynomial operator that the engine uses cannot cancel out
        apply_rows = series.apply_rows

        def doubled(ring, op, vec, forcing):
            return [scale(p, 2) for p in apply_rows(ring, op, vec, forcing)]

        monkeypatch.setattr(series, "apply_rows", doubled)
        monkeypatch.setattr(hpm, "apply_rows", doubled)
        p = load_problem(problem_path("wave_1d.prob"))
        h = solve_hpm(p, 3)
        assert correction_audit_max_deviation(p, h, PLAN) > PLAN.tolerance

    def test_audit_sees_a_fault_in_the_ring_forcing(self, monkeypatch):
        # the audit expands the forcing by jets on trees, so a fault in
        # the engines' expansion in the ring cannot cancel out
        expansion = series._RingJets.expansion

        def faulty(self, e):
            jet = expansion(self, e)
            return [scale(c, 2) if d == 1 else c for d, c in enumerate(jet)]

        monkeypatch.setattr(series._RingJets, "expansion", faulty)
        p = load_problem(problem_path("forced_wave_2d.prob"))
        h = solve_hpm(p, 2)
        assert correction_audit_max_deviation(p, h, PLAN) > PLAN.tolerance
