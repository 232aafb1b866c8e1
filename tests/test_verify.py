"""Residual order checks, fault detection, and engine equivalence."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLAN, problem_path, random_problem
from pdeseries.errors import DimensionMismatch
from pdeseries.expr import ZERO, Var, const, sin
from pdeseries.parser import load_problem, parse_expr
from pdeseries.series import TimeSeriesVec
from pdeseries.taylor import taylor_coefficients
from pdeseries.verify import equivalence_check, residual_check


@pytest.fixture(scope="module")
def wave():
    return load_problem(problem_path("wave_1d.prob"))


@pytest.fixture(scope="module")
def forced_wave():
    return load_problem(problem_path("forced_wave_2d.prob"))


def corrupt(series: TimeSeriesVec, degree: int, component: int, delta) -> TimeSeriesVec:
    rows = [list(row) for row in series.coeffs]
    rows[degree][component] = rows[degree][component] + delta
    return dataclasses.replace(
        series, coeffs=tuple(tuple(row) for row in rows)
    )


class TestResidual:
    def test_forced_wave_passes_all_degrees(self, forced_wave):
        sol = taylor_coefficients(forced_wave)
        report = residual_check(forced_wave, sol, PLAN)
        assert report.overall and bool(report)
        assert report.checked_orders == (0, 4)
        assert [c.degree for c in report.per_degree] == [0, 1, 2, 3, 4]

    def test_wave_passes_all_degrees(self, wave):
        report = residual_check(wave, taylor_coefficients(wave), PLAN)
        assert report.overall
        assert report.checked_orders == (0, wave.order - 2)

    def test_corrupted_coefficient_fails_at_its_degree(self, forced_wave):
        sol = corrupt(taylor_coefficients(forced_wave), 2, 0, Var(1))
        report = residual_check(forced_wave, sol, PLAN)
        assert not report.overall
        assert not report.per_degree[0].passed  # degree 2 feeds u_tt at degree 0

    def test_requires_enough_order(self, wave):
        with pytest.raises(ValueError):
            residual_check(wave, TimeSeriesVec(1, 1, ((ZERO,), (ZERO,))), PLAN)

    def test_extra_component_is_refused(self, wave):
        # an extra component x1 at every degree, with wave's own first one
        sol = taylor_coefficients(wave)
        wide = TimeSeriesVec(2, sol.order, tuple((*row, Var(1)) for row in sol.coeffs))
        with pytest.raises(DimensionMismatch):
            residual_check(wave, wide, PLAN)

    def test_missing_component_is_refused(self):
        coupled = load_problem(problem_path("coupled_2x2.prob"))
        sol = taylor_coefficients(coupled)
        narrow = TimeSeriesVec(1, sol.order, tuple(row[:1] for row in sol.coeffs))
        with pytest.raises(DimensionMismatch):
            residual_check(coupled, narrow, PLAN)

    def test_report_json_mirror(self, wave):
        report = residual_check(wave, taylor_coefficients(wave), PLAN)
        payload = report.to_dict()
        again = json.loads(json.dumps(payload))
        assert again == payload
        assert payload["overall"] is True
        assert len(payload["per_degree"]) == wave.order - 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_soundness_on_random_problems(self, seed):
        p, _ = random_problem(seed)
        report = residual_check(p, taylor_coefficients(p), PLAN)
        assert report.overall

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_fault_injection_detected(self, seed):
        p, _ = random_problem(seed)
        sol = taylor_coefficients(p)
        rng = random.Random(seed ^ 0xFA17)
        degree = rng.randint(2, p.order)
        component = rng.randrange(p.m)
        delta = rng.choice([
            Var(1), const(1), sin(Var(1)), Var(1) ** 2, const(2) * Var(1),
        ])
        report = residual_check(p, corrupt(sol, degree, component, delta), PLAN)
        assert not report.overall
        # the mass term makes degree-2 shifts always visible
        assert not report.per_degree[degree - 2].passed


class TestEquivalence:
    def test_wave_engines_agree(self, wave):
        report = equivalence_check(wave, 3, PLAN)
        assert report.overall and bool(report)
        assert [c.degree for c in report.per_degree] == list(range(8))

    def test_forced_wave_engines_agree(self, forced_wave):
        report = equivalence_check(forced_wave, 2, PLAN)
        assert report.overall
        assert len(report.per_degree) == 6

    def test_rejects_zero_corrections(self, wave):
        with pytest.raises(ValueError):
            equivalence_check(wave, 0, PLAN)

    def test_report_json_mirror(self, wave):
        payload = equivalence_check(wave, 1, PLAN).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["corrections"] == 1

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15)
    def test_random_problems_agree(self, seed):
        p, corrections = random_problem(seed)
        report = equivalence_check(p, corrections, PLAN)
        assert report.overall, [
            (c.degree, c.max_deviation) for c in report.per_degree if not c.passed
        ]
