"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion summaries while running).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    PLAN,
    correction_audit_max_deviation,
    problem_path,
    random_normal_expr,
    random_problem,
)
from pdeseries.errors import ParseError
from pdeseries.expr import SamplePlan, Var, ZERO, const, equal_sampled, sin
from pdeseries.hpm import solve_hpm
from pdeseries.parser import load_problem, parse_expr, print_expr
from pdeseries.series import ProblemSpec, expand_in_time
from pdeseries.taylor import solve_taylor, taylor_coefficients
from pdeseries.verify import equivalence_check, residual_check

# tolerances pinned by the criteria: 1e-9 relative at 32 seeded points,
# each check's POINTS_PER_CHECK
ACCEPT_PLAN = SamplePlan(seed=42, tolerance=1e-9)

RANDOM_SUITE_SEEDS = [1000 + i for i in range(100)]


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_golden_forced_wave_problem():
    started = time.perf_counter()
    problem = load_problem(problem_path("forced_wave_2d.prob")).with_order(6)
    solution = solve_taylor(problem, ACCEPT_PLAN)
    expected_u1 = parse_expr("sin(x1)^2*cos(x2)", 2)
    assert equal_sampled(solution.series.coefficient(1)[0], expected_u1, ACCEPT_PLAN)
    for degree in (0, 2, 3, 4, 5, 6):
        assert equal_sampled(solution.series.coefficient(degree)[0], ZERO, ACCEPT_PLAN)
    assert (solution.exact, solution.exact_reason) == (True, "linear-exact")
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"
    _report(1, f"series collapses to t*u1, verdict linear-exact, {elapsed:.2f}s")


def test_criterion_2_engine_equivalence_suite():
    started = time.perf_counter()
    failures = []
    for seed in RANDOM_SUITE_SEEDS:
        problem, corrections = random_problem(seed)
        report = equivalence_check(problem, corrections, ACCEPT_PLAN)
        if not report.overall:
            failures.append((seed, [c.degree for c in report.per_degree if not c.passed]))
    elapsed = time.perf_counter() - started
    assert not failures, f"engine mismatch on {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _report(2, f"100 random problems agree coefficient-wise, {elapsed:.1f}s")


def test_criterion_3_wave_equation_oracle():
    problem = load_problem(problem_path("wave_1d.prob"))
    series = taylor_coefficients(problem)
    sine = parse_expr("sin(x1)", 1)
    for k in range(5):
        expected = const(Fraction((-1) ** k, math.factorial(2 * k))) * sine
        got = series.coefficient(2 * k)[0]
        assert got == expected, f"degree {2*k}: {print_expr(got)}"
        assert equal_sampled(got, expected, ACCEPT_PLAN)
        if 2 * k + 1 <= problem.order:
            assert series.coefficient(2 * k + 1)[0] == ZERO
    _report(3, "coefficients match the cosine-times-sine closed form exactly")


def test_criterion_4_residual_soundness_and_fault_injection():
    # soundness over the suites of criteria 1-3
    for name, order in (("forced_wave_2d.prob", None), ("wave_1d.prob", None)):
        p = load_problem(problem_path(name))
        assert residual_check(p, taylor_coefficients(p), ACCEPT_PLAN).overall
    for seed in RANDOM_SUITE_SEEDS:
        p, _ = random_problem(seed)
        report = residual_check(p, taylor_coefficients(p), ACCEPT_PLAN)
        assert report.overall, f"residual failed on seed {seed}"

    # 50/50 randomized single-coefficient corruptions must be flagged at
    # the degree fed by the corrupted coefficient's mass term
    import dataclasses

    detected = 0
    rng = random.Random(20250808)
    pool = [Var(1), const(1), sin(Var(1)), Var(1) ** 2, const(2) * Var(1)]
    for trial in range(50):
        p, _ = random_problem(rng.randint(0, 10**6))
        series = taylor_coefficients(p)
        degree = rng.randint(2, p.order)
        component = rng.randrange(p.m)
        rows = [list(row) for row in series.coeffs]
        rows[degree][component] = rows[degree][component] + rng.choice(pool)
        corrupted = dataclasses.replace(
            series, coeffs=tuple(tuple(r) for r in rows)
        )
        report = residual_check(p, corrupted, ACCEPT_PLAN)
        if not report.overall and not report.per_degree[degree - 2].passed:
            detected += 1
    assert detected == 50, f"only {detected}/50 corruptions detected"
    _report(4, "residual sound on all suites; 50/50 injected faults detected")


def test_criterion_5_hpm_correction_audit():
    suite = [
        (load_problem(problem_path("forced_wave_2d.prob")), 2),
        (load_problem(problem_path("wave_1d.prob")), 3),
        (load_problem(problem_path("coupled_2x2.prob")), 2),
    ]
    suite.extend(random_problem(seed) for seed in RANDOM_SUITE_SEEDS)
    worst = 0.0
    for problem, corrections in suite:
        expansion = solve_hpm(problem, corrections)
        deviation = correction_audit_max_deviation(problem, expansion, ACCEPT_PLAN)
        worst = max(worst, deviation)
        assert deviation <= ACCEPT_PLAN.tolerance
    _report(5, f"all corrections satisfy their defining relation, worst dev {worst:.1e}")


def test_criterion_6_parser_round_trip_and_error_offsets():
    rng = random.Random(31415926)
    for i in range(500):
        expression = random_normal_expr(rng, depth=4, allow_time=True)
        text = print_expr(expression)
        assert parse_expr(text, 2, allow_time=True) == expression, f"iteration {i}: {text!r}"

    malformed = [
        ("x1 + * 2", 5),
        ("", 0),
        ("(x1", 3),
        ("x1 )", 3),
        ("2x1", 1),
        ("sin x1", 4),
        ("sin(x1", 6),
        ("1 + + 2", 4),
        ("x1 *", 4),
        ("2 ** 2", 3),
        ("x1 + π", 5),
        ("x1 ^ x2", 5),
        ("y9", 0),
    ]
    for text, offset in malformed:
        with pytest.raises(ParseError) as err:
            parse_expr(text, 2)
        assert err.value.offset == offset, f"{text!r}: offset {err.value.offset}"
    _report(6, "500 round trips exact; 13 malformed inputs report correct offsets")


def test_criterion_7_expansion_spot_checks():
    expression = parse_expr("x1^2*exp(t)", 1, allow_time=True)
    coefficients = expand_in_time(expression, 6)
    base = parse_expr("x1^2", 1)
    for j, coefficient in enumerate(coefficients):
        expected = const(Fraction(1, math.factorial(j))) * base
        assert coefficient == expected

    constant = expand_in_time(const(7), 4)
    assert constant == (const(7), ZERO, ZERO, ZERO, ZERO)
    _report(7, "x1^2*exp(t) expands to x1^2/j! through degree 6; constants pad zeros")
