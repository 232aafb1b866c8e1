"""Mechanical checks tying the two engines to each other and to the
differential equation: residual order checks and coefficient-wise
engine equivalence."""

from __future__ import annotations

from dataclasses import dataclass

from .expr import DEFAULT_PLAN, SamplePlan, ZERO, sampled_deviation
from .hpm import partial_sum, solve_hpm
from .series import (
    ProblemSpec,
    TimeSeriesVec,
    apply_operator,
    forcing_coefficients,
    series_scale_matrix,
    vec_add,
    vec_sub,
)
from .taylor import taylor_coefficients


@dataclass(frozen=True)
class DegreeCheck:
    degree: int
    passed: bool
    max_deviation: float


def _per_degree_dicts(checks: tuple[DegreeCheck, ...]) -> list[dict]:
    return [
        {"degree": c.degree, "passed": c.passed, "max_deviation": c.max_deviation}
        for c in checks
    ]


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of checking mass*u_tt - L u - f degree by degree.
    Degrees above order-2 are truncation artifacts and are excluded."""

    per_degree: tuple[DegreeCheck, ...]
    overall: bool

    def __bool__(self) -> bool:
        return self.overall

    @property
    def checked_orders(self) -> tuple[int, int]:
        return (self.per_degree[0].degree, self.per_degree[-1].degree)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checked_degrees": list(self.checked_orders),
            "per_degree": _per_degree_dicts(self.per_degree),
        }


@dataclass(frozen=True)
class EquivalenceReport:
    """Coefficient-wise comparison of the two engines up to the
    finalized degree 2J+1."""

    corrections: int
    per_degree: tuple[DegreeCheck, ...]
    overall: bool

    def __bool__(self) -> bool:
        return self.overall

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "corrections": self.corrections,
            "per_degree": _per_degree_dicts(self.per_degree),
        }


def residual_check(
    p: ProblemSpec, sol: TimeSeriesVec, plan: SamplePlan = DEFAULT_PLAN
) -> ResidualReport:
    """Verify that the series satisfies the equation to its information
    content: residual coefficients of degree 0..order-2 must vanish."""
    if sol.order < 2:
        raise ValueError("residual check needs a series of order >= 2")
    f = forcing_coefficients(p, sol.order)
    second = sol.second_time_derivative()
    checks = []
    for k in range(sol.order - 1):
        residual = vec_sub(
            series_scale_matrix(p.rho, second.coefficient(k)),
            vec_add(apply_operator(p.L, sol.coefficient(k)), f[k]),
        )
        deviation = max(sampled_deviation(c, ZERO, plan) for c in residual)
        checks.append(DegreeCheck(k, deviation <= plan.tolerance, deviation))
    return ResidualReport(tuple(checks), all(c.passed for c in checks))


def equivalence_check(
    p: ProblemSpec, corrections: int, plan: SamplePlan = DEFAULT_PLAN
) -> EquivalenceReport:
    """Compare the direct series against the summed corrections,
    coefficient by coefficient, for every degree up to 2J+1.  The
    corrections are built only through degree 2J+1, the degrees read.

    The comparison is per degree on purpose: evaluating the summed
    series at points could let cancellation between degrees mask a
    mismatch."""
    if corrections < 1:
        raise ValueError("need at least one correction to compare engines")
    final_degree = 2 * corrections + 1
    direct = taylor_coefficients(p.with_order(final_degree))
    summed = partial_sum(
        solve_hpm(p, corrections, order=final_degree), final_degree
    )
    checks = []
    for d in range(final_degree + 1):
        deviation = max(
            sampled_deviation(a, b, plan)
            for a, b in zip(direct.coefficient(d), summed.coefficient(d))
        )
        checks.append(DegreeCheck(d, deviation <= plan.tolerance, deviation))
    return EquivalenceReport(corrections, tuple(checks), all(c.passed for c in checks))
