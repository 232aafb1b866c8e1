"""Mechanical checks tying the two engines to each other and to the
differential equation: residual order checks and coefficient-wise
engine equivalence."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .expr import DEFAULT_PLAN, SamplePlan
from .hpm import hpm_rows, sum_rows
from .poly import ZERO, sub
from .series import (
    ProblemSpec,
    TimeSeriesVec,
    apply_rows,
    forcing_rows,
    problem_ring,
    scale_rows,
    series_rows,
)
from .taylor import taylor_rows


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
    """Verify that the series ``sol`` of ``p`` satisfies the equation to
    its information content: residual coefficients of degree
    0..order-2 must vanish.  A residual whose polynomial is zero has
    deviation 0.0 exactly; any other is sampled."""
    if sol.m != p.m:
        raise DimensionMismatch(f"series has {sol.m} components, the problem {p.m}")
    order = sol.order
    if order < 2:
        raise ValueError("residual check needs a series of order >= 2")
    ring = problem_ring(p)
    rows = series_rows(ring, sol)
    f = forcing_rows(p, order)
    checks = []
    for k in range(order - 1):
        lhs = scale_rows(p.rho.scaled((k + 1) * (k + 2)), rows[k + 2])
        rhs = apply_rows(ring, p.L, rows[k], f[k])
        deviation = max(ring.deviation(sub(a, b), ZERO, plan) for a, b in zip(lhs, rhs))
        checks.append(DegreeCheck(k, deviation <= plan.tolerance, deviation))
    return ResidualReport(tuple(checks), all(c.passed for c in checks))


def equivalence_check(
    p: ProblemSpec, corrections: int, plan: SamplePlan = DEFAULT_PLAN
) -> EquivalenceReport:
    """Compare the direct series against the summed corrections,
    coefficient by coefficient, for every degree up to 2J+1.  The
    corrections are built only through degree 2J+1, the degrees read.
    Coefficients whose polynomials are equal agree exactly; any other
    pair is sampled.

    The comparison is per degree on purpose: evaluating the summed
    series at points could let cancellation between degrees mask a
    mismatch."""
    if corrections < 1:
        raise ValueError("need at least one correction to compare engines")
    final_degree = 2 * corrections + 1
    ring = problem_ring(p)
    direct = taylor_rows(p.with_order(final_degree))
    summed = sum_rows(hpm_rows(p, corrections, final_degree), final_degree)
    checks = []
    for d in range(final_degree + 1):
        deviation = max(
            ring.deviation(a, b, plan) for a, b in zip(direct[d], summed[d])
        )
        checks.append(DegreeCheck(d, deviation <= plan.tolerance, deviation))
    return EquivalenceReport(corrections, tuple(checks), all(c.passed for c in checks))
