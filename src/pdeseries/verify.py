"""Mechanical checks tying the two engines to each other and to the
differential equation: residual order checks and coefficient-wise
engine equivalence."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .expr import DEFAULT_PLAN, SamplePlan
from .hpm import hpm_rows, sum_rows
from .poly import ZERO, Ring, sub
from .series import (
    ProblemSpec,
    TimeSeriesVec,
    apply_rows,
    check_integer,
    checked_series,
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


def _degree_check(ring: Ring, degree: int, pairs, plan: SamplePlan) -> DegreeCheck:
    """The check of one degree: the largest ``ring.deviation`` over the
    ``pairs`` of polynomials, against the plan's tolerance."""
    deviation = max(ring.deviation(a, b, plan) for a, b in pairs)
    return DegreeCheck(degree, deviation <= plan.tolerance, deviation)


class _Report:
    """A check's verdict, read from its ``per_degree`` checks: it passes
    when every degree does."""

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.per_degree)

    def __bool__(self) -> bool:
        return self.overall


@dataclass(frozen=True)
class ResidualReport(_Report):
    """Outcome of checking mass*u_tt - L u - f degree by degree.
    Degrees above order-2 are truncation artifacts and are excluded.
    ``to_dict`` writes each ``DegreeCheck`` with ``dataclasses.asdict``."""

    per_degree: tuple[DegreeCheck, ...]

    @property
    def checked_orders(self) -> tuple[int, int]:
        return (self.per_degree[0].degree, self.per_degree[-1].degree)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checked_degrees": list(self.checked_orders),
            "per_degree": [asdict(c) for c in self.per_degree],
        }


@dataclass(frozen=True)
class EquivalenceReport(_Report):
    """Coefficient-wise comparison of the two engines up to the finalized
    degree 2J+1; ``to_dict`` writes each check as ``ResidualReport``'s does."""

    corrections: int
    per_degree: tuple[DegreeCheck, ...]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "corrections": self.corrections,
            "per_degree": [asdict(c) for c in self.per_degree],
        }


def residual_check(
    p: ProblemSpec, sol: TimeSeriesVec, plan: SamplePlan = DEFAULT_PLAN
) -> ResidualReport:
    """Verify that the series ``sol`` of ``p`` satisfies the equation to
    its information content: residual coefficients of degree
    0..order-2 must vanish.  A residual whose polynomial is zero has
    deviation 0.0 exactly; any other is sampled."""
    order = checked_series(p, sol).order
    if order < 2:
        raise ValueError("residual check needs a series of order >= 2")
    ring = problem_ring(p)
    rows = series_rows(ring, sol)
    f = forcing_rows(p, order)
    checks = []
    for k in range(order - 1):
        lhs = scale_rows(p.rho, rows[k + 2], (k + 1) * (k + 2))
        rhs = apply_rows(ring, p.L, rows[k], f[k])
        checks.append(_degree_check(ring, k, [(sub(a, b), ZERO) for a, b in zip(lhs, rhs)], plan))
    return ResidualReport(tuple(checks))


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
    check_integer(corrections, "correction count")
    if corrections < 1:
        raise ValueError("need at least one correction to compare engines")
    final_degree = 2 * corrections + 1
    ring = problem_ring(p)
    direct = taylor_rows(p.with_order(final_degree))
    summed = sum_rows(hpm_rows(p, corrections, final_degree), final_degree)
    checks = [_degree_check(ring, d, zip(direct[d], summed[d]), plan)
              for d in range(final_degree + 1)]
    return EquivalenceReport(corrections, tuple(checks))
