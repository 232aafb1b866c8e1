"""Direct time-power-series engine.

Builds the solution coefficients by the second-order recursion
u_{j+2} = rho^{-1} (L u_j + f_j) / ((j+1)(j+2)) and classifies exact
termination of the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import DEFAULT_PLAN, SamplePlan
from .poly import ZERO
from .series import (
    ProblemSpec,
    Rows,
    TimeSeriesVec,
    apply_rows,
    checked_series,
    forcing_rows,
    rows_series,
    scale_rows,
    series_rows,
)


@dataclass(frozen=True)
class TaylorSolution:
    """Computed series plus the exact-termination verdict.

    A coefficient that ``exact`` reads is decided exactly when its
    polynomial is zero.  A nonzero polynomial may still vanish in value
    (sin(x1)^2 + cos(x1)^2 - 1), so it is sampled, and a verdict that
    rests on one is a sampled claim, not an algebraic certificate."""

    series: TimeSeriesVec
    exact: bool
    exact_reason: str | None


def taylor_rows(p: ProblemSpec) -> Rows:
    """The recursion up to the problem's truncation order, on
    polynomials of ``p.ring``."""
    ring = p.ring
    f = forcing_rows(p, p.order)
    rows = [list(map(ring.from_tree, p.u0)), list(map(ring.from_tree, p.u1))]
    for j in range(p.order - 1):
        w = apply_rows(ring, p.L, rows[j], f[j])
        rows.append(scale_rows(p.rho_inv, w, Fraction(1, (j + 1) * (j + 2))))
    return rows


def taylor_coefficients(p: ProblemSpec) -> TimeSeriesVec:
    """Run the recursion up to the problem's truncation order."""
    return rows_series(p.ring, taylor_rows(p))


def solve_taylor(p: ProblemSpec, plan: SamplePlan = DEFAULT_PLAN) -> TaylorSolution:
    series = taylor_coefficients(p)
    exact, reason = detect_exact(p, series, plan)
    return TaylorSolution(series=series, exact=exact, exact_reason=reason)


def detect_exact(
    p: ProblemSpec, sol: TimeSeriesVec, plan: SamplePlan = DEFAULT_PLAN
) -> tuple[bool, str | None]:
    """Classify exact termination of the series ``sol`` of ``p``.

    "linear-exact": u0 and f_0 vanish, L u1 + f_1 vanishes, and every
    higher forcing coefficient vanishes, so by induction the solution
    collapses to t*u1 (u1 itself nonzero, otherwise the verdict would
    be vacuous).  "tail-zero": every computed coefficient of degree 2
    and up vanishes.  A coefficient vanishes when its polynomial is
    zero, or else when it samples equal to zero.
    """
    ring = p.ring
    rows, order = series_rows(ring, checked_series(p, sol)), sol.order
    f = forcing_rows(p, order)

    def vanishes(vec) -> bool:
        return all(ring.deviation(c, ZERO, plan) <= plan.tolerance for c in vec)

    u1 = list(map(ring.from_tree, p.u1))
    linear = (
        vanishes(map(ring.from_tree, p.u0))
        and vanishes(f[0])
        and vanishes(apply_rows(ring, p.L, u1, f[1]))
        and all(vanishes(f[j]) for j in range(2, order + 1))
    )
    if linear and not vanishes(u1):
        return True, "linear-exact"
    if order >= 2 and all(vanishes(row) for row in rows[2:]):
        return True, "tail-zero"
    return False, None
