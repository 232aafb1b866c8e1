"""Perturbation-correction engine.

Embeds the equation in a one-parameter family, expands the solution in
powers of the parameter, and solves order by order: the zeroth
correction carries the initial data as u0 + t*u1, and every later
correction is the double time integral (zero integration constants) of
the inverse mass matrix applied to the operator image of the previous
correction, with the forcing entering once at the first correction.
Summing the corrections at parameter value one reproduces the direct
power series up to the finalized degree 2J+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import Const, ZERO, eprod
from .series import (
    ProblemSpec,
    TimeSeriesVec,
    apply_operator,
    forcing_coefficients,
    series_scale_matrix,
    vec_add,
)


@dataclass(frozen=True)
class HpmExpansion:
    """Corrections u^(0)..u^(J), each a polynomial in time stored to a
    common working order of at least 2J+1.

    Degrees 0..2J+1 of every correction do not depend on the working
    order: the double time integral maps degree k of one correction to
    degree k+2 of the next, so no degree reads a higher one."""

    corrections: tuple[TimeSeriesVec, ...]
    max_correction: int
    working_order: int


def _double_time_integral(source: list, m: int, order: int) -> TimeSeriesVec:
    """Map degree-k coefficients to degree k+2 divided by (k+1)(k+2);
    integration constants are zero, degrees beyond the order are cut."""
    rows = [(ZERO,) * m, (ZERO,) * m]
    for k in range(order - 1):
        q = Const(Fraction(1, (k + 1) * (k + 2)))
        rows.append(tuple(eprod([q, c]) for c in source[k]))
    return TimeSeriesVec(m, order, tuple(rows))


def solve_hpm(
    p: ProblemSpec, corrections: int, order: int | None = None
) -> HpmExpansion:
    """Compute corrections u^(0)..u^(corrections) to a working order.

    With ``order=None`` the working order is 2J+1 plus the degree of the
    forcing expanded to 2J+1, which keeps every correction whole when
    the forcing is a polynomial in time of degree at most 2J+1; the
    ``hpm`` command prints this.  An explicit ``order`` (at least 2J+1) skips that probe
    expansion; ``order=2J+1`` builds only the degrees that the
    comparison with the direct series reads."""
    if corrections < 0:
        raise ValueError("correction count must be nonnegative")
    final_degree = 2 * corrections + 1

    if order is None:
        # Degree of the forcing expanded to 2J+1 sets how much headroom
        # the working order needs beyond the finalized window.  The probe
        # expands to the largest working order possible, 2(2J+1), so the
        # forcing is expanded once; the call below reads a prefix.
        probe = forcing_coefficients(p, 2 * final_degree)[: final_degree + 1]
        forcing_degree = max(
            (j for j, vec in enumerate(probe) if any(c != ZERO for c in vec)),
            default=0,
        )
        working = final_degree + forcing_degree
    elif order < final_degree:
        raise ValueError(
            f"working order {order} is below the finalized degree {final_degree}"
        )
    else:
        working = order
    f = forcing_coefficients(p, working)

    out = [TimeSeriesVec.from_initial(p.u0, p.u1, working)]
    for j in range(1, corrections + 1):
        prev = out[-1]
        source = []
        for k in range(working + 1):
            s = apply_operator(p.L, prev.coefficient(k))
            if j == 1:
                s = vec_add(s, f[k])
            source.append(series_scale_matrix(p.rho_inv, s))
        out.append(_double_time_integral(source, p.m, working))
    return HpmExpansion(tuple(out), corrections, working)


def partial_sum(h: HpmExpansion, trunc: int) -> TimeSeriesVec:
    """Coefficient-wise sum of all corrections, truncated to degrees
    0..trunc."""
    if trunc < 0:
        raise ValueError("truncation degree must be nonnegative")
    total = TimeSeriesVec.zero(h.corrections[0].m, trunc)
    for correction in h.corrections:
        total = total.plus(correction.truncated(trunc))
    return total
