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

from .poly import ZERO, Ring, add
from .series import (
    ProblemSpec,
    Rows,
    TimeSeriesVec,
    apply_rows,
    check_integer,
    forcing_rows,
    problem_ring,
    rows_series,
    scale_rows,
    series_rows,
)


@dataclass(frozen=True)
class HpmExpansion:
    """Corrections u^(0)..u^(J), each a polynomial in time stored to a
    common working order of at least 2J+1.

    Degrees 0..2J+1 of every correction do not depend on the working
    order: the double time integral maps degree k of one correction to
    degree k+2 of the next, so no degree reads a higher one."""

    corrections: tuple[TimeSeriesVec, ...]
    working_order: int


def hpm_rows(p: ProblemSpec, corrections: int, working: int) -> list[Rows]:
    """Corrections u^(0)..u^(corrections) to degree ``working``, on
    polynomials of ``problem_ring(p)``.

    u^(0) holds degrees 0 and 1 and each correction integrates twice, so
    correction j is zero below degree 2j: correction j >= 2 is built
    from degree 2j-2 of the previous one, and its lower rows are zero."""
    ring = problem_ring(p)
    f = forcing_rows(p, working)
    zero = [ZERO] * p.m
    first = [list(map(ring.from_tree, p.u0)), list(map(ring.from_tree, p.u1))]
    out = [first + [zero] * (working - 1)]
    # double time integral of rho^-1 (L u^(j-1) + f delta_j1), constants
    # zero: degree k over (k+1)(k+2) is degree k+2, cut at the working order
    shift = [Fraction(1, (k + 1) * (k + 2)) for k in range(working - 1)]
    for j in range(1, corrections + 1):
        low, previous = 2 * j - 2, out[-1]
        out.append([zero] * (low + 2) + [
            scale_rows(p.rho_inv, apply_rows(ring, p.L, previous[k], f[k] if j == 1 else zero),
                       shift[k])
            for k in range(low, working - 1)
        ])
    return out


def working_order(p: ProblemSpec, corrections: int) -> int:
    """2J+1 plus the degree of the forcing expanded to 2J+1, which keeps
    every correction whole when the forcing is a polynomial in time of
    degree at most 2J+1; the ``hpm`` command prints corrections to this
    order."""
    check_integer(corrections, "correction count")
    if corrections < 0:
        raise ValueError("correction count must be nonnegative")
    final_degree = 2 * corrections + 1
    # the forcing's degree through 2J+1 is the headroom the working order
    # needs; expanding to 2(2J+1), the largest, lets hpm_rows read a prefix
    probe = forcing_rows(p, 2 * final_degree)[: final_degree + 1]
    forcing_degree = max(
        (j for j, vec in enumerate(probe) if any(vec)), default=0
    )
    return final_degree + forcing_degree


def solve_hpm(p: ProblemSpec, corrections: int) -> HpmExpansion:
    """Compute corrections u^(0)..u^(corrections) to ``working_order``.
    The comparison with the direct series reads only degrees 0..2J+1
    and builds them with ``hpm_rows`` directly."""
    working = working_order(p, corrections)
    ring = problem_ring(p)
    return HpmExpansion(tuple(
        rows_series(ring, rows) for rows in hpm_rows(p, corrections, working)
    ), working)


def sum_rows(corrections: list[Rows], trunc: int) -> Rows:
    """Degree-wise sum of the corrections through degree ``trunc``."""
    m = len(corrections[0][0])
    return [
        [add(*(rows[k][i] for rows in corrections if k < len(rows))) for i in range(m)]
        for k in range(trunc + 1)
    ]


def partial_sum(h: HpmExpansion, trunc: int) -> TimeSeriesVec:
    """Coefficient-wise sum of all corrections, truncated to degrees
    0..trunc; degrees past the working order are not known."""
    check_integer(trunc, "truncation degree")
    if not 0 <= trunc <= h.working_order:
        raise ValueError(f"truncation degree must be in 0..{h.working_order}")
    rings = {vars(c).get("_ring") for c in h.corrections}  # None for a series of trees
    ring = rings.pop() if len(rings) == 1 and None not in rings else Ring(
        *(t for c in h.corrections for row in c.coeffs for t in row))
    corrections = [series_rows(ring, c) for c in h.corrections]
    return rows_series(ring, sum_rows(corrections, trunc))
