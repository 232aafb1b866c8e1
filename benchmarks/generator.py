"""Seeded generator of small problems for the ``small_batch`` workload.

Each problem is emitted as problem-file JSON text, so the program's
parser sits on the timed path, together with the known answers the
gate checks: coefficient values of the direct series and of every
perturbation correction, computed with jets (``jets.py``) from the
generator's own description of the data.  Nothing here imports
pdeseries or the repository's test helpers, so neither can move the
workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from gate import POINTS
from jets import Jet

# Every (m, n, J) combination appears equally often in a batch.
SHAPES = tuple((m, n, j) for m in (1, 2) for n in (1, 2) for j in (1, 2, 3))

# Zero test for expected verdicts, on values of polynomial/trig data.
_VANISH = 1e-10


@dataclass(frozen=True)
class Piece:
    """coeff * x1^a1 * x2^a2 (kind "poly") or coeff * kind(x_var)."""

    kind: str
    coeff: Fraction
    powers: tuple[int, ...] = ()
    var: int = 0

    def text(self) -> str:
        if self.kind == "poly":
            body = "*".join(f"x{i + 1}^{a}" for i, a in enumerate(self.powers) if a)
        else:
            body = f"{self.kind}(x{self.var})"
        return f"({self.coeff})" + (f"*{body}" if body else "")

    def jet(self, xs: list[Jet]) -> Jet:
        if self.kind == "poly":
            out = Jet.const(float(self.coeff), xs[0].prec, len(xs))
            for x, a in zip(xs, self.powers):
                out = out * x.power(a)
            return out
        return xs[self.var - 1].apply(self.kind).scale(float(self.coeff))


Data = tuple[Piece, ...]


def _data_text(data: Data) -> str:
    return " + ".join(p.text() for p in data) if data else "0"


def _time_term_text(p: int, data: Data) -> str:
    prefix = {0: "", 1: "t*"}.get(p, f"t^{p}*")
    return f"{prefix}({_data_text(data)})"


def _data_jet(data: Data, xs: list[Jet]) -> Jet:
    out = Jet.const(0.0, xs[0].prec, len(xs))
    for p in data:
        out = out + p.jet(xs)
    return out


@dataclass(frozen=True)
class SmallProblem:
    m: int
    n: int
    corrections: int
    rho: tuple[tuple[int, ...], ...]
    # (row, col, coefficient as (rational, variable or 0), derivative orders)
    terms: tuple[tuple[int, int, tuple[Fraction, int], tuple[int, ...]], ...]
    u0: tuple[Data, ...]
    u1: tuple[Data, ...]
    # per component: (time power, data) or None for zero forcing
    f: tuple[tuple[int, Data] | None, ...]

    @property
    def order(self) -> int:
        return 2 * self.corrections + 1

    def text(self) -> str:
        def coeff_text(coeff) -> str:
            q, v = coeff
            return f"({q})*x{v}" if v else f"({q})"

        doc = {
            "m": self.m,
            "n": self.n,
            "rho": [[str(x) for x in row] for row in self.rho],
            "L": [
                {"row": r, "col": c, "coeff": coeff_text(coeff), "derivs": list(orders)}
                for r, c, coeff, orders in self.terms
            ],
            "f": [self.forcing_text(k) for k in range(self.m)],
            "u0": [_data_text(d) for d in self.u0],
            "u1": [_data_text(d) for d in self.u1],
            "order": self.order,
        }
        return json.dumps(doc)

    def forcing_text(self, component: int) -> str:
        fc = self.f[component]
        return "0" if fc is None else _time_term_text(*fc)

    @property
    def expand_terms(self) -> tuple[tuple[int, Data], ...]:
        """What ``expand`` gets: u0[0] + t*u1[0] plus every nonzero
        forcing component, a sum varied enough that no two tasks of a
        run coincide."""
        return ((0, self.u0[0]), (1, self.u1[0])) + tuple(fc for fc in self.f if fc is not None)

    def expand_text(self) -> str:
        return " + ".join(_time_term_text(p, data) for p, data in self.expand_terms)

    @property
    def forcing_degree(self) -> int:
        return max((fc[0] for fc in self.f if fc is not None), default=0)


def _piece(form: random.Random, value: random.Random, n: int) -> Piece:
    coeff = Fraction(value.choice((-3, -2, -1, 1, 2, 3)), value.choice((1, 1, 2)))
    if form.random() < 0.55:
        powers = tuple(form.randint(0, 3 if i == 0 else 2) for i in range(n))
        return Piece("poly", coeff, powers=powers)
    return Piece(form.choice(("sin", "cos")), coeff, var=form.randint(1, n))


def _data(form: random.Random, value: random.Random, n: int) -> Data:
    # distinct pieces with nonzero coefficients: the data never cancels
    pieces: dict[tuple, Piece] = {}
    for _ in range(form.randint(1, 2)):
        p = _piece(form, value, n)
        pieces.setdefault((p.kind, p.powers, p.var), p)
    return tuple(pieces.values())


def _rho(rng: random.Random, m: int) -> tuple[tuple[int, ...], ...]:
    while True:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(m))
        det = rows[0][0] if m == 1 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det:
            return rows


def small_problem(form: random.Random, value: random.Random,
                  shape: tuple[int, int, int]) -> SmallProblem:
    """A problem whose form (terms, derivative orders, kinds of data,
    powers, which forcings are zero) is drawn from ``form`` and whose
    numbers (rational coefficients, rho) are drawn from ``value``."""
    m, n, corrections = shape
    terms = []
    for _ in range(form.randint(1, 3)):
        orders = [0] * n
        for _ in range(form.choice((1, 2, 2))):
            orders[form.randrange(n)] += 1
        if form.random() < 0.75:
            coeff = (Fraction(value.choice((-2, -1, 1, 1, 2)), value.choice((1, 2))), 0)
        else:
            coeff = (Fraction(value.choice((-1, 1))), form.randint(1, n))
        terms.append((form.randrange(m), form.randrange(m), coeff, tuple(orders)))
    rho = _rho(value, m)
    u0 = tuple(_data(form, value, n) for _ in range(m))
    u1 = tuple(_data(form, value, n) for _ in range(m))
    f = tuple(
        None if form.random() < 0.25 else (form.randint(0, 2), _data(form, value, n))
        for _ in range(m)
    )
    return SmallProblem(m, n, corrections, rho, tuple(terms), u0, u1, f)


def batch(seed: int, index: int, count: int) -> list[SmallProblem]:
    """Batch ``index`` of a run: ``count`` problems cycling through
    SHAPES.  Their form is the same in every batch and their numbers
    are drawn from the run seed and ``index``, so every batch costs
    about the same while no two batches of a run share a problem."""
    form = random.Random("small_batch/form")
    value = random.Random(f"small_batch/{seed}/{index}")
    shapes = list(SHAPES)
    form.shuffle(shapes)
    return [small_problem(form, value, shapes[i % len(shapes)]) for i in range(count)]


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------

def _inverse(rho) -> list[list[Fraction]]:
    if len(rho) == 1:
        return [[Fraction(1, rho[0][0])]]
    (a, b), (c, d) = rho
    det = Fraction(a * d - b * c)
    return [[d / det, -b / det], [-c / det, a / det]]


class _Model:
    """The problem's data as jets about one point."""

    def __init__(self, p: SmallProblem, point):
        self.p = p
        prec = 2 * p.corrections
        xs = [Jet.var(i, point[i], prec, p.n) for i in range(p.n)]
        self.zero = Jet.const(0.0, prec, p.n)
        self.u0 = [_data_jet(d, xs) for d in p.u0]
        self.u1 = [_data_jet(d, xs) for d in p.u1]
        self.forcing = [None if fc is None else (fc[0], _data_jet(fc[1], xs)) for fc in p.f]
        self.coeffs = [
            Jet.const(float(q), prec, p.n) if not v else xs[v - 1].scale(float(q))
            for _, _, (q, v), _ in p.terms
        ]
        self.rho_inv = _inverse(p.rho)

    def f(self, j: int) -> list[Jet]:
        return [fc[1] if fc is not None and fc[0] == j else self.zero for fc in self.forcing]

    def apply_L(self, vec: list[Jet]) -> list[Jet]:
        rows = [self.zero] * self.p.m
        for (row, col, _, orders), coeff in zip(self.p.terms, self.coeffs):
            d = vec[col]
            for i, k in enumerate(orders):
                for _ in range(k):
                    d = d.deriv(i)
            rows[row] = rows[row] + coeff * d
        return rows

    def step(self, vec: list[Jet], scale: Fraction) -> list[Jet]:
        """scale * rho^{-1} vec."""
        m = self.p.m
        return [
            _sum([vec[c].scale(float(scale * self.rho_inv[r][c])) for c in range(m)], self.zero)
            for r in range(m)
        ]


def _sum(jets: list[Jet], zero: Jet) -> Jet:
    out = zero
    for j in jets:
        out = out + j
    return out


def _label(p: SmallProblem, j: int, k: int) -> str:
    return f"u[{j}]" if p.m == 1 else f"u[{j}][{k}]"


def expected(p: SmallProblem) -> dict:
    """Known answers: ``solve`` and ``hpm`` coefficient values at each
    point of POINTS (keyed like gate.coefficient_lines), the solve
    verdict line, the hpm working order, and the coefficients of
    ``expand`` on ``expand_terms`` to degree ``order``."""
    solve: dict[str, list[float]] = {}
    hpm: dict[str, list[float]] = {}
    expand: dict[str, list[float]] = {}
    linear_exact = tail_zero = True
    working = p.order + p.forcing_degree
    for point in POINTS:
        model = _Model(p, point)
        series = [model.u0, model.u1]
        for j in range(p.order - 1):
            w = [a + b for a, b in zip(model.apply_L(series[j]), model.f(j))]
            series.append(model.step(w, Fraction(1, (j + 1) * (j + 2))))
        for j, vec in enumerate(series):
            for k, jet in enumerate(vec):
                solve.setdefault(_label(p, j, k), []).append(jet.value)

        def vanishes(vec) -> bool:
            return all(abs(x.value) <= _VANISH for x in vec)

        first = [a + b for a, b in zip(model.apply_L(model.u1), model.f(1))]
        linear_exact &= (
            vanishes(model.u0) and vanishes(model.f(0)) and vanishes(first)
            and all(vanishes(model.f(j)) for j in range(2, p.order + 1))
            and not vanishes(model.u1)
        )
        tail_zero &= all(vanishes(series[j]) for j in range(2, p.order + 1))

        zero_vec = [model.zero] * p.m
        corrections = [[model.u0, model.u1] + [zero_vec] * (working - 1)]
        for c in range(1, p.corrections + 1):
            prev = corrections[-1]
            rows = [zero_vec, zero_vec]
            for k in range(working - 1):
                s = model.apply_L(prev[k])
                if c == 1:
                    s = [a + b for a, b in zip(s, model.f(k))]
                rows.append(model.step(s, Fraction(1, (k + 1) * (k + 2))))
            corrections.append(rows)
        for c, rows in enumerate(corrections):
            for j, vec in enumerate(rows):
                for k, jet in enumerate(vec):
                    hpm.setdefault(f"c{c}.{_label(p, j, k)}", []).append(jet.value)
        for j in range(working + 1):
            for k in range(p.m):
                total = sum(rows[j][k].value for rows in corrections)
                hpm.setdefault(f"sum.{_label(p, j, k)}", []).append(total)
        values = [0.0] * (p.order + 1)
        for power, data in p.expand_terms:
            values[power] += _data_jet(data, [Jet.const(x, 0, p.n) for x in point[:p.n]]).value
        for j, value in enumerate(values):
            expand.setdefault(f"g[{j}]", []).append(value)

    if linear_exact:
        verdict = "verdict: exact (linear-exact)"
    elif tail_zero:
        verdict = "verdict: exact (tail-zero)"
    else:
        verdict = "verdict: not exact"
    return {"solve": solve, "hpm": hpm, "expand": expand, "verdict": verdict,
            "working_order": working}
