"""The benchmark's workloads, as rounds of CLI tasks with known answers.

A run executes rounds of its workload.  No task repeats within a run,
so a cache can only help inside a task, as it would for a CLI user:

* the fixed problems (the heavy 2x2 problem, the forcing-heavy 1x1
  problem, the three bundled problems) and the ``expand`` expressions
  are scaled in round r by a factor c_r (1 in round 0, distinct seeded
  integers after).  The equations are linear, so every coefficient is
  c_r times the round-0 one and the work is the same, but no tree of
  one round equals a tree of another;
* ``small_batch`` draws fresh random problems in every round, and runs
  each through solve, hpm, residual, compare, and expand of
  ``u0[0] + t*u1[0] + f``.

Known answers come from ``references.json`` (recorded by ``record.py``),
from the closed form of ``wave_1d``, and for random problems from
``generator.expected``.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import generator
from gate import POINTS, Expect

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"

# Problem files: those of the benchmark, and the bundled ones of the repo.
PROBLEM_FILES = {
    "heavy_2x2": BENCH_DIR / "problems" / "heavy_2x2.prob",
    "forcing_1x1": BENCH_DIR / "problems" / "forcing_1x1.prob",
    "forced_wave_2d": ROOT / "problems" / "forced_wave_2d.prob",
    "wave_1d": ROOT / "problems" / "wave_1d.prob",
    "coupled_2x2": ROOT / "problems" / "coupled_2x2.prob",
}

FORCING_EXPR = "exp(sin(x1*t))*tanh(t+x2)"

# (reference key, command, problem name or expression, extra arguments)
FIXED_TASKS = {
    "heavy_2x2": (
        # the heavy forcing to the working order of hpm in compare J=4; it
        # runs first, right after the collector ran, so the small task does
        # not inherit collection pauses from the big ones
        ("heavy_2x2/expand", "expand", "exp(t)*sin(x1+t)*cos(x2)", ("--order", "18")),
        ("heavy_2x2/compare", "compare", "heavy_2x2", ("--corrections", "4")),
        ("heavy_2x2/residual", "residual", "heavy_2x2", ("--order", "8")),
        ("heavy_2x2/solve", "solve", "heavy_2x2", ("--order", "8")),
        ("heavy_2x2/hpm", "hpm", "heavy_2x2", ("--corrections", "3")),
    ),
    "forcing_expand": (
        ("forcing/expand12", "expand", FORCING_EXPR, ("--order", "12")),
        ("forcing/expand14", "expand", "sinh(x1+t^2)*exp(-t*x2)", ("--order", "14")),
        ("forcing/expand10", "expand", "cosh(x1*t)*sin(t^2+x2)*exp(t)", ("--order", "10")),
        ("forcing_1x1/solve", "solve", "forcing_1x1", ("--order", "10")),
        ("forcing_1x1/residual", "residual", "forcing_1x1", ("--order", "10")),
        ("forcing_1x1/hpm", "hpm", "forcing_1x1", ("--corrections", "2")),
        ("forcing_1x1/compare", "compare", "forcing_1x1", ("--corrections", "2")),
    ),
    "small_batch": (
        # the README commands, plus solve on wave_1d for its closed form
        ("forced_wave_2d/solve", "solve", "forced_wave_2d", ("--order", "6")),
        ("wave_1d/solve", "solve", "wave_1d", ()),
        ("wave_1d/hpm", "hpm", "wave_1d", ("--corrections", "2")),
        ("wave_1d/compare", "compare", "wave_1d", ("--corrections", "3")),
        ("coupled_2x2/residual", "residual", "coupled_2x2", ("--format", "json")),
        ("readme/expand", "expand", "x1^2*exp(t)", ("--order", "3")),
    ),
}
WORKLOADS = tuple(FIXED_TASKS)
COMMANDS = ("solve", "hpm", "compare", "residual", "expand")

SMALL_BATCH_PROBLEMS = 96


@dataclass(frozen=True)
class Task:
    task_id: int
    key: str
    command: str
    argv: tuple[str, ...]
    # the known answer; computed when the gate needs it, after the round
    expect: Callable[[], Expect]


def scaled_problem_text(template: dict, c: int) -> str:
    """The problem with u0, u1 and f multiplied by c."""
    doc = dict(template)
    if c != 1:
        for key in ("u0", "u1", "f"):
            doc[key] = [f"{c}*({s})" for s in doc[key]]
    return json.dumps(doc)


def wave_values(command: str, corrections: int, order: int, c: int) -> dict[str, list[float]]:
    """Closed form of wave_1d: u = c*cos(t)*sin(x1), so degree 2k is
    c*(-1)^k sin(x1)/(2k)! and odd degrees vanish; correction k of hpm
    is exactly the degree-2k term."""
    def term(j: int) -> list[float]:
        if j % 2:
            return [0.0] * len(POINTS)
        k = j // 2
        return [c * (-1) ** k * math.sin(p[0]) / math.factorial(j) for p in POINTS]

    zero = [0.0] * len(POINTS)
    if command == "solve":
        return {f"u[{j}]": term(j) for j in range(order + 1)}
    working = 2 * corrections + 1
    out = {}
    for i in range(corrections + 1):
        for j in range(working + 1):
            out[f"c{i}.u[{j}]"] = term(j) if j == 2 * i else zero
    for j in range(working + 1):
        out[f"sum.u[{j}]"] = term(j)
    return out


class Workload:
    """Builds the rounds of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in FIXED_TASKS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.references = json.loads(REFERENCES.read_text())
        self.templates = {k: json.loads(p.read_text()) for k, p in PROBLEM_FILES.items()}
        rng = random.Random(f"{name}/{seed}")
        self.scales = [1] + rng.sample(range(2, 1000), 200)
        self.rng = rng
        self.next_id = 0

    def _task(self, key: str, command: str, argv: list[str],
              expect: Callable[[], Expect]) -> Task:
        self.next_id += 1
        if command != "expand":
            argv += ["--seed", str(self.rng.randrange(2 ** 31))]
        return Task(self.next_id, key, command, tuple(argv), expect)

    def round(self, r: int) -> list[Task]:
        """Tasks of round r; writes the round's problem files."""
        if r >= len(self.scales):
            raise ValueError(f"at most {len(self.scales)} rounds per run")
        c = self.scales[r]
        self.workdir.mkdir(parents=True, exist_ok=True)
        tasks = []
        written = {}
        for key, command, source, extra in FIXED_TASKS[self.name]:
            if command == "expand":
                expr = source if c == 1 else f"{c}*({source})"
                argv = ["expand", "--expr", expr, *extra]
            else:
                if source not in written:
                    path = self.workdir / f"r{r}_{source}.prob"
                    path.write_text(scaled_problem_text(self.templates[source], c))
                    written[source] = str(path)
                argv = [command, written[source], *extra]
            expect = functools.partial(self._expect, key, command, extra, c)
            tasks.append(self._task(key, command, argv, expect))
        if self.name == "small_batch":
            tasks += self._random_tasks(r)
        return tasks

    def _expect(self, key: str, command: str, extra, c: int) -> Expect:
        ref = self.references[key]
        values = ref["values"]
        if key.startswith("wave_1d/") and command in ("solve", "hpm"):
            corrections = int(extra[1]) if command == "hpm" else 0
            values = wave_values(command, corrections, self.templates["wave_1d"]["order"], c)
        elif values is not None:
            values = {label: [c * v for v in vs] for label, vs in values.items()}
        return Expect(ref["exit"], ref["verdict"], values)

    def _random_tasks(self, r: int) -> list[Task]:
        tasks = []
        for i, p in enumerate(generator.batch(self.seed, r, SMALL_BATCH_PROBLEMS)):
            path = str(self.workdir / f"r{r}_p{i}.prob")
            Path(path).write_text(p.text())
            answers = functools.cache(functools.partial(generator.expected, p))
            j = str(p.corrections)
            for command, argv in (
                ("solve", ["solve", path]),
                ("hpm", ["hpm", path, "--corrections", j]),
                ("residual", ["residual", path]),
                ("compare", ["compare", path, "--corrections", j]),
                ("expand", ["expand", "--expr", p.expand_text(), "--order", str(p.order),
                            "--dim", str(p.n)]),
            ):
                expect = functools.partial(_random_expect, answers, command)
                tasks.append(self._task(f"random/{command}", command, argv, expect))
        return tasks


def _random_expect(answers, command: str) -> Expect:
    e = answers()
    if command == "solve":
        return Expect(0, e["verdict"], e["solve"])
    if command == "residual":
        return Expect(0, "overall: pass")
    if command == "compare":
        return Expect(0, "overall: equivalent")
    return Expect(0, None, e[command])
