"""Record the known answers of the fixed tasks into references.json.

    python3 benchmarks/record.py

Run from the root of a checkout whose outputs are trusted.  Recording
refuses unless, for every fixed problem, ``compare`` finds the two
engines equivalent and ``residual`` passes; ``wave_1d`` must also match
its closed form, and every ``expand`` result must match an expansion
computed with jets (``jets.py``), independently of pdeseries.  The
reference of a task is its exit code, its verdict and the values of its
printed coefficients at the points of gate.POINTS.
"""

from __future__ import annotations

import json
import math
import sys

import gate
from jets import Jet
from run import capture, import_package
from workloads import FIXED_TASKS, PROBLEM_FILES, REFERENCES, wave_values

# (problem, corrections for compare, order override for residual)
VALIDATION = {
    "heavy_2x2": ("4", "8"),
    "forcing_1x1": ("2", "10"),
    "forced_wave_2d": ("3", None),
    "wave_1d": ("3", None),
    "coupled_2x2": ("2", None),
}


def jet_expansion(expr: str, order: int) -> dict[str, list[float]]:
    """Time-expansion coefficients of ``expr`` at each point, via jets in t."""
    node = gate.parse(expr)
    out: dict[str, list[float]] = {}
    for point in gate.POINTS:
        env = (Jet.var(0, 0.0, order, 1),) + tuple(Jet.const(x, order, 1) for x in point)
        jet = gate.evaluate(node, env, lift=lambda q: Jet.const(float(q), order, 1),
                            call=lambda name, arg: arg.apply(name))
        for j in range(order + 1):
            out.setdefault(f"g[{j}]", []).append(jet.c.get((j,), 0.0))
    return out


def _close(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(
        math.isclose(x, y, rel_tol=1e-7, abs_tol=1e-12)
        for label in a for x, y in zip(a[label], b[label])
    )


def main() -> int:
    cli = import_package()
    for name, (corrections, order) in VALIDATION.items():
        path = str(PROBLEM_FILES[name])
        code, out, _ = capture(cli, ["compare", path, "--corrections", corrections])
        if code != 0 or gate.last_line(out) != "overall: equivalent":
            raise SystemExit(f"refusing to record: compare fails on {name}")
        residual = ["residual", path] + (["--order", order] if order else [])
        code, out, _ = capture(cli, residual)
        if code != 0 or gate.last_line(out) != "overall: pass":
            raise SystemExit(f"refusing to record: residual fails on {name}")

    references = {}
    for tasks in FIXED_TASKS.values():
        for key, command, source, extra in tasks:
            if command == "expand":
                argv = ["expand", "--expr", source, *extra]
            else:
                argv = [command, str(PROBLEM_FILES[source]), *extra]
            code, out, _ = capture(cli, argv)
            if "--format" in extra:
                verdict = json.loads(out)["overall"]
            elif command in ("hpm", "expand"):
                verdict = None
            else:
                verdict = gate.last_line(out)
            values = None
            if command in ("solve", "hpm", "expand"):
                values = {
                    label: gate.value_at(text)
                    for label, text in gate.coefficient_lines(command, out).items()
                }
            if command == "expand" and not _close(values, jet_expansion(source, int(extra[-1]))):
                raise SystemExit(f"refusing to record: {key} disagrees with the jet expansion")
            if source == "wave_1d" and command in ("solve", "hpm"):
                order = json.loads(PROBLEM_FILES["wave_1d"].read_text())["order"]
                corrections = int(extra[1]) if command == "hpm" else 0
                if not _close(values, wave_values(command, corrections, order, 1)):
                    raise SystemExit(f"refusing to record: {key} misses the closed form")
            references[key] = {"exit": code, "verdict": verdict, "values": values}
            print(f"recorded {key}: exit {code}, {len(values or {})} coefficients",
                  file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
