"""Tests of the benchmark itself (not of pdeseries).

    python3 -m pytest benchmarks/tests -q

Run from the root of the checkout; the slowest test traces the heavy
compare task (about 10 s).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import generator  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _traced(tasks):
    """Trace the tasks in a freshly imported package."""
    cli = run.import_package()
    tracer = tracing.Tracer(sys.modules["pdeseries.expr"].Expr)
    tracer.install()
    try:
        outputs, span = run.run_round(cli, tasks, speed.Meter(), tracer)
    finally:
        tracer.uninstall()
    result = run.score_round(tasks, outputs, lambda s: s.net)
    return {**result, "wall_s": span.net}, tracer


def test_generator_is_deterministic_per_seed():
    a = [p.text() for p in generator.batch(7, 0, 24)]
    b = [p.text() for p in generator.batch(7, 0, 24)]
    c = [p.text() for p in generator.batch(8, 0, 24)]
    assert a == b
    assert a != c
    assert a != [p.text() for p in generator.batch(7, 1, 24)]
    assert generator.expected(generator.batch(7, 0, 1)[0]) == \
        generator.expected(generator.batch(7, 0, 1)[0])


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _ in run.TRACE_EXTRA + tuple(tracing.metric_names())]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(per_layer)) == len(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_gate_catches_a_corrupted_coefficient(tmp_path):
    cli = run.import_package()
    tasks = Workload("small_batch", 3, tmp_path).round(0)
    checked = 0
    for task in tasks:
        if task.command not in ("solve", "hpm", "expand"):
            continue
        code, out, _ = run.capture(cli, task.argv)
        expect = task.expect()
        assert gate.check(task.command, code, out, expect) is None
        labels = gate.coefficient_lines(task.command, out)
        # the largest coefficient, so the change is not below the floor
        label = max(labels, key=lambda k: max(abs(v) for v in expect.values[k]))
        text = labels[label]
        if task.command == "expand":
            parts = out.strip()[1:-1].split(", ")
            corrupted = "[" + ", ".join(
                f"2*({p})" if p == text else p for p in parts) + "]\n"
            reformatted = "[" + ", ".join(f"({p})*1 + 0" for p in parts) + "]\n"
        else:
            corrupted = out.replace(f" = {text}\n", f" = 2*({text})\n", 1)
            reformatted = re.sub(r" = (.*)\n", r" = (\1)*1 + 0\n", out)
        if max(abs(v) for v in expect.values[label]) < 1e-6:
            continue  # all-zero output: doubling changes nothing
        assert gate.check(task.command, code, corrupted, expect) is not None, task.key
        # a different printed form of the same values passes
        assert gate.check(task.command, code, reformatted, expect) is None, task.key
        checked += 1
        if checked >= 40:
            break
    assert checked >= 40


def test_meter_rescales_by_the_speed_seen_near_a_span():
    meter = speed.Meter(tick=1.0)
    meter.stamps = [0.0, 1.0, 2.0, 3.0, 10.0, 20.0]
    meter.speeds = [9.0, 1.0, 0.5, 0.5, 2.0, 7.0]
    # samples inside the span and up to PAD_TICKS ticks either side
    assert meter.seconds(speed.Span(3.5, 5.0, 1.5)) == pytest.approx(1.5 * 0.5)
    assert meter.seconds(speed.Span(9.5, 9.6, 0.1)) == pytest.approx(0.1 * 2.0)
    assert meter.seconds(speed.Span(1.5, 3.5, 2.0)) == pytest.approx(2.0 * 11 / 4)


def test_meter_samples_while_entered_and_leaves_its_time_out():
    with speed.Meter(tick=0.005) as meter:
        mark = meter.mark()
        t0 = speed.time.perf_counter()
        while speed.time.perf_counter() - t0 < 0.2:
            pass
        span = meter.span(mark)
    assert len(meter.stamps) >= 5
    assert 0 < span.net < span.end - span.start
    assert span.net + meter.spent == pytest.approx(span.end - span.start, abs=1e-3)
    assert meter.seconds(span) > 0


def test_gate_catches_wrong_verdict_and_exit_code():
    expect = gate.Expect(0, "overall: pass")
    assert gate.check("residual", 0, "x\noverall: pass\n", expect) is None
    assert gate.check("residual", 0, "x\noverall: FAIL\n", expect) is not None
    assert gate.check("residual", 4, "", expect) is not None
    assert gate.check("residual", 0, '{"overall": true}', gate.Expect(0, True)) is None
    assert gate.check("residual", 0, '{"overall": false}', gate.Expect(0, True)) is not None


def test_gate_parser_evaluates_printed_forms():
    x1, x2 = 0.3, -0.7
    env = (None, x1, x2)
    node = gate.parse("1/2*x1^2*(x2 - 3) - sin(x1)^(-2) + -x2")
    want = 0.5 * x1 ** 2 * (x2 - 3) - 1 / __import__("math").sin(x1) ** 2 - x2
    assert gate.evaluate(node, env) == pytest.approx(want)
    assert gate.parse("7")[1] == Fraction(7)


def test_two_traced_runs_give_identical_counts(tmp_path):
    plan_a = Workload("small_batch", 5, tmp_path / "a").round(0)[:60]
    plan_b = Workload("small_batch", 5, tmp_path / "b").round(0)[:60]
    _, first = _traced(plan_a)
    _, second = _traced(plan_b)
    timed = {"trace.uncovered_s", "trace.bookkeeping_s"}

    def counts(t):
        return {k: v for k, v in t.metrics().items()
                if not (k.endswith((".s", ".self_s")) or k in timed)}

    assert counts(first) == counts(second)
    assert first.metrics()["cli.main.calls"] == 60


def test_counts_on_heavy_compare_are_consistent(tmp_path):
    plan = Workload("heavy_2x2", 1, tmp_path)
    compare = next(t for t in plan.round(0) if t.command == "compare")
    result, tracer = _traced([compare])
    assert result["failures"] == []
    m = tracer.metrics()
    J, working = 4, 18
    assert m["series.apply_operator.calls"] == (2 * J + 1 - 1) + J * (working + 1) == 84
    assert m["hpm.useful_ratio"] == pytest.approx(8 / 19)
    assert m["series.expansions_per_forcing"] == 3
    assert m["expr.oracle_calls"] == 20
    assert m["expr.oracle_structural_ratio"] == pytest.approx(12 / 20)
    # module self times, uncovered time and bookkeeping add up to the wall time
    accounted = sum(m[f"{mod}.self_s"] for mod in tracing.MODULES)
    accounted += m["trace.uncovered_s"] + m["trace.bookkeeping_s"]
    assert accounted == pytest.approx(result["wall_s"], rel=1e-3, abs=1e-3)


def test_rebinding_covers_every_import_site():
    run.import_package()
    tracer = tracing.Tracer(sys.modules["pdeseries.expr"].Expr)
    tracer.install()
    try:
        sites = {(m.__name__, attr) for m, attr, _ in tracer._patched}
        for module in ("taylor", "hpm", "verify"):
            assert (f"pdeseries.{module}", "apply_operator") in sites
        assert ("pdeseries.expr", "evaluate") in sites
        assert ("pdeseries.cli", "print_expr") in sites
    finally:
        tracer.uninstall()
    assert not hasattr(sys.modules["pdeseries.series"].apply_operator, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "small_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_no_task_repeats_within_a_run(tmp_path):
    for name in ("heavy_2x2", "forcing_expand", "small_batch"):
        plan = Workload(name, 2, tmp_path / name)
        seen = set()
        for r in range(3):
            for t in plan.round(r):
                args = list(t.argv)
                if "--seed" in args:
                    i = args.index("--seed")
                    del args[i:i + 2]
                content = tuple(Path(a).read_text() if a.endswith(".prob") else a
                                for a in args)
                assert content not in seen, t.key
                seen.add(content)
