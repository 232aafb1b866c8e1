"""Run one workload of the pdeseries benchmark and print its metrics.

    python3 benchmarks/run.py --workload heavy_2x2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src.
Every task goes in-process through ``pdeseries.cli.main`` with stdout
captured, so parsing, computing and rendering are timed as a CLI user
feels them, without interpreter start-up.  Rounds of tasks (see
``workloads.py``) run until ``--seconds`` is used up, at least
MIN_ROUNDS of them, each after a fresh import of the package; each
metric is the median over rounds.  Untraced times are speed-normalised
(``speed.py``): a timer samples the machine's speed while the tasks
run, and each task's seconds are rescaled by the speed seen around it,
so a shared host's load does not read as a slower program.  The gate
checks every task's output after its round, outside the timed phase.

With ``--trace 1`` the untraced rounds are followed by one round traced
by ``tracer.py``; the per-layer metrics come from that round, and its
spans are written to .bench_trace/ as gzipped text.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import speed
import tracer as tracing
from workloads import COMMANDS, ROOT, Workload

SRC = ROOT / "src"

MIN_ROUNDS = 3
MAX_ROUNDS = 60

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("hpm_s", "s"),
    ("compare_s", "s"),
    ("residual_s", "s"),
    ("expand_s", "s"),
    ("out_chars", "chars"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)
TRACE_EXTRA = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"),
)


def import_package():
    """Import pdeseries afresh from ./src and return its cli module."""
    if not (SRC / "pdeseries" / "cli.py").is_file():
        raise SystemExit(f"error: no pdeseries sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pdeseries" or n.startswith("pdeseries.")]:
        del sys.modules[name]
    cli = importlib.import_module("pdeseries.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "pdeseries").resolve():
        raise SystemExit(f"error: imported pdeseries from {cli.__file__}, not {SRC}")
    return cli


def capture(cli, argv, meter: speed.Meter | None = None) -> tuple[int, str, speed.Span]:
    """Run one CLI command in-process: exit code, stdout, time span
    (raw, if no entered meter is given)."""
    meter = meter or speed.Meter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mark = meter.mark()
        code = cli.main(list(argv))
        span = meter.span(mark)
    return code, out.getvalue(), span


def run_round(cli, tasks, meter: speed.Meter, tracer=None) -> tuple[list, speed.Span]:
    """Run the tasks once: (exit code, stdout, span) of each, and the
    span of the whole round."""
    gc.collect()
    outputs = []
    if tracer is not None:
        tracer.begin()
    mark = meter.mark()
    for task in tasks:
        if tracer is not None:
            tracer.start_task(task.task_id)
        outputs.append(capture(cli, task.argv, meter))
    span = meter.span(mark)
    if tracer is not None:
        tracer.finish()
    return outputs, span


def score_round(tasks, outputs, seconds) -> dict:
    """Gate the outputs; sum each command's time, ``seconds(span)``."""
    per_command = dict.fromkeys(COMMANDS, 0.0)
    failures = []
    chars = 0
    raw = 0.0
    for task, (code, out, span) in zip(tasks, outputs):
        raw += span.net
        per_command[task.command] += seconds(span)
        chars += len(out)
        reason = gate.check(task.command, code, out, task.expect())
        if reason is not None:
            failures.append(f"{task.key} {' '.join(task.argv)}: {reason}")
    return {"wall_s": sum(per_command.values()), "raw_wall_s": raw,
            "per_command": per_command, "out_chars": chars, "tasks": len(tasks),
            "failures": failures}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup = []
        rounds = []
        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        plan = None
        while True:
            # Set-up before every round: a fresh import, as a CLI process
            # would start, and the round's problem files.  Spreading the
            # set-up samples over the run steadies their median.
            # Times are speed-normalised by the meter (see speed.py).
            meter = speed.Meter()
            with meter:
                mark = meter.mark()
                cli = import_package()
                plan = plan or Workload(workload, seed, workdir)
                tasks = plan.round(len(rounds))
                setup_span = meter.span(mark)
                outputs, _ = run_round(cli, tasks, meter)
            setup.append(meter.seconds(setup_span))
            rounds.append(score_round(tasks, outputs, meter.seconds))
            times = " ".join(f"{c}={t:.4f}" for c, t in rounds[-1]["per_command"].items())
            print(f"round {len(rounds) - 1}: raw={rounds[-1]['raw_wall_s']:.4f} "
                  f"wall={rounds[-1]['wall_s']:.4f} setup={setup[-1]:.4f} {times}",
                  file=sys.stderr)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["raw_wall_s"] for r in rounds)
            if len(rounds) >= MAX_ROUNDS or (
                len(rounds) >= (1 if trace else MIN_ROUNDS) and elapsed + typical > budget
            ):
                break
        traced = None
        if trace:
            traced = traced_round(plan, len(rounds), workload, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_rounds = rounds + ([traced["round"]] if traced else [])
    attempted = sum(r["tasks"] for r in all_rounds)
    failures = [f for r in all_rounds for f in r["failures"]]
    for line in failures[:20]:
        print(f"gate: {line}", file=sys.stderr)
    if trace:
        metrics = dict(traced["metrics"])
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in rounds)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["fail_ratio"] = len(failures) / attempted
        units = dict(TRACE_EXTRA + tuple(traced["units"]))
    else:
        med = statistics.median
        metrics = {
            "wall_s": med(r["wall_s"] for r in rounds),
            "setup_s": med(setup),
            **{f"{c}_s": med(r["per_command"][c] for r in rounds)
               for c in COMMANDS},
            "out_chars": med(r["out_chars"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - len(failures) / attempted,
        }
        units = dict(END_TO_END)
    print(f"{workload} seed={seed}: {len(rounds)} untraced rounds, "
          f"{attempted} tasks, {len(failures)} failed", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced_round(plan, r: int, workload: str, seed: int) -> dict:
    """One round with the tracer installed.  The meter samples it too;
    the tracer's clock leaves the sampler's time out, and every traced
    time is rescaled by the round's mean speed factor, so the traced
    times compare with the untraced rounds' normalised ones."""
    cli = import_package()
    tasks = plan.round(r)
    meter = speed.Meter()
    tracer = tracing.Tracer(sys.modules["pdeseries.expr"].Expr, clock=meter.clock)
    tracer.install()
    try:
        with meter:
            outputs, span = run_round(cli, tasks, meter, tracer)
    finally:
        tracer.uninstall()
    result = score_round(tasks, outputs, meter.seconds)
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload}-{seed}.spans.gz")
    factor = result["wall_s"] / result["raw_wall_s"]
    units = tracing.metric_names()
    metrics = tracer.metrics()
    for name, unit in units:
        if unit == "s":
            metrics[name] *= factor
    metrics["trace.wall_s"] = span.net * factor
    return {"round": result, "metrics": metrics, "units": units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
