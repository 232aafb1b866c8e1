"""Command line interface: solve, hpm, compare, residual, expand.

Exit codes: 0 success or check passed, 2 input error, 3 check failed,
4 internal error.  Output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from .errors import PdeSeriesError
from .expr import DEFAULT_PLAN, SamplePlan
from .hpm import partial_sum, solve_hpm
from .parser import load_problem, parse_expr, print_polys
from .poly import Ring
from .series import ProblemSpec, TimeSeriesVec, expand_rows, series_rows
from .taylor import solve_taylor, taylor_coefficients
from .verify import equivalence_check, residual_check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("problem", help="path to a JSON problem file")
    sp.add_argument("--seed", type=int, default=DEFAULT_PLAN.seed,
                    help="seed for the sampled-equality oracle (default %(default)s)")
    sp.add_argument("--tolerance", type=float, default=DEFAULT_PLAN.tolerance,
                    help="relative tolerance of the oracle (default %(default)s)")
    sp.add_argument("--format", dest="output_format", choices=("text", "json"),
                    default="text", help="output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then shared:
    parsing leaves it unchanged."""
    root = argparse.ArgumentParser(
        prog="pdeseries",
        description="Truncated time power series for linear vector PDE systems: "
                    "direct recursion, perturbation corrections, and cross checks.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve",
        help="compute the series by the direct recursion and report exact termination",
    )
    _add_common(solve)
    solve.add_argument("--order", type=int, default=None,
                       help="override the truncation order from the file "
                            "(order N keeps coefficients 0..N)")

    hpm = sub.add_parser("hpm", help="compute perturbation corrections and their sum")
    _add_common(hpm)
    hpm.add_argument("--corrections", type=int, required=True,
                     help="number of corrections beyond the zeroth (>= 0)")

    compare = sub.add_parser(
        "compare",
        help="check the two engines agree coefficient-wise up to degree 2J+1",
    )
    _add_common(compare)
    compare.add_argument("--corrections", type=int, required=True,
                         help="number of corrections J (>= 1)")

    residual = sub.add_parser(
        "residual",
        help="check the direct solution satisfies the equation through degree N-2",
    )
    _add_common(residual)
    residual.add_argument("--order", type=int, default=None,
                          help="override the truncation order from the file")

    expand = sub.add_parser(
        "expand", help="expand a single expression about time zero"
    )
    expand.add_argument("--expr", required=True,
                        help="expression over x1..xn and t")
    expand.add_argument("--order", type=int, required=True,
                        help="highest coefficient degree to report (>= 0)")
    expand.add_argument("--dim", type=int, default=3,
                        help="spatial dimension for variable validation (default 3)")
    expand.add_argument("--format", dest="output_format", choices=("text", "json"),
                        default="text", help="output format")

    return root


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _printed(ring: Ring, series: list[TimeSeriesVec]) -> list[list[tuple[str, ...]]]:
    """The text of each coefficient of each of ``series``, from one ``print_polys``."""
    groups = [series_rows(ring, s) for s in series]
    texts = print_polys(ring, [c for rows in groups for vec in rows for c in vec])
    rows_of = zip(*[iter(texts)] * len(groups[0][0]))  # each row's m texts in turn
    return [list(islice(rows_of, len(rows))) for rows in groups]


def _series_lines(rows: list[tuple[str, ...]], indent: str = "") -> list[str]:
    if len(rows[0]) == 1:
        return [f"{indent}u[{j}] = {c}" for j, (c,) in enumerate(rows)]
    return [f"{indent}u[{j}][{k}] = {c}" for j, vec in enumerate(rows) for k, c in enumerate(vec)]


def _problem_and_plan(args) -> tuple[ProblemSpec, SamplePlan]:
    """A file command's problem, at ``--order`` where given, and oracle plan."""
    problem = load_problem(args.problem)
    if getattr(args, "order", None) is not None:
        problem = problem.with_order(args.order)
    return problem, SamplePlan(seed=args.seed, tolerance=args.tolerance)


def _cmd_solve(args) -> int:
    problem, plan = _problem_and_plan(args)
    solution = solve_taylor(problem, plan)
    (rows,) = _printed(problem.ring, [solution.series])
    if args.output_format == "json":
        sys.stdout.write(_render_json({
            "order": problem.order,
            "m": problem.m,
            "coefficients": rows,
            "exact": solution.exact,
            "exact_reason": solution.exact_reason,
        }))
    else:
        for line in _series_lines(rows):
            print(line)
        verdict = f"exact ({solution.exact_reason})" if solution.exact else "not exact"
        print(f"verdict: {verdict}")
    return EXIT_OK


def _cmd_hpm(args) -> int:
    problem, _ = _problem_and_plan(args)  # the plan is checked, not used
    expansion = solve_hpm(problem, args.corrections)
    working = expansion.working_order
    *corrections, total = _printed(problem.ring,
                                   [*expansion.corrections, partial_sum(expansion, working)])
    if args.output_format == "json":
        sys.stdout.write(_render_json({
            "corrections": corrections,
            "partial_sum": total,
            "working_order": working,
        }))
    else:
        lines = []  # all of them before any is written
        for j, correction in enumerate(corrections):
            lines += [f"correction {j}:", *_series_lines(correction, indent="  ")]
        lines.append(f"partial sum (degrees 0..{working}):")
        lines += _series_lines(total, indent="  ")
        print("\n".join(lines))
    return EXIT_OK


def _print_check(report, output_format: str, passed: str, failed: str) -> int:
    """Print a check's report: JSON, or a table per degree and an
    ``overall:`` line of ``passed`` or ``failed``.  Return its exit code."""
    if output_format == "json":
        sys.stdout.write(_render_json(report.to_dict()))
    else:
        print("degree  status    max_deviation")
        for check in report.per_degree:
            status = "ok" if check.passed else "MISMATCH"
            print(f"{check.degree:<7d} {status:<9s} {check.max_deviation:.3e}")
        print(f"overall: {passed if report.overall else failed}")
    return EXIT_OK if report.overall else EXIT_CHECK_FAILED


def _cmd_compare(args) -> int:
    problem, plan = _problem_and_plan(args)
    report = equivalence_check(problem, args.corrections, plan)
    return _print_check(report, args.output_format, "equivalent", "MISMATCH")


def _cmd_residual(args) -> int:
    problem, plan = _problem_and_plan(args)
    report = residual_check(problem, taylor_coefficients(problem), plan)
    return _print_check(report, args.output_format, "pass", "FAIL")


def _cmd_expand(args) -> int:
    if not isinstance(args.expr, str):
        # argparse before Python 3.12 turns --expr=-- into an empty list
        raise ValueError("--expr needs an expression")
    expression = parse_expr(args.expr, args.dim, allow_time=True)
    rendered = print_polys(*expand_rows(expression, args.order), factored=True)
    if args.output_format == "json":
        sys.stdout.write(_render_json({"coefficients": rendered}))
    else:
        print("[" + ", ".join(rendered) + "]")
    return EXIT_OK


_DISPATCH = {
    "solve": _cmd_solve,
    "hpm": _cmd_hpm,
    "compare": _cmd_compare,
    "residual": _cmd_residual,
    "expand": _cmd_expand,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (PdeSeriesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
