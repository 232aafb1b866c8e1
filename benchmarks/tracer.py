"""Per-layer tracing of pdeseries from outside the package.

``Tracer.install`` replaces each public function listed in TRACED by a
timing wrapper at every import site: every ``pdeseries`` module whose
namespace binds the original function object gets the wrapper, so
``series.apply_operator`` is traced whether ``taylor``, ``hpm`` or
``verify`` calls it, and the oracle's calls to ``evaluate`` through the
globals of ``expr`` are traced too.  Private names are never wrapped, so
a rewrite of a module's internals cannot break the tracer.

Spans (id, parent id, task id, function, start, end) are kept in memory
and written out by ``write_spans``.  Time is charged to the module of
the innermost active wrapped call, or to "uncovered" when none is
active, so module self times plus uncovered time plus the tracer's own
bookkeeping add up to the traced wall time exactly.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import time

TRACED = {
    "cli": ("main",),
    "parser": ("load_problem", "parse_expr", "print_expr"),
    "expr": ("normalize", "esum", "eprod", "differentiate", "substitute",
             "evaluate", "sampled_deviation", "equal_sampled"),
    "series": ("apply_operator", "series_scale_matrix", "expand_in_time",
               "forcing_coefficients"),
    "taylor": ("taylor_coefficients", "detect_exact"),
    "hpm": ("solve_hpm", "partial_sum"),
    "verify": ("residual_check", "equivalence_check"),
}
MODULES = tuple(TRACED)
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric ``Tracer.metrics`` reports."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [(f"{mod}.self_s", "s") for mod in MODULES]
    out += [
        ("hpm.useful_ratio", "ratio"),
        ("hpm.rows_computed", "count"),
        ("series.expansions_per_forcing", "ratio"),
        ("expr.oracle_calls", "count"),
        ("expr.oracle_redraws", "count"),
        ("expr.oracle_structural_ratio", "ratio"),
        ("size.max_coeff_nodes", "count"),
        ("size.max_coeff_chars", "chars"),
        ("size.total_nodes", "count"),
        ("size.distinct_nodes", "count"),
        ("trace.uncovered_s", "s"),
        ("trace.bookkeeping_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


class Tracer:
    def __init__(self, expr_type: type, clock=time.perf_counter):
        self.expr_type = expr_type
        self.clock = clock
        n = len(FUNCTIONS)
        self.calls = [0] * n
        self.inclusive = [0.0] * n
        self.depth = [0] * n
        self.self_time = [0.0] * len(MODULES)
        self.uncovered = 0.0
        self.bookkeeping = 0.0
        self.last = self.clock()
        self.stack: list[tuple[int, int, int]] = []  # (function, module, span id)
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.started = 0
        self.task = 0
        self._patched: list[tuple[object, str, object]] = []
        # derived counters
        self.useful_rows = 0
        self.rows = 0
        self.forcing_expansions = 0
        self.problem_components = 0
        self.oracle_depth = 0
        self.oracle_calls = 0
        self.oracle_structural = 0
        self.oracle_redraws = 0
        self.max_nodes = 0
        self.max_chars = 0
        self.total_nodes = 0
        self.distinct_nodes = 0
        self._interned: dict = {}
        self._fields: dict[type, tuple[str, ...]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for fi, name in enumerate(FUNCTIONS):
            mod, fn_name = name.split(".")
            module = sys.modules.get(f"pdeseries.{mod}")
            fn = getattr(module, fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fi, MODULES.index(mod), fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pdeseries" and not mod_name.startswith("pdeseries."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def begin(self) -> None:
        """Start the accounting clock: time before this is not charged."""
        self.last = self.clock()

    def start_task(self, task_id: int) -> None:
        now = self.clock()
        self._charge(now)
        self.task = task_id
        self._interned = {}

    def _charge(self, now: float) -> None:
        if self.stack:
            self.self_time[self.stack[-1][1]] += now - self.last
        else:
            self.uncovered += now - self.last
        self.last = now

    def _wrap(self, fi: int, mi: int, fn):
        tracer = self
        clock = self.clock
        pre = getattr(self, "_pre_" + FUNCTIONS[fi].replace(".", "_"), None)
        post = getattr(self, "_post_" + FUNCTIONS[fi].replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            t0 = clock()
            tracer._charge(t0)
            stack = tracer.stack
            caller = stack[-1] if stack else (-1, -1, 0)
            if pre is not None:
                pre(args, kwargs, caller[0])
                t0 = tracer._book(t0)
            tracer.calls[fi] += 1
            outermost = tracer.depth[fi] == 0
            tracer.depth[fi] += 1
            tracer.started += 1
            span_id = tracer.started
            stack.append((fi, mi, span_id))
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                tracer._charge(t1)
                stack.pop()
                tracer.depth[fi] -= 1
                if outermost:
                    tracer.inclusive[fi] += t1 - t0
                tracer.spans.append((span_id, caller[2], tracer.task, fi, t0, t1))
                if post is not None:
                    post(args, kwargs, result, error)
                    tracer._book(t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _book(self, since: float) -> float:
        """Charge the time since ``since`` to bookkeeping."""
        now = self.clock()
        self.bookkeeping += now - since
        self.last = now
        return now

    # -- derived counters ---------------------------------------------------

    def _pre_expr_sampled_deviation(self, args, kwargs, caller):
        if self.oracle_depth == 0:
            self.oracle_calls += 1
            a = args[0] if args else kwargs.get("a")
            b = args[1] if len(args) > 1 else kwargs.get("b")
            if a == b:
                self.oracle_structural += 1
        self.oracle_depth += 1

    _pre_expr_equal_sampled = _pre_expr_sampled_deviation

    def _post_expr_sampled_deviation(self, args, kwargs, result, error):
        self.oracle_depth -= 1

    _post_expr_equal_sampled = _post_expr_sampled_deviation

    def _post_expr_evaluate(self, args, kwargs, result, error):
        if error is not None and self.oracle_depth and type(error).__name__ == "DomainError":
            self.oracle_redraws += 1

    def _post_hpm_solve_hpm(self, args, kwargs, result, error):
        if error is None:
            corrections = args[1] if len(args) > 1 else kwargs["corrections"]
            self.useful_rows += 2 * corrections
            self.rows += result.working_order + 1

    def _pre_series_expand_in_time(self, args, kwargs, caller):
        if caller != FUNCTIONS.index("cli.main"):
            self.forcing_expansions += 1

    def _post_parser_load_problem(self, args, kwargs, result, error):
        if error is None:
            self.problem_components += result.m

    def _post_parser_print_expr(self, args, kwargs, result, error):
        if error is not None:
            return
        e = args[0] if args else kwargs["e"]
        before = len(self._interned)
        nodes = self._count(e, {})
        self.total_nodes += nodes
        self.distinct_nodes += len(self._interned) - before
        self.max_nodes = max(self.max_nodes, nodes)
        self.max_chars = max(self.max_chars, len(result))

    def _count(self, node, seen: dict) -> int:
        """Tree size of ``node`` (shared subtrees counted per occurrence);
        interns every subtree structurally into the current task's table."""
        hit = seen.get(id(node))
        if hit is not None:
            return hit[0]
        scalars = [type(node).__name__]
        children = []
        for name in self._field_names(type(node)):
            value = getattr(node, name, None)
            if isinstance(value, self.expr_type):
                children.append(value)
            elif isinstance(value, tuple) and value and isinstance(value[0], self.expr_type):
                children.extend(value)
            else:
                scalars.append(value)
        size = 1
        keys = []
        for child in children:
            size += self._count(child, seen)
            keys.append(seen[id(child)][1])
        key = self._interned.setdefault((tuple(scalars), tuple(keys)), len(self._interned))
        seen[id(node)] = (size, key)
        return size

    def _field_names(self, cls: type) -> tuple[str, ...]:
        names = self._fields.get(cls)
        if names is None:
            if dataclasses.is_dataclass(cls):
                names = tuple(f.name for f in dataclasses.fields(cls))
            else:
                names = tuple(s for c in cls.__mro__ for s in getattr(c, "__slots__", ()))
            self._fields[cls] = names
        return names

    # -- results ------------------------------------------------------------

    def finish(self) -> None:
        self._charge(self.clock())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for fi, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = self.calls[fi]
            out[f"{name}.s"] = self.inclusive[fi]
        for mi, mod in enumerate(MODULES):
            out[f"{mod}.self_s"] = self.self_time[mi]
        out["hpm.useful_ratio"] = self.useful_rows / self.rows if self.rows else 0.0
        out["hpm.rows_computed"] = self.rows
        out["series.expansions_per_forcing"] = (
            self.forcing_expansions / self.problem_components
            if self.problem_components else 0.0
        )
        out["expr.oracle_calls"] = self.oracle_calls
        out["expr.oracle_redraws"] = self.oracle_redraws
        out["expr.oracle_structural_ratio"] = (
            self.oracle_structural / self.oracle_calls if self.oracle_calls else 0.0
        )
        out["size.max_coeff_nodes"] = self.max_nodes
        out["size.max_coeff_chars"] = self.max_chars
        out["size.total_nodes"] = self.total_nodes
        out["size.distinct_nodes"] = self.distinct_nodes
        out["trace.uncovered_s"] = self.uncovered
        out["trace.bookkeeping_s"] = self.bookkeeping
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """Gzipped text, one span per line: id parent task function start
        end (seconds from the first span's start)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# id parent task function start_s end_s\n")
            for sid, parent, task, fi, t0, t1 in self.spans:
                fh.write(f"{sid} {parent} {task} {FUNCTIONS[fi]} "
                         f"{t0 - origin:.9f} {t1 - origin:.9f}\n")
