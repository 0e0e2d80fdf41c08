"""Outside-in tracing for the traced run.

`Tracer.installed()` replaces the library's public functions, as they
are bound where they are called, with wrappers that record one span per
call (name, start, end, parent span, op id) and, for a few calls, work
counters read from the return value. Nothing inside the library
changes; the originals are restored when the context exits. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from xorsat_reduce import gf2, grover, hamcycle, instances, reduction, solvers, sweeps
from xorsat_reduce.reduction import Reduction, XorInfeasible


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_reduce(counters, args, kwargs, result):
    counters["reduce_calls"] += 1
    counters["xor_unsat"] += isinstance(result, XorInfeasible)


def _count_backtrack(counters, args, kwargs, result):
    first, stats = result
    counters["tree_nodes"] += stats.total_nodes
    counters["solutions"] += first if isinstance(first, int) else first.satisfiable


def _count_scan_all(counters, args, kwargs, result):
    red = _arg(args, kwargs, 1, "reduction")
    if isinstance(red, Reduction):
        counters["candidates"] += 1 << red.free_count
    counters["hits"] += result


def _count_scan_first(counters, args, kwargs, result):
    counters["candidates"] += result.queries
    counters["hits"] += result.satisfiable


def _count_mask(counters, args, kwargs, result):
    counters["candidates"] += result.size
    counters["hits"] += int(result.sum())


def _count_grover_unknown(counters, args, kwargs, result):
    counters["grover_queries"] += result.queries


def _count_grover_known(counters, args, kwargs, result):
    counters["grover_queries"] += result[2]


# (owner, attribute, span name, counter hook). The gf2 entries are module
# attributes, so calls between gf2 functions are traced as nested spans;
# every other entry is the name as imported into the module that calls it.
_GF2_FUNCTIONS = ("row_reduce", "rank", "matvec", "kernel_basis", "solve_particular",
                  "inconsistency_witness", "inverse", "standard_form")
TRACE_POINTS = (
    *((gf2, f, f"gf2.{f}", None) for f in _GF2_FUNCTIONS),
    (instances, "parse_instance", "instances.parse", None),
    (hamcycle, "parse_graph", "instances.parse", None),
    (sweeps, "gen_locked_random", "instances.gen", None),
    (reduction, "reduce_instance", "reduction.reduce", _count_reduce),
    (solvers, "reduce_instance", "reduction.reduce", _count_reduce),
    (sweeps, "reduce_instance", "reduction.reduce", _count_reduce),
    (hamcycle, "reduce_instance", "reduction.reduce", _count_reduce),
    (sweeps, "build_linear_system", "reduction.build_linear_system", None),
    (solvers, "count_enumerate", "solvers.scan", _count_scan_all),
    (solvers, "solve_enumerate", "solvers.scan", _count_scan_first),
    (solvers, "backtrack_count", "solvers.backtrack", _count_backtrack),
    (sweeps, "backtrack_count", "solvers.backtrack", _count_backtrack),
    (solvers, "backtrack_solve", "solvers.backtrack", _count_backtrack),
    (solvers, "optimize_permutation", "solvers.optimize_permutation", None),
    (sweeps, "optimize_permutation", "solvers.optimize_permutation", None),
    (grover, "grover_search_unknown", "grover.search", _count_grover_unknown),
    (grover, "grover_search_known", "grover.statevector", _count_grover_known),
    (hamcycle, "solve_hc", "hamcycle.solve", None),
    (sweeps, "tree_sweep", "sweeps.tree_sweep", None),
    (sweeps, "kernel_sweep", "sweeps.kernel_sweep", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index (-1 for none), op id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook=None):
        name_id = self._name_id(name)
        spans, open_spans, counters = self.spans, self._open, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACE_POINTS]
        mask = grover.OracleSpec.__dict__["solution_mask"]
        try:
            for (owner, attr, name, hook), (_, _, original) in zip(TRACE_POINTS, saved):
                setattr(owner, attr, self.wrap(original, name, hook))
            traced_mask = functools.cached_property(self.wrap(mask.func, "grover.mask", _count_mask))
            traced_mask.__set_name__(grover.OracleSpec, "solution_mask")
            grover.OracleSpec.solution_mask = traced_mask
            yield self
        finally:
            grover.OracleSpec.solution_mask = mask
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "names": self.names, "spans": self.spans}))

    def layer_metrics(self, ops: int, speed_factor: float, traced_s: float,
                      untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalized per attempted op where they are totals.

        Span times are wall times multiplied by `speed_factor` (scaled CPU
        over raw wall seconds of the traced pass); traced_s and untraced_s
        are the two passes' scaled busy times over the same ops.
        """
        names = self.names
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        under_optimizer = [False] * len(self.spans)
        climb_rebuilds = 0
        optimizer_id = self._name_ids.get("solvers.optimize_permutation")
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            name = names[name_id]
            duration = (end - start) * speed_factor
            total[name] += duration
            calls[name] += 1
            self_time[name] += duration
            if parent >= 0:
                self_time[names[self.spans[parent][0]]] -= duration
                under_optimizer[i] = under_optimizer[parent] or self.spans[parent][0] == optimizer_id
            if name == "gf2.standard_form" and under_optimizer[i]:
                climb_rebuilds += 1
        c = self.counters
        scan_s = total["solvers.scan"] + total["grover.mask"]
        backtrack_s = total["solvers.backtrack"]
        per_op = 1.0 / max(ops, 1)
        gf2_self = sum(v for k, v in self_time.items() if k.startswith("gf2."))
        return {
            "gf2.standard_form_s": (total["gf2.standard_form"] * per_op, "s/op"),
            "gf2.standard_form_calls": (calls["gf2.standard_form"] * per_op, "calls/op"),
            "gf2.rank_s": (total["gf2.rank"] * per_op, "s/op"),
            "gf2.rank_calls": (calls["gf2.rank"] * per_op, "calls/op"),
            "gf2.self_s": (gf2_self * per_op, "s/op"),
            "solvers.optimize_permutation_self_s": (self_time["solvers.optimize_permutation"] * per_op, "s/op"),
            "solvers.climb_rebuilds_per_op": (climb_rebuilds * per_op, "calls/op"),
            "instances.gen_s": (total["instances.gen"] * per_op, "s/op"),
            "instances.gen_calls": (calls["instances.gen"] * per_op, "calls/op"),
            "instances.parse_s": (total["instances.parse"] * per_op, "s/op"),
            "reduction.reduce_s": (total["reduction.reduce"] * per_op, "s/op"),
            "reduction.reduce_calls": (c["reduce_calls"] * per_op, "calls/op"),
            "reduction.xor_unsat_ratio": (c["xor_unsat"] / c["reduce_calls"] if c["reduce_calls"] else 0.0, "ratio"),
            "solvers.backtrack_s": (backtrack_s * per_op, "s/op"),
            "solvers.tree_nodes": (c["tree_nodes"] * per_op, "nodes/op"),
            "solvers.nodes_per_s": (c["tree_nodes"] / backtrack_s if backtrack_s else 0.0, "nodes/s"),
            "solvers.solutions_per_node": (c["solutions"] / c["tree_nodes"] if c["tree_nodes"] else 0.0, "ratio"),
            "solvers.scan_s": (total["solvers.scan"] * per_op, "s/op"),
            "solvers.candidates": (c["candidates"] * per_op, "cand/op"),
            "solvers.candidates_per_s": (c["candidates"] / scan_s if scan_s else 0.0, "cand/s"),
            "solvers.hit_ratio": (c["hits"] / c["candidates"] if c["candidates"] else 0.0, "ratio"),
            "grover.mask_s": (total["grover.mask"] * per_op, "s/op"),
            "grover.search_s": ((total["grover.search"] + total["grover.statevector"]) * per_op, "s/op"),
            "grover.queries": (c["grover_queries"] * per_op, "queries/op"),
            "grover.statevector_s": (total["grover.statevector"] * per_op, "s/op"),
            "hamcycle.solve_s": (total["hamcycle.solve"] * per_op, "s/op"),
            "sweeps.self_s": ((self_time["sweeps.tree_sweep"] + self_time["sweeps.kernel_sweep"]) * per_op, "s/op"),
            "trace.spans_per_op": (len(self.spans) * per_op, "spans/op"),
            "trace.overhead": (untraced_s / traced_s if traced_s else 0.0, "ratio"),
        }
