"""Span tracer installed around the library's public functions.

Nothing here lives in ``src/``: :func:`install` replaces each traced
function *where it is looked up* (a module attribute or a class attribute)
with a wrapper that records a span while the tracer is armed and calls
straight through otherwise.  Spans carry their parent, so every layer's
self time is its span's duration minus the time its direct child spans
cover.  Spans stay in memory and are written out once, at the end of the
run (:meth:`Tracer.write`).

Counts that the library already keeps (memo statistics, repair statistics)
are read from its public counters: the tracer only remembers which
evaluation contexts and repair engines were built while it was armed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Traced call sites: (module, attribute path, span name).  Functions are
#: patched in every module that imported them by name, because that module's
#: global is what the caller looks up.
TRACE_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.noc.scheduler", "CdcmScheduler.schedule", "noc.scheduler.schedule"),
    ("repro.noc.scheduler", "CdcmScheduler.schedule_subset", "noc.scheduler.subset"),
    ("repro.core.cdcm", "CdcmEvaluator.evaluate", "core.cdcm.evaluate"),
    ("repro.eval.repair", "CdcmRepairEngine.metric_delta", "eval.repair.delta"),
    ("repro.eval.context", "EvaluationContext.metrics", "eval.context.single"),
    (
        "repro.eval.context",
        "EvaluationContext.evaluate_metrics_batch",
        "eval.context.batch",
    ),
    ("repro.eval.vector", "VectorizedCwmKernel.price", "eval.vector.price"),
    ("repro.eval.route_table", "RouteTable.for_platform", "eval.route_table.build"),
    ("repro.search.annealing", "SimulatedAnnealing.search", "search"),
    ("repro.search.nsga2", "NSGA2Search.search", "search"),
    ("repro.codesign.engine", "CodesignSearch.search", "search"),
    ("repro.search.nsga2", "fast_non_dominated_sort", "search.sort"),
    ("repro.search.nsga2", "crowding_distances", "search.sort"),
    ("repro.codesign.engine", "fast_non_dominated_sort", "search.sort"),
    ("repro.analysis.pareto", "non_dominated", "search.sort"),
    ("repro.codesign.engine", "niche_select", "search.niche"),
    ("repro.codesign.engine", "associate_to_references", "search.niche"),
    ("repro.search.nsga2", "uniform_assignment_crossover", "search.variation"),
    ("repro.search.nsga2", "swap_mutation", "search.variation"),
    ("repro.codesign.engine", "uniform_assignment_crossover", "search.variation"),
    ("repro.codesign.engine", "swap_mutation", "search.variation"),
    ("repro.codesign.synthesis", "TableSynthesizer.mutate", "search.variation"),
    ("repro.codesign.synthesis", "TableSynthesizer.random_table", "search.variation"),
    ("repro.codesign.synthesis", "TableSynthesizer.certify", "codesign.certify"),
    ("repro.codesign.synthesis", "validate_deadlock_free", "noc.deadlock.validate"),
    ("repro.noc.deadlock", "validate_deadlock_free", "noc.deadlock.validate"),
)

#: Constructors whose instances the tracer remembers, to read their public
#: counters (``cache_info()``, ``stats``) after a traced operation.
REGISTERED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.eval.context", "EvaluationContext.__init__", "contexts"),
    ("repro.eval.repair", "CdcmRepairEngine.__init__", "repair_engines"),
)

#: The span every traced workload operation runs under.
ROOT_SPAN = "workload"

#: The span the benchmark's own output checks run under.
CHECK_SPAN = "bench.check"


class Tracer:
    """In-memory span recorder with per-name call, time and self-time totals."""

    def __init__(self) -> None:
        self.armed = False
        #: Finished spans: ``(id, parent id, name, start ns, end ns)``.
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.calls: Dict[str, int] = {}
        #: Inclusive time of the outermost span of each name (a name nested
        #: inside itself is not counted twice).
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.rows: Dict[str, int] = {}
        self.instances: Dict[str, list] = {"contexts": [], "repair_engines": []}
        # Open spans: [id, name, start ns, ns covered by direct children].
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([span_id, name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        stop = time.perf_counter_ns()
        span_id, name, start, covered = self._stack.pop()
        duration = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else 0, name, start, stop))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - covered
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.total_ns[name] = self.total_ns.get(name, 0) + duration

    @contextlib.contextmanager
    def paused(self, name: str) -> Iterator[None]:
        """Record the block as one span *name*, tracing nothing inside it.

        The benchmark's own output checks run under this, so the calls they
        make into the library do not count toward any layer.
        """
        if not self.armed:
            yield
            return
        self.begin(name)
        self.armed = False
        try:
            yield
        finally:
            self.armed = True
            self.end()

    def span(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so each armed call records one span called *name*."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    def counted_rows(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`span`, also summing ``len`` of the first array argument."""
        traced = self.span(name, fn)
        tracer = self

        @functools.wraps(fn)
        def counted(owner, tiles, *args, **kwargs):
            if tracer.armed:
                tracer.rows[name] = tracer.rows.get(name, 0) + len(tiles)
            return traced(owner, tiles, *args, **kwargs)

        return counted

    def registering(self, bucket: str, init: Callable) -> Callable:
        """*init* wrapped so armed constructions remember their instance."""
        tracer = self

        @functools.wraps(init)
        def register(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            if tracer.armed:
                tracer.instances[bucket].append(instance)

        return register

    def write(self, path: str, header: dict) -> None:
        """Write *header* and every recorded span as JSON lines to *path*."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = inspect.getattr_static(owner, attribute)
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(make(original.__func__)))
    else:
        setattr(owner, attribute, make(original))


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TRACE_POINTS` entry and :data:`REGISTERED` constructor."""
    for module_name, path, name in TRACE_POINTS:
        if name == "eval.vector.price":
            _patch(module_name, path, functools.partial(tracer.counted_rows, name))
        else:
            _patch(module_name, path, functools.partial(tracer.span, name))
    for module_name, path, bucket in REGISTERED:
        _patch(module_name, path, functools.partial(tracer.registering, bucket))


def _seconds(ns: int) -> float:
    return ns / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, float], operations: int) -> Dict[str, float]:
    """Per-layer metrics of the traced operations, averaged per operation.

    *counters* holds the public counters the workload read from the library
    objects (gate counters of a co-design result); memo and repair counters
    are read here from the instances the tracer remembered.
    """
    calls, total, own = tracer.calls, tracer.total_ns, tracer.self_ns
    hits = misses = 0
    for context in tracer.instances["contexts"]:
        info = context.cache_info()
        hits += info.hits
        misses += info.misses
    repair = {"deltas": 0, "exact_steps": 0, "resyncs": 0, "forced_resyncs": 0,
              "replayed_packets": 0}
    for engine in tracer.instances["repair_engines"]:
        for key in repair:
            repair[key] += getattr(engine.stats, key)

    def per_op(value: float) -> float:
        return value / operations

    certified = counters.get("tables_certified", 0)
    metrics = {
        "noc.scheduler.schedule_calls": per_op(calls.get("noc.scheduler.schedule", 0)),
        "noc.scheduler.schedule_s": per_op(_seconds(total.get("noc.scheduler.schedule", 0))),
        "noc.scheduler.subset_calls": per_op(calls.get("noc.scheduler.subset", 0)),
        "noc.scheduler.subset_s": per_op(_seconds(total.get("noc.scheduler.subset", 0))),
        "eval.repair.delta_calls": per_op(calls.get("eval.repair.delta", 0)),
        "eval.repair.delta_s": per_op(_seconds(total.get("eval.repair.delta", 0))),
        "eval.repair.self_s": per_op(_seconds(own.get("eval.repair.delta", 0))),
        "eval.repair.replayed_packets": per_op(repair["replayed_packets"]),
        "eval.repair.resyncs": per_op(repair["resyncs"]),
        "eval.repair.forced_resyncs": per_op(repair["forced_resyncs"]),
        "eval.repair.exact_ratio": _ratio(repair["exact_steps"], repair["deltas"]),
        "eval.context.batch_calls": per_op(calls.get("eval.context.batch", 0)),
        "eval.context.batch_s": per_op(_seconds(total.get("eval.context.batch", 0))),
        "eval.context.batch_self_s": per_op(_seconds(own.get("eval.context.batch", 0))),
        "eval.context.single_calls": per_op(calls.get("eval.context.single", 0)),
        "eval.context.single_s": per_op(_seconds(total.get("eval.context.single", 0))),
        "eval.context.memo_hits": per_op(hits),
        "eval.context.memo_misses": per_op(misses),
        "eval.context.memo_hit_ratio": _ratio(hits, hits + misses),
        "eval.vector.price_calls": per_op(calls.get("eval.vector.price", 0)),
        "eval.vector.price_rows": per_op(tracer.rows.get("eval.vector.price", 0)),
        "eval.vector.price_s": per_op(_seconds(total.get("eval.vector.price", 0))),
        "search.self_s": per_op(_seconds(own.get("search", 0))),
        "search.sort_s": per_op(_seconds(total.get("search.sort", 0))),
        "search.niche_s": per_op(_seconds(total.get("search.niche", 0))),
        "search.variation_s": per_op(_seconds(total.get("search.variation", 0))),
        "noc.deadlock.validate_calls": per_op(calls.get("noc.deadlock.validate", 0)),
        "noc.deadlock.validate_s": per_op(_seconds(total.get("noc.deadlock.validate", 0))),
        "codesign.certify_calls": per_op(calls.get("codesign.certify", 0)),
        "codesign.certify_s": per_op(_seconds(total.get("codesign.certify", 0))),
        "codesign.repair_ratio": _ratio(counters.get("tables_repaired", 0), certified),
        "codesign.rejected": per_op(counters.get("tables_rejected", 0)),
        "eval.route_table.builds": per_op(calls.get("eval.route_table.build", 0)),
        "eval.route_table.build_s": per_op(_seconds(total.get("eval.route_table.build", 0))),
        "core.cdcm.evaluate_calls": per_op(calls.get("core.cdcm.evaluate", 0)),
        "core.cdcm.evaluate_s": per_op(_seconds(total.get("core.cdcm.evaluate", 0))),
        "bench.check_s": per_op(_seconds(total.get(CHECK_SPAN, 0))),
        "trace.unattributed_s": per_op(_seconds(own.get(ROOT_SPAN, 0))),
    }
    return metrics
