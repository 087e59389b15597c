"""Pluggable batch-pricing backends — the parallel half of the evaluation engine.

:meth:`repro.eval.context.EvaluationContext.evaluate_batch` is the seam every
population-based engine prices through (GA generations, exhaustive chunks,
multi-restart annealing, weight sweeps).  This module makes that seam
pluggable: a :class:`BatchBackend` decides *where* the uncached candidates of
a batch are priced —

* :class:`SerialBackend` prices them inline in the calling process (the
  default, and the reference semantics);
* :class:`ProcessPoolBackend` fans them out over a ``concurrent.futures``
  process pool.  Contexts are *picklable-light*: pickling drops the memo, the
  backend and the route table, and each worker rebuilds the table locally
  through the process-wide :func:`~repro.eval.route_table.get_route_table`
  cache — so tasks ship only the application graph and the candidate
  mappings, never the O(n^2) route arrays.

Both backends are bit-identical by construction: they run the same
``_compute_cost`` code on the same inputs, and the caller reassembles results
in submission order, so a seeded search returns the same mapping and the same
cost no matter which backend priced it (pinned by ``tests/test_parallel.py``).

The same pool also shards eager route-table construction by source row
(:func:`warm_route_table`), so >16x16 NoC sweeps do not pay the O(n^2)
warm-up on one core.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.eval.route_table import (
    RouteTable,
    get_route_table,
    register_route_table,
)
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.eval.context import EvaluationContext
    from repro.noc.platform import Platform

#: Tokens identifying contexts across the process boundary.  Monotonic within
#: the parent process, so a worker's per-token cache can never confuse two
#: different contexts (unlike ``id()``, which the allocator reuses).
_TOKEN_COUNTER = itertools.count(1)

#: How many unpickled contexts each worker process keeps alive.
_WORKER_CONTEXT_LIMIT = 8

#: Per-worker cache of rebuilt contexts, keyed by the parent-side token.
_WORKER_CONTEXTS: "OrderedDict[int, EvaluationContext]" = OrderedDict()


def _worker_context(token: int, payload: bytes) -> "EvaluationContext":
    """Resolve one task's context from the per-worker cache (unpickle on miss).

    The pickled context travels with every task (any worker may see a token
    first), but unpickling — which rebuilds the route table and the edge
    arrays — only happens on a per-worker cache miss.
    """
    context = _WORKER_CONTEXTS.get(token)
    if context is None:
        context = pickle.loads(payload)
        _WORKER_CONTEXTS[token] = context
        while len(_WORKER_CONTEXTS) > _WORKER_CONTEXT_LIMIT:
            _WORKER_CONTEXTS.popitem(last=False)
    else:
        _WORKER_CONTEXTS.move_to_end(token)
    return context


def _price_chunk(
    token: int, payload: bytes, mappings: Sequence[Any]
) -> List[float]:
    """Worker task: price one chunk of candidates with a cached context."""
    context = _worker_context(token, payload)
    return [context._compute_cost(mapping) for mapping in mappings]


def _price_metrics_chunk(
    token: int, payload: bytes, mappings: Sequence[Any]
) -> List[Any]:
    """Worker task: metric vectors of one chunk (the vector-objective twin).

    Prices through ``_compute_metrics_chunk`` so a vectorised context uses
    its array kernel per worker chunk instead of per-candidate loops.
    """
    context = _worker_context(token, payload)
    return list(context._compute_metrics_chunk(mappings))


def _route_rows(
    platform: "Platform", include_local: bool, start: int, stop: int
) -> Tuple[List[Tuple[int, ...]], List[Tuple[Tuple[int, int], ...]], List[int], List[float]]:
    """Worker task: route-table rows for source tiles ``start <= s < stop``.

    Returns the four row-major arrays (paths, links, hops, bit energy) for
    the slice, ready to be concatenated by
    :meth:`~repro.eval.route_table.RouteTable.from_tables`.
    """
    from repro.energy.bit_energy import bit_energy_route

    mesh = platform.mesh
    routing = platform.routing
    technology = platform.technology
    n = mesh.num_tiles
    paths: List[Tuple[int, ...]] = []
    links: List[Tuple[Tuple[int, int], ...]] = []
    hops: List[int] = []
    energy: List[float] = []
    for source in range(start, stop):
        for target in range(n):
            path = tuple(routing.route(mesh, source, target))
            paths.append(path)
            links.append(tuple(zip(path, path[1:])))
            hops.append(len(path))
            energy.append(bit_energy_route(technology, len(path), include_local))
    return paths, links, hops, energy


class BatchBackend(ABC):
    """Strategy deciding where a batch of uncached candidates is priced.

    A backend receives the context and the candidates that missed the memo
    (deduplication and memo bookkeeping stay in
    :meth:`~repro.eval.context.EvaluationContext.evaluate_batch`) and must
    return their costs in order.  Implementations must be *bit-identical* to
    serial pricing: same ``_compute_cost`` code, same inputs, same order.
    """

    #: Short identifier used in reports and benchmark tables.
    name: str = "backend"

    @abstractmethod
    def evaluate(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[float]:
        """Price *mappings* under *context* and return costs in order.

        Parameters
        ----------
        context:
            The evaluation context whose ``_compute_cost`` defines the price.
        mappings:
            Candidates to price (``Mapping`` objects or assignment dicts).

        Returns
        -------
        list of float
            ``[context._compute_cost(m) for m in mappings]``, possibly
            computed elsewhere.
        """

    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors of *mappings* under *context*, in order.

        The vector-objective twin of :meth:`evaluate` — this is what
        :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`
        (and therefore every scalar batch too) prices misses through, so
        memoised component vectors are shared by all scalarisation views.

        The base class deliberately raises instead of pricing inline: a
        backend written against the pre-vector protocol (overriding
        :meth:`evaluate` only) would otherwise keep type-checking while its
        fan-out silently stopped being used.  Subclasses must implement this
        method — :class:`SerialBackend` prices inline,
        :class:`ProcessPoolBackend` chunks across the pool.

        Parameters
        ----------
        context:
            The evaluation context whose ``_compute_metrics`` defines the
            components.
        mappings:
            Candidates to price (``Mapping`` objects or assignment dicts).

        Returns
        -------
        list of MetricVector
            ``[context._compute_metrics(m) for m in mappings]``, possibly
            computed elsewhere.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement evaluate_metrics(); "
            f"since the vector-objective redesign batch misses price metric "
            f"vectors, so backends must override evaluate_metrics (not just "
            f"the legacy scalar evaluate())"
        )

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Apply ``fn(*args)`` to every argument tuple, preserving order.

        The generic escape hatch for coarse-grained work that is not a batch
        of mappings — multi-restart annealing runs and route-table row shards
        go through here.  The default implementation runs serially.

        Parameters
        ----------
        fn:
            A picklable module-level callable.
        argslist:
            One positional-argument tuple per task.

        Returns
        -------
        list
            ``[fn(*args) for args in argslist]`` in submission order.
        """
        return [fn(*args) for args in argslist]

    def close(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __enter__(self) -> "BatchBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(BatchBackend):
    """Price batches inline in the calling process.

    The reference backend: :class:`ProcessPoolBackend` results are asserted
    bit-identical against it.  Passing ``backend=None`` to a context is
    equivalent but also skips batch-level dedup bookkeeping.
    """

    name = "serial"

    def evaluate(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[float]:
        """Price *mappings* by direct ``_compute_cost`` calls, in order."""
        return [context._compute_cost(mapping) for mapping in mappings]

    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors via ``_compute_metrics_chunk``, in order.

        The chunk call keeps serial pricing bit-identical to pooled pricing
        *and* lets a vectorised context price the whole batch with one array
        gather instead of a per-candidate loop.
        """
        return list(context._compute_metrics_chunk(mappings))


class ProcessPoolBackend(BatchBackend):
    """Fan batches out over a lazily created process pool.

    Workers rebuild evaluation contexts locally — contexts pickle *light*
    (application graph + platform, no memo, no route table) and the route
    table is re-derived once per worker through the process-wide
    :func:`~repro.eval.route_table.get_route_table` cache.  Rebuilt contexts
    are cached per worker and keyed by a parent-side token, so a GA pricing
    thousands of candidates unpickles its context a handful of times, not
    once per chunk.

    Parameters
    ----------
    n_workers:
        Pool size; defaults to ``os.cpu_count()``.
    chunk_size:
        Candidates per worker task; defaults to an even split of the batch
        over the workers (one task per worker).
    min_batch_size:
        Batches smaller than this are priced inline — process fan-out has a
        fixed cost per task that tiny batches cannot amortise.  Defaults to
        ``2 * n_workers``.
    start_method:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, ...); ``None`` uses the platform default.

    Notes
    -----
    The pool is created on first use and survives across batches; call
    :meth:`close` (or use the backend as a context manager) to shut it down.
    Results are reassembled in submission order, so pricing is bit-identical
    to :class:`SerialBackend` regardless of worker scheduling.  A worker that
    dies mid-batch (an OOM kill, a crash) breaks the whole executor; the
    backend then rebuilds the pool and resubmits that batch once, and only a
    second break in the same batch propagates ``BrokenProcessPool``.
    """

    name = "process-pool"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        min_batch_size: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        resolved = n_workers if n_workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
        self.n_workers = resolved
        self.chunk_size = chunk_size
        self.min_batch_size = (
            min_batch_size if min_batch_size is not None else 2 * resolved
        )
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        # token + pickled payload per context, invalidated when the context
        # is garbage collected (WeakKey) — tokens are never reused, so stale
        # worker-side cache entries can only age out, not alias.
        self._payloads: "weakref.WeakKeyDictionary[EvaluationContext, Tuple[int, bytes]]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            mp_context = None
            if self._start_method is not None:
                import multiprocessing

                mp_context = multiprocessing.get_context(self._start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=mp_context
            )
        return self._pool

    def _context_payload(self, context: "EvaluationContext") -> Tuple[int, bytes]:
        entry = self._payloads.get(context)
        if entry is None:
            entry = (
                next(_TOKEN_COUNTER),
                pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self._payloads[context] = entry
        return entry

    # ------------------------------------------------------------------
    def evaluate(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[float]:
        """Price *mappings* across the pool, preserving submission order.

        Batches below ``min_batch_size`` are priced inline (identical
        arithmetic, no IPC).
        """
        return self._fan_out(
            context,
            mappings,
            _price_chunk,
            lambda items: [context._compute_cost(mapping) for mapping in items],
        )

    def evaluate_metrics(
        self, context: "EvaluationContext", mappings: Sequence[Any]
    ) -> List[Any]:
        """Metric vectors of *mappings* across the pool, preserving order.

        Batches below ``min_batch_size`` are priced inline (identical
        arithmetic, no IPC).
        """
        return self._fan_out(
            context,
            mappings,
            _price_metrics_chunk,
            lambda items: list(context._compute_metrics_chunk(items)),
        )

    def _fan_out(
        self,
        context: "EvaluationContext",
        mappings: Sequence[Any],
        chunk_task,
        inline_price,
    ) -> List[Any]:
        items = list(mappings)
        if len(items) < self.min_batch_size:
            return inline_price(items)
        token, payload = self._context_payload(context)
        chunk = self.chunk_size or math.ceil(len(items) / self.n_workers)
        argslist = [
            (token, payload, items[i : i + chunk])
            for i in range(0, len(items), chunk)
        ]
        chunks = self._submit_all(chunk_task, argslist)
        return [result for chunk_results in chunks for result in chunk_results]

    def _submit_all(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
        retry: bool = True,
    ) -> List[Any]:
        """``[fn(*args) for args in argslist]`` on the pool, in order.

        A broken pool is shut down and the whole batch resubmitted once to a
        fresh one; tasks are pure, so the retry returns the same results.
        """
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(fn, *args) for args in argslist]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._shutdown_pool()
            if not retry:
                raise
        return self._submit_all(fn, argslist, retry=False)

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Run ``fn(*args)`` tasks across the pool, preserving order."""
        tasks = [tuple(args) for args in argslist]
        if len(tasks) <= 1:
            return [fn(*args) for args in tasks]
        return self._submit_all(fn, tasks)

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down and forget all cached context payloads."""
        self._shutdown_pool()
        self._payloads = weakref.WeakKeyDictionary()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"ProcessPoolBackend(n_workers={self.n_workers}, {state})"


def warm_route_table(
    platform: "Platform",
    include_local: bool = True,
    backend: Optional[BatchBackend] = None,
    register: bool = True,
) -> RouteTable:
    """Eagerly build a platform's route table, sharded by source row.

    For NoCs above the lazy threshold (>16x16), the default
    :func:`~repro.eval.route_table.get_route_table` avoids the O(n^2) warm-up
    by materialising pairs on demand — the right default for sparse access,
    the wrong one for a sweep that will touch every pair anyway.  This helper
    forces the eager build and, given a :class:`ProcessPoolBackend`, computes
    it in parallel: the source tiles are split into per-mesh-row shards, each
    worker walks the routes of its rows, and the slices are concatenated with
    :meth:`~repro.eval.route_table.RouteTable.from_tables`.

    Parameters
    ----------
    platform:
        Target architecture (topology, routing, technology).
    include_local:
        Whether local core-router links contribute to per-bit route energy.
    backend:
        Where to compute the rows; ``None`` builds serially.
    register:
        Install the result as the process-wide shared table
        (:func:`~repro.eval.route_table.register_route_table`) so subsequent
        ``get_route_table`` calls — and workers forked after the warm-up —
        reuse it.

    Returns
    -------
    RouteTable
        An eager table identical to ``RouteTable.for_platform(platform,
        include_local, precompute=True)``.
    """
    if backend is None or isinstance(backend, SerialBackend):
        table = RouteTable.for_platform(
            platform, include_local=include_local, precompute=True
        )
    else:
        n = platform.num_tiles
        # One shard per mesh row; topologies without a grid embedding fall
        # back to sqrt(n)-sized slices (same concatenation order either way,
        # so the assembled table is identical regardless of sharding).
        span = getattr(platform.mesh, "width", None) or max(1, math.isqrt(n))
        shards: List[Tuple["Platform", bool, int, int]] = []
        for start in range(0, n, span):
            shards.append((platform, include_local, start, min(start + span, n)))
        rows = backend.map(_route_rows, shards)
        paths: List[Tuple[int, ...]] = []
        links: List[Tuple[Tuple[int, int], ...]] = []
        hops: List[int] = []
        energy: List[float] = []
        for shard_paths, shard_links, shard_hops, shard_energy in rows:
            paths.extend(shard_paths)
            links.extend(shard_links)
            hops.extend(shard_hops)
            energy.extend(shard_energy)
        table = RouteTable.from_tables(
            platform.mesh,
            platform.routing,
            platform.technology,
            include_local,
            paths,
            links,
            hops,
            energy,
        )
    if register:
        register_route_table(platform, table, include_local=include_local)
    return table


__all__ = [
    "BatchBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "warm_route_table",
]
