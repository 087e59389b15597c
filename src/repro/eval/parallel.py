"""Pluggable batch-pricing backends — the parallel half of the evaluation engine.

:meth:`repro.eval.context.EvaluationContext.evaluate_metrics_batch` is the
one seam every population-based engine prices through (GA generations,
exhaustive chunks, NSGA-II/III and co-design populations, weight sweeps).
It turns the candidates into key rows, looks them up in the memo, dedups
the batch and hands the misses over as one chunk: an ``(m,
len(core_order))`` int64 array of key rows, the tile of each application
core in the context's ``core_order``.  A backend returns their ``(m, k)``
float64 metric values, columns in ``metric_names`` order.  With
``backend=None`` the context prices that chunk inline; a
:class:`BatchBackend` decides *where* it is priced instead —

* :class:`ProcessPoolBackend` fans it out over a ``concurrent.futures``
  process pool.  Contexts are *picklable-light*: pickling drops the memo, the
  backend and the route table, and each worker rebuilds the table locally
  through the process-wide :func:`~repro.eval.route_table.get_route_table`
  cache — so tasks ship only the application graph and the key rows, never
  the O(n^2) route arrays;
* :class:`~repro.service.store.ServiceBackend` answers it from a persistent
  result store and prices only the store misses.

Every backend is bit-identical to inline pricing by construction: each
prices through the same chunk pricer, ``_compute_rows_chunk``, on the same
rows, and the caller reassembles results in submission order, so a seeded
search returns the same mapping and the same cost no matter where it was
priced (pinned by ``tests/test_parallel.py``).

:func:`warm_route_table` builds and shares the eager route table of a NoC
above the lazy threshold before a sweep that touches every pair.  It builds
in process: from next-hop arrays the build takes milliseconds, far less
than shipping the table's routes back from pool workers.
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
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.eval.route_table import RouteTable, register_route_table
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


def _price_metrics_chunk(token: int, payload: bytes, keys: np.ndarray) -> np.ndarray:
    """Worker task: the ``(m, k)`` values of one chunk of key rows.

    Prices through the cached context's ``_compute_rows_chunk``, the chunk
    pricer of inline batches, so a vectorised context uses its array kernel
    per worker chunk.
    """
    return _worker_context(token, payload)._compute_rows_chunk(keys)


class BatchBackend(ABC):
    """Strategy deciding where a batch of uncached candidates is priced.

    A backend receives the context and the key rows that missed the memo
    (deduplication and memo bookkeeping stay in
    :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`)
    and must return their metric values in order.  Implementations must be
    *bit-identical* to inline pricing: the same chunk pricer,
    ``context._compute_rows_chunk``, on the same rows, in the same order.
    """

    #: Short identifier used in reports and benchmark tables.
    name: str = "backend"

    @abstractmethod
    def evaluate_metrics(
        self, context: "EvaluationContext", keys: np.ndarray
    ) -> np.ndarray:
        """The metric values of the key rows *keys* under *context*, in order.

        Parameters
        ----------
        context:
            The evaluation context whose ``_compute_rows_chunk`` defines
            the components.
        keys:
            ``(m, len(context.core_order))`` int64 key rows (see
            :mod:`repro.eval.context`).

        Returns
        -------
        numpy.ndarray
            The ``(m, k)`` float64 ``context._compute_rows_chunk(keys)``,
            possibly computed elsewhere.
        """

    def map(
        self,
        fn: Callable[..., Any],
        argslist: Sequence[Tuple[Any, ...]],
    ) -> List[Any]:
        """Apply ``fn(*args)`` to every argument tuple, preserving order.

        The generic escape hatch for coarse-grained work that is not a batch
        of mappings — multi-restart annealing runs go through here.  The
        default implementation runs serially.

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
    to inline pricing regardless of worker scheduling.  A worker that
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
    def evaluate_metrics(
        self, context: "EvaluationContext", keys: np.ndarray
    ) -> np.ndarray:
        """The values of the key rows *keys* across the pool, in order.

        Batches below ``min_batch_size`` are priced inline (identical
        arithmetic, no IPC).
        """
        if len(keys) < self.min_batch_size:
            return context._compute_rows_chunk(keys)
        token, payload = self._context_payload(context)
        chunk = self.chunk_size or math.ceil(len(keys) / self.n_workers)
        argslist = [
            (token, payload, keys[i : i + chunk]) for i in range(0, len(keys), chunk)
        ]
        return np.concatenate(self._submit_all(_price_metrics_chunk, argslist))

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
    register: bool = True,
) -> RouteTable:
    """Eagerly build a platform's route table, in process.

    For NoCs above the lazy threshold (>16x16), the default
    :func:`~repro.eval.route_table.get_route_table` avoids the O(n^2) warm-up
    by materialising pairs on demand — the right default for sparse access,
    the wrong one for a sweep that will touch every pair anyway.  This helper
    forces the eager build, which takes a routing with next-hop rows (every
    shipped routing) from their array in milliseconds.

    Parameters
    ----------
    platform:
        Target architecture (topology, routing, technology).
    include_local:
        Whether local core-router links contribute to per-bit route energy.
    register:
        Install the result as the process-wide shared table
        (:func:`~repro.eval.route_table.register_route_table`) so subsequent
        ``get_route_table`` calls — and workers forked after the warm-up —
        reuse it.

    Returns
    -------
    RouteTable
        ``RouteTable.for_platform(platform, include_local, precompute=True)``.
    """
    table = RouteTable.for_platform(
        platform, include_local=include_local, precompute=True
    )
    if register:
        register_route_table(platform, table, include_local=include_local)
    return table


__all__ = [
    "BatchBackend",
    "ProcessPoolBackend",
    "warm_route_table",
]
