"""Evaluation contexts — the dynamic half of the evaluation engine.

An :class:`EvaluationContext` binds one application to one platform and is the
single object every search engine prices mappings through.  Since the
vector-objective redesign the memo stores **named component vectors**
(:class:`~repro.core.metrics.MetricVector`) rather than scalars — the scalar
operations are derived views, which is what lets a weight sweep re-scalarise
an already-priced population for free.

Inside a context a candidate is its **key row**: the int64 tile of each
core in :attr:`EvaluationContext.core_order`, :data:`UNPLACED` where it
places none.  Cores outside the application never enter a key, so a
candidate's value and :class:`~repro.utils.errors.MappingError` depend on
its key row alone.  The context exposes:

* :meth:`EvaluationContext.metrics` — the component vector of a mapping
  (energy terms, CDCM makespan), memoised in an LRU keyed by its key row's
  bytes, so revisited candidates are free in whichever form they came;
* :meth:`EvaluationContext.cost` — the scalar objective value, derived by
  applying the context's :attr:`EvaluationContext.weights` to the memoised
  vector (for the default weights this is bit-identical to the pre-vector
  scalar memo);
* :meth:`EvaluationContext.delta` — for contexts that support it, the *exact*
  incremental cost of swapping the contents of two tiles, computed from the
  edges incident to the moved cores only (O(degree) instead of O(edges));
  :meth:`EvaluationContext.metric_delta` is the per-component variant
  scalarisation views price swaps through;
* :meth:`EvaluationContext.evaluate_metrics_batch` — bulk pricing of many
  candidates (population-based engines, sweep drivers), sharing the same
  memo, and :meth:`EvaluationContext.evaluate_batch`, its scalar view.  A
  list of mappings, or a ``(pop, cores)`` tile array with ``cores=``,
  becomes key rows at the door and takes one path: memo lookup, in-batch
  dedup, then one chunk of missed key rows priced into an ``(m, k)``
  float64 array by the one chunk pricer,
  :meth:`EvaluationContext._compute_rows_chunk`.  Pass a
  :class:`~repro.eval.parallel.BatchBackend` (``backend=...`` at
  construction or per call) to price that chunk in a process pool or a
  result store instead; every backend ends in the same chunk pricer.

Contexts are *picklable-light*: pickling keeps the application graph and the
platform but drops the memo, the backend and the route table — the unpickling
process rebuilds the table through the process-wide
:func:`~repro.eval.route_table.get_route_table` cache.  The platform carries
the full topology identity (mesh, torus or
:class:`~repro.noc.topology.IrregularTopology` — anything with a stable
``cache_token``), so a worker's rebuilt table is bit-identical to the
parent's for any topology, not just meshes.  This is what lets
:class:`~repro.eval.parallel.ProcessPoolBackend` ship contexts to workers
without serialising O(n^2) route arrays.

Two concrete contexts mirror the paper's two models:

* :class:`CwmEvaluationContext` prices mappings under the communication
  weighted model (equation 3) straight off the precomputed
  :class:`~repro.eval.route_table.RouteTable` bit-energy table, and supports
  exact swap deltas — CWM cost is a sum of independent per-edge terms, so a
  tile swap only reprices the edges incident to the two moved cores;
* :class:`CdcmEvaluationContext` prices mappings under the communication
  dependence and computation model.  Contention makes CDCM cost global (a
  swap can reshuffle every packet's serialisation), so full evaluations keep
  the complete replay — but swap deltas are priced by the *bounded repair*
  engine (:mod:`repro.eval.repair`) behind the ``repair`` gate: only the
  packets a swap can plausibly affect are rescheduled against a frozen
  background, with periodic full-replay resyncs bounding the drift.  The
  gate is default-on (:data:`~repro.eval.repair.DEFAULT_REPAIR`) and pinned
  off by :class:`~repro.analysis.comparison.ComparisonConfig`, mirroring
  ``use_delta``.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from repro.core.cdcm import CdcmEvaluator, CdcmReport
from repro.core.mapping import Mapping
from repro.core.metrics import (
    CDCM_METRIC_NAMES,
    CWM_METRIC_NAMES,
    MetricVector,
    scalarisation_weights,
    weighted_columns,
)
from repro.energy.technology import Technology
from repro.eval.route_table import (
    RouteTable,
    get_route_table,
    is_shared_route_table,
)
from repro.eval.repair import DEFAULT_REPAIR, CdcmRepairEngine, RepairPolicy
from repro.eval.vector import DEFAULT_VECTORIZE, VectorizedCwmKernel
from repro.graphs.cdcg import CDCG
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.utils.errors import ConfigurationError, MappingError

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    from repro.eval.parallel import BatchBackend

#: Default size of the per-context cost memo.
DEFAULT_CACHE_SIZE = 4096

#: The key-row entry of an application core a candidate does not place.  No
#: tile index equals it, so an unplaced core never aliases a placed one.
UNPLACED = int(np.iinfo(np.int64).min)


class CacheInfo(NamedTuple):
    """Statistics of a context's cost memo (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    currsize: int
    maxsize: int


def _tile_row_array(tiles, cores: Tuple[str, ...]) -> np.ndarray:
    """*tiles* as a C-contiguous ``(pop, len(cores))`` int64 array."""
    if len(set(cores)) != len(cores):
        raise MappingError(f"cores lists a core twice: {cores!r}")
    rows = np.asarray(tiles)
    if rows.ndim != 2 or rows.shape[1] != len(cores):
        raise MappingError(
            f"expected a (pop, {len(cores)}) tile array for {len(cores)} cores, "
            f"got shape {rows.shape}"
        )
    if rows.size and rows.dtype.kind not in "iu":
        raise MappingError(f"tile indices must be integers, got {rows.dtype}")
    return np.ascontiguousarray(rows, dtype=np.int64)


def _row_bytes(keys: np.ndarray) -> List[bytes]:
    """The bytes of each row of a C-contiguous int64 array, in order."""
    width = keys.shape[1] * keys.itemsize
    if width == 0:
        return [b""] * len(keys)
    return keys.view(np.dtype((np.void, width))).ravel().tolist()


def _placed(cores: Sequence[str], row: Sequence[int]) -> Dict[str, int]:
    """The assignment a key row holds: each placed core and its tile."""
    return {core: tile for core, tile in zip(cores, row) if tile != UNPLACED}


class EvaluationContext(ABC):
    """Shared pricing interface for all mapping search engines.

    Subclasses implement :meth:`_compute_metrics` (the full per-mapping
    component vector) and declare :attr:`metric_names`, :attr:`core_order`
    and a default :attr:`weights` view; they may override
    :meth:`_compute_rows_chunk` to price a chunk of key rows at once.  The
    base class provides the LRU vector memo, the derived scalar operations,
    batch evaluation (optionally fanned out over a
    :class:`~repro.eval.parallel.BatchBackend`) and the (optional) delta
    protocol.  Engines discover delta support through the ``supports_delta``
    attribute — see :func:`repro.search.base.delta_callable` — and batch
    support through ``supports_batch`` / :func:`repro.search.base.batch_callable`;
    Pareto tooling consumes the vector half of the protocol
    (:meth:`metrics` / :meth:`evaluate_metrics_batch`).

    Parameters
    ----------
    cache_size:
        Size of the metric-vector memo (0 disables memoisation).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` used by
        :meth:`evaluate_batch`; ``None`` prices batches inline.
    """

    #: Human-readable identifier used in reports and benchmark tables.
    name: str = "context"

    #: Whether :meth:`delta` returns exact incremental costs.
    supports_delta: bool = False

    #: Whether :meth:`metric_delta` returns exact per-component deltas
    #: (the capability scalarisation views need to re-weight swap pricing).
    supports_metric_delta: bool = False

    #: Names of the components :meth:`metrics` produces, in scalarisation
    #: accumulation order.  Set by concrete subclasses.
    metric_names: Tuple[str, ...] = ()

    #: The weight view :meth:`cost` applies to memoised vectors.  Set by
    #: concrete subclasses; treat as read-only.
    weights: Dict[str, float] = {}

    #: Whether :meth:`evaluate_metrics_batch` takes tile arrays (the probe
    #: :func:`repro.search.base.price_rows` reads).
    supports_rows: bool = True

    #: The application's cores in the column order of the key rows the memo,
    #: the chunk pricer and every backend work on — the sorted core names,
    #: the pinned :meth:`~repro.core.mapping.Mapping.to_index_array` order.
    #: Concrete contexts must set it; pricing through a context that does
    #: not raises :class:`~repro.utils.errors.ConfigurationError`.
    core_order: Optional[Tuple[str, ...]] = None

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
    ) -> None:
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be non-negative, got {cache_size}"
            )
        self._cache_size = cache_size
        self._backend = backend
        # Key-row bytes -> the candidate's metric values.
        self._memo: "OrderedDict[bytes, Tuple[float, ...]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    @property
    def backend(self) -> Optional["BatchBackend"]:
        """The default batch backend (``None`` means inline pricing)."""
        return self._backend

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of *mapping*, memoised.

        This is the primitive every other pricing operation derives from:
        :meth:`cost` scalarises the result with the context's
        :attr:`weights`, and scalarisation views
        (:class:`~repro.core.objective.ScalarisedObjective`) apply their own
        weight vectors to the *same* memoised vectors — so sweeping K weight
        vectors over an already-priced population costs zero additional
        pricing passes.  The memo key is the candidate's key row, shared
        with batches; a miss is priced alone by :meth:`_compute_metrics`.
        """
        order = self._require_core_order()
        if self._cache_size == 0:
            self._misses += 1
            return self._compute_metrics(mapping)
        key = self._key_row(mapping, order)
        memo = self._memo
        values = memo.get(key)
        if values is None:
            self._misses += 1
            vector = self._compute_metrics(mapping)
            memo[key] = vector.values
            if len(memo) > self._cache_size:
                memo.popitem(last=False)
            return vector
        self._hits += 1
        memo.move_to_end(key)
        return MetricVector._from_trusted(self.metric_names, values)

    def cost(self, mapping: Union[Mapping, Dict[str, int]]) -> float:
        """Scalar objective value of *mapping* (lower is better), memoised.

        Derived: the context's :attr:`weights` applied to
        :meth:`metrics` — bit-identical to the pre-vector scalar memo for
        the default single-metric weight views.
        """
        return self._scalarise(self.metrics(mapping))

    def _scalarise(self, vector: MetricVector) -> float:
        """Apply the context's weight view to a component vector."""
        self._require_weights()
        return vector.weighted_sum(self.weights, strict=False)

    def _require_weights(self) -> None:
        if not self.weights:
            # An empty view would silently price every mapping at 0.0 — a
            # subclass forgot to set self.weights in its constructor.
            raise ConfigurationError(
                f"{type(self).__name__} defines no scalarisation weights; "
                f"set self.weights (a non-empty {{metric_name: weight}} "
                f"dict over metric_names) in the constructor"
            )

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Exact cost change of ``mapping.swap_tiles(tile_a, tile_b)``.

        Only available when ``supports_delta`` is True; the base class always
        raises so engines that ignore the capability flag fail loudly instead
        of silently pricing with a wrong model.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental delta "
            f"evaluation; check supports_delta before calling delta()"
        )

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Exact per-component change of ``mapping.swap_tiles(tile_a, tile_b)``.

        Only available when ``supports_metric_delta`` is True; scalarisation
        views use it to re-weight incremental swap pricing without a full
        re-evaluation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental metric-delta "
            f"evaluation; check supports_metric_delta before calling "
            f"metric_delta()"
        )

    def scalarised(
        self, weights: Dict[str, float], name: Optional[str] = None
    ):
        """A :class:`~repro.core.objective.ScalarisedObjective` view over this context.

        The view shares this context's memo: sweeping several weight vectors
        re-uses one pricing pass per unique candidate.
        """
        from repro.core.objective import ScalarisedObjective

        return ScalarisedObjective(self, weights, name=name)

    def evaluate_metrics_batch(
        self,
        mappings: Union[Iterable[Union[Mapping, Dict[str, int]]], np.ndarray],
        backend: Optional["BatchBackend"] = None,
        cores: Optional[Sequence[str]] = None,
    ) -> Union[List[MetricVector], np.ndarray]:
        """Component vectors of several candidates in one call (shares the memo).

        The one batch path of every context.  The candidates are turned into
        key rows at the door; rows already in the memo are answered from it,
        the misses are deduplicated and priced as one chunk — by the backend
        when one is active, else inline through :meth:`_compute_rows_chunk`
        (which the vectorised CWM context turns into a single array-kernel
        call) — then written back to the memo.  A candidate repeated within
        the batch counts as one miss and no hit.  Values are bit-identical to
        per-candidate :meth:`metrics` calls regardless of the backend — only
        *where* the arithmetic runs changes.

        **Array form.**  Pass a ``(pop, len(cores))`` integer tile array
        and its column order as *cores* (entry ``[r, c]`` is the tile of
        ``cores[c]`` in candidate *r*) to get a ``(pop, k)`` float64 array
        back, columns in :attr:`metric_names` order, every value
        bit-identical to the list form.  The key row takes each row's
        columns in :attr:`core_order`, so two callers with different column
        orders share entries and never collide; columns of cores outside the
        application do not enter the key, and neither do the tiles of such
        cores in a listed candidate.

        Parameters
        ----------
        mappings:
            Candidates to price (:class:`~repro.core.mapping.Mapping`
            objects or plain assignment dicts), or a tile array.
        backend:
            Override of the context's default backend for this call; with
            both ``None`` the batch is priced inline.
        cores:
            The column order of a tile array; required with one, and only
            with one.

        Returns
        -------
        list of MetricVector, or numpy.ndarray
            One component vector per candidate, in input order; a
            ``(pop, k)`` array for a tile array.

        Raises
        ------
        MappingError
            For a tile array whose width is not ``len(cores)``, and for a
            candidate the context cannot price (as in the list form).
        ConfigurationError
            For a tile array without *cores*, and for a context without
            :attr:`core_order`.
        """
        active = backend if backend is not None else self._backend
        if cores is not None:
            cores = tuple(cores)
            keys = self._row_keys(_tile_row_array(mappings, cores), cores)
            return self._evaluate_keys(keys, active)
        if isinstance(mappings, np.ndarray):
            raise ConfigurationError(
                "a tile array needs its column order: pass cores= with it"
            )
        keys = self._candidate_keys(list(mappings))
        names = self.metric_names
        return [
            MetricVector._from_trusted(names, tuple(values))
            for values in self._evaluate_keys(keys, active).tolist()
        ]

    def _evaluate_keys(self, keys: np.ndarray, active) -> np.ndarray:
        """The ``(pop, k)`` values of key rows: memo, dedup, one chunk of misses."""
        memo = self._memo
        use_memo = self._cache_size > 0
        out = np.empty((len(keys), len(self.metric_names)), dtype=np.float64)
        hit_rows: List[int] = []
        hit_values: List[Tuple[float, ...]] = []
        seen: Dict[bytes, int] = {}
        first: List[int] = []
        repeat_rows: List[int] = []
        repeat_slots: List[int] = []
        for index, key in enumerate(_row_bytes(keys)):
            if use_memo:
                cached = memo.get(key)
                if cached is not None:
                    self._hits += 1
                    memo.move_to_end(key)
                    hit_rows.append(index)
                    hit_values.append(cached)
                    continue
            slot = seen.get(key)
            if slot is not None:
                repeat_rows.append(index)
                repeat_slots.append(slot)
                continue
            seen[key] = len(first)
            first.append(index)
        if hit_rows:
            out[hit_rows] = hit_values
        if first:
            if len(first) < len(keys):
                keys = keys[first]
            if active is None:
                computed = self._compute_rows_chunk(keys)
            else:
                computed = active.evaluate_metrics(self, keys)
            self._misses += len(first)
            out[first] = computed
            if repeat_rows:
                out[repeat_rows] = computed[repeat_slots]
            if use_memo:
                # The keys in seen are all misses, so they are appended in
                # order and the oldest entries evicted, as one at a time.
                memo.update(zip(seen, map(tuple, computed.tolist())))
                while len(memo) > self._cache_size:
                    memo.popitem(last=False)
        return out

    def _require_core_order(self) -> Tuple[str, ...]:
        order = self.core_order
        if order is None:
            # Without it no candidate has a key row to memoise or price.
            raise ConfigurationError(
                f"{type(self).__name__} defines no core_order; set "
                f"self.core_order (the application's sorted core names, the "
                f"column order of its key rows) in the constructor"
            )
        return order

    @staticmethod
    def _key_row(
        candidate: Union[Mapping, Dict[str, int]], order: Tuple[str, ...]
    ) -> bytes:
        """The bytes of one listed candidate's key row in *order*.

        A :class:`~repro.core.mapping.Mapping` keeps its last key beside its
        cached hash, so a repeated one is packed once.
        """
        is_mapping = isinstance(candidate, Mapping)
        if is_mapping:
            cached = candidate._key
            if cached is not None and (cached[0] is order or cached[0] == order):
                return cached[1]
            tiles = candidate._core_to_tile
        else:
            tiles = dict(candidate)
        try:
            key = struct.pack(
                f"={len(order)}q", *[tiles.get(core, UNPLACED) for core in order]
            )
        except struct.error as exc:  # a tile that is not an int64 integer
            raise MappingError(f"tile indices must be int64 integers: {exc}") from None
        if is_mapping:
            candidate._key = (order, key)
        return key

    def _candidate_keys(
        self, candidates: Sequence[Union[Mapping, Dict[str, int]]]
    ) -> np.ndarray:
        """The ``(len(candidates), len(core_order))`` key rows of a list."""
        order = self._require_core_order()
        rows = b"".join(self._key_row(candidate, order) for candidate in candidates)
        return np.frombuffer(rows, dtype=np.int64).reshape(len(candidates), len(order))

    def _row_keys(self, rows: np.ndarray, cores: Tuple[str, ...]) -> np.ndarray:
        """The key rows of a caller's tile array whose columns are *cores*."""
        order = self._require_core_order()
        if cores == order:
            return rows
        position = {core: column for column, core in enumerate(cores)}
        columns = [position.get(core, -1) for core in order]
        keys = np.full((len(rows), len(columns)), UNPLACED, dtype=np.int64)
        present = [index for index, column in enumerate(columns) if column >= 0]
        keys[:, present] = rows[:, [columns[index] for index in present]]
        return keys

    def evaluate_batch(
        self,
        mappings: Union[Iterable[Union[Mapping, Dict[str, int]]], np.ndarray],
        backend: Optional["BatchBackend"] = None,
        cores: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """Price several candidates in one call (shares the memo).

        The scalar view of :meth:`evaluate_metrics_batch`: component vectors
        are priced (or recalled) once and scalarised with the context's
        :attr:`weights`.  Costs are bit-identical to per-candidate
        :meth:`cost` calls regardless of the backend — only *where* the
        arithmetic runs changes.

        Parameters
        ----------
        mappings:
            Candidates to price (:class:`~repro.core.mapping.Mapping`
            objects or plain assignment dicts), or a ``(pop, len(cores))``
            tile array.
        backend:
            Override of the context's default backend for this call; with
            both ``None`` the batch is priced inline.
        cores:
            The column order of a tile array (see
            :meth:`evaluate_metrics_batch`).

        Returns
        -------
        list of float
            One cost per candidate, in input order.
        """
        if cores is not None:
            values = self.evaluate_metrics_batch(mappings, backend=backend, cores=cores)
            self._require_weights()
            return weighted_columns(values, self.metric_names, self.weights).tolist()
        return [
            self._scalarise(vector)
            for vector in self.evaluate_metrics_batch(mappings, backend=backend)
        ]

    @abstractmethod
    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        """Uncached component vector of *mapping*."""

    def _compute_rows_chunk(self, keys: np.ndarray) -> np.ndarray:
        """Uncached ``(m, k)`` float64 values of ``(m, len(core_order))`` key rows.

        The one chunk pricer: inline batches, each
        :class:`~repro.eval.parallel.ProcessPoolBackend` worker task and the
        misses of :class:`~repro.service.store.ServiceBackend` all call it.
        The base implementation prices a
        :class:`~repro.core.mapping.Mapping` of each row's placed cores
        through :meth:`_compute_metrics`.
        """
        return self._price_each(keys, Mapping)

    def _price_each(
        self, keys: np.ndarray, candidate: Callable[[Dict[str, int]], Any]
    ) -> np.ndarray:
        """``_compute_metrics(candidate(assignment))`` of each key row."""
        order = self.core_order
        values = [
            self._compute_metrics(candidate(_placed(order, row))).values
            for row in keys.tolist()
        ]
        return np.array(values, dtype=np.float64).reshape(
            len(keys), len(self.metric_names)
        )

    # ------------------------------------------------------------------
    # Memo bookkeeping
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the cost memo."""
        return CacheInfo(self._hits, self._misses, len(self._memo), self._cache_size)

    def clear_cache(self) -> None:
        """Drop all memoised costs and zero the statistics."""
        self._memo.clear()
        self._hits = 0
        self._misses = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CwmEvaluationContext(EvaluationContext):
    """Route-table-backed CWM pricing with exact O(degree) swap deltas.

    Parameters
    ----------
    cwg:
        Application communication graph.
    platform:
        Target architecture; supplies mesh, routing and technology.
    include_local:
        Whether local core-router links contribute ``ECbit`` per bit.
    route_table:
        Optional pre-built table (must match *platform* and *include_local*);
        by default the process-wide shared table is used.
    cache_size:
        Size of the cost memo (0 disables it).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` for
        :meth:`EvaluationContext.evaluate_batch`; ``None`` prices inline.
    vectorize:
        Whether batch misses are priced by the NumPy array kernel
        (:class:`~repro.eval.vector.VectorizedCwmKernel`) instead of the
        per-candidate scalar loop.  ``None`` (the default) follows
        :data:`~repro.eval.vector.DEFAULT_VECTORIZE` — on, since the kernel
        is bit-identical to the scalar path by construction.  ``False``
        keeps the scalar loop as a reference to check the kernel against.
        Per-candidate pricing (:meth:`cost`, :meth:`metrics`, :meth:`delta`)
        always stays scalar.

    Notes
    -----
    Pickling is *light*: the memo and the backend are always dropped, and
    the process-shared route table is dropped too — the unpickled context
    rebuilds an identical one via
    :func:`~repro.eval.route_table.get_route_table` (the contract the
    process-pool backend relies on).  A *custom* table (one that is not the
    shared instance, e.g. built for a stateful routing algorithm) travels
    with the pickle so pooled pricing stays bit-identical to serial.
    """

    supports_delta = True
    supports_metric_delta = True
    metric_names = CWM_METRIC_NAMES

    def __init__(
        self,
        cwg: CWG,
        platform: Platform,
        include_local: bool = True,
        route_table: Optional[RouteTable] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
        vectorize: Optional[bool] = None,
    ) -> None:
        super().__init__(cache_size, backend)
        self.cwg = cwg
        self.platform = platform
        self.include_local = include_local
        self.route_table = (
            route_table
            if route_table is not None
            else get_route_table(platform, include_local=include_local)
        )
        self.name = f"cwm({cwg.name})"
        self.weights = {"dynamic_energy": 1.0}
        self.core_order = tuple(sorted(cwg.cores))
        self._core_set = frozenset(self.core_order)
        self.vectorize = (
            DEFAULT_VECTORIZE if vectorize is None else bool(vectorize)
        )
        # The kernel binds lazily on the first chunk: building it densifies
        # lazy route tables, which sparse per-candidate use should not pay.
        self._kernel: Optional[VectorizedCwmKernel] = None
        # Flat edge arrays: iterating tuples beats re-walking the CWG object
        # graph on every evaluation, and edge indices give delta() a compact
        # per-core incidence list.
        self._edges: List[Tuple[str, str, int]] = [
            (comm.source, comm.target, comm.bits) for comm in cwg.communications()
        ]
        incident: Dict[str, List[int]] = {}
        for index, (source, target, _) in enumerate(self._edges):
            incident.setdefault(source, []).append(index)
            incident.setdefault(target, []).append(index)
        self._incident = incident
        self._flat_energy = self.route_table.flat_bit_energy()

    # ------------------------------------------------------------------
    # Pickling (picklable-light: workers rebuild tables locally)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # The shared table is dropped (the worker rebuilds an identical one);
        # a custom table must travel, or pooled pricing could silently
        # diverge from serial pricing for non-standard routing.
        shared = is_shared_route_table(
            self.route_table, self.platform, self.include_local
        )
        return {
            "cwg": self.cwg,
            "platform": self.platform,
            "include_local": self.include_local,
            "cache_size": self._cache_size,
            "route_table": None if shared else self.route_table,
            "vectorize": self.vectorize,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]  # rebuild = re-run the constructor
            state["cwg"],
            state["platform"],
            include_local=state["include_local"],
            route_table=state.get("route_table"),
            cache_size=state["cache_size"],
            vectorize=state.get("vectorize"),
        )

    # ------------------------------------------------------------------
    def _tile_assignments(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> Dict[str, int]:
        n = self.route_table.num_tiles
        if isinstance(mapping, Mapping):
            tiles = mapping.assignments()
            if mapping.num_tiles == n:
                return tiles  # already range-checked at construction
        else:
            tiles = dict(mapping)
        for core, tile in tiles.items():
            # Cores outside the application are ignored, as in a key row.
            if not 0 <= tile < n and core in self._core_set:
                raise MappingError(
                    f"core {core!r} mapped to tile {tile}, outside the "
                    f"{n}-tile {self.platform.mesh}"
                )
        return tiles

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        # Equation 3 over snapshot edge arrays — the hot-loop twin of
        # :meth:`repro.core.cwm.CwmEvaluator.cost`, which prices per call from
        # the live (mutable) CWG and therefore cannot bind these arrays.  The
        # two are kept value-identical by construction (same route table,
        # same edge order) and pinned by tests/test_eval.py.
        tiles = self._tile_assignments(mapping)
        n = self.route_table.num_tiles
        energy = self._flat_energy
        total = 0.0
        try:
            if energy is not None:
                for source, target, bits in self._edges:
                    total += bits * energy[tiles[source] * n + tiles[target]]
            else:
                bit_energy = self.route_table.bit_energy
                for source, target, bits in self._edges:
                    total += bits * bit_energy(tiles[source], tiles[target])
        except KeyError as exc:
            raise MappingError(
                f"mapping does not place core {exc.args[0]!r} of application "
                f"{self.cwg.name!r}"
            ) from exc
        return MetricVector(CWM_METRIC_NAMES, (total,))

    def vector_kernel(self) -> VectorizedCwmKernel:
        """The context's array pricing kernel (built on first use).

        Bound to the same edge snapshot, route table and accumulation order
        as :meth:`_compute_metrics`, so kernel prices are bit-identical to
        scalar prices.  Building the kernel densifies a lazy route table
        (:meth:`~repro.eval.route_table.RouteTable.warm_dense`), which is why
        it is deferred to the first batch rather than paid at construction.
        """
        kernel = self._kernel
        if kernel is None:
            kernel = VectorizedCwmKernel.from_edges(
                self._edges,
                self.route_table,
                self.core_order,
                name=f"cwm-kernel({self.cwg.name})",
            )
            self._kernel = kernel
        return kernel

    def _compute_rows_chunk(self, keys: np.ndarray) -> np.ndarray:
        """One kernel gather per chunk when vectorised, else the scalar loop.

        The first bad row raises :meth:`_compute_metrics`' error for its
        first tile outside the NoC, else for its first unplaced core with
        edges; unplaced isolated cores are never gathered.
        """
        if not self.vectorize:
            return self._price_each(keys, dict)
        n = self.route_table.num_tiles
        if keys.size and (keys.min() < 0 or keys.max() >= n):
            unplaced = keys == UNPLACED
            outside = ~unplaced & ((keys < 0) | (keys >= n))
            required = self.vector_kernel().required_cores
            missing = unplaced & [core in required for core in self.core_order]
            for row in np.flatnonzero((outside | missing).any(axis=1))[:1]:
                if outside[row].any():
                    column = int(outside[row].argmax())
                    raise MappingError(
                        f"core {self.core_order[column]!r} mapped to tile "
                        f"{keys[row, column]}, outside the {n}-tile "
                        f"{self.platform.mesh}"
                    )
                core = self.core_order[int(missing[row].argmax())]
                raise MappingError(
                    f"mapping does not place core {core!r} of application "
                    f"{self.cwg.name!r}"
                )
            keys = np.where(unplaced, 0, keys)
        return self._price_kernel_rows(keys)

    def _price_kernel_rows(self, tiles: np.ndarray) -> np.ndarray:
        """``(m, k)`` vectors of validated ``(m, cores)`` rows in kernel order."""
        return self.vector_kernel().price(tiles)[:, None]

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Exact CWM cost change of swapping the contents of two tiles.

        Only the CWG edges incident to the cores on ``tile_a``/``tile_b`` can
        change price, so the swap is priced in O(degree) — the enabler of the
        fast annealing path.  Either tile may be empty; swapping two empty
        tiles (or a tile with itself) costs exactly 0.
        """
        if not isinstance(mapping, Mapping):
            mapping = Mapping(mapping)
        n = self.route_table.num_tiles
        for tile in (tile_a, tile_b):
            if not 0 <= tile < n:
                raise MappingError(
                    f"tile {tile} outside the {n}-tile {self.platform.mesh}"
                )
        if tile_a == tile_b:
            return 0.0
        core_a = mapping.core_at(tile_a)
        core_b = mapping.core_at(tile_b)
        if core_a is None and core_b is None:
            return 0.0
        moved: Dict[str, int] = {}
        if core_a is not None:
            moved[core_a] = tile_b
        if core_b is not None:
            moved[core_b] = tile_a

        incident = self._incident
        if core_a is not None:
            edge_ids = list(incident.get(core_a, ()))
            if core_b is not None:
                seen = set(edge_ids)
                edge_ids.extend(
                    i for i in incident.get(core_b, ()) if i not in seen
                )
        else:
            edge_ids = list(incident.get(core_b, ()))

        edges = self._edges
        energy = self._flat_energy
        bit_energy = self.route_table.bit_energy
        total = 0.0
        for index in edge_ids:
            source, target, bits = edges[index]
            old_source = mapping.tile_of(source)
            old_target = mapping.tile_of(target)
            new_source = moved.get(source, old_source)
            new_target = moved.get(target, old_target)
            if new_source == old_source and new_target == old_target:
                continue
            if energy is not None:
                total += bits * (
                    energy[new_source * n + new_target]
                    - energy[old_source * n + old_target]
                )
            else:
                total += bits * (
                    bit_energy(new_source, new_target)
                    - bit_energy(old_source, old_target)
                )
        return total

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Per-component variant of :meth:`delta` (one component under CWM).

        Scalarisation views re-weight this vector instead of calling
        :meth:`delta`, so a view with a non-unit weight still prices swaps in
        O(degree).
        """
        return MetricVector(
            CWM_METRIC_NAMES, (self.delta(mapping, tile_a, tile_b),)
        )


class CdcmEvaluationContext(EvaluationContext):
    """Memoised CDCM pricing over the shared route table.

    Full evaluations keep the complete schedule replay — contention couples
    every packet, and the replay is accelerated by the shared
    :class:`~repro.eval.route_table.RouteTable` inside the scheduler.  Swap
    deltas, however, are priced incrementally by the *bounded repair* engine
    (:class:`~repro.eval.repair.CdcmRepairEngine`) when the ``repair`` gate
    is on: only the packets a swap can affect are rescheduled against a
    frozen background, with periodic full-replay resyncs bounding the drift
    (see :class:`~repro.eval.repair.RepairPolicy`).

    Parameters
    ----------
    cdcg:
        Packet-level application model.
    platform:
        Target architecture.
    metric:
        ``"energy"`` (equation 10, the default), ``"time"`` or
        ``"weighted"`` — see :class:`~repro.core.cdcm.CdcmEvaluator`.
    energy_weight, time_weight:
        Scalarisation weights for the ``"weighted"`` metric.
    include_local:
        Whether local core-router links contribute to dynamic energy.
    route_table:
        Optional pre-built shared table.
    cache_size:
        Size of the cost memo (0 disables it).
    backend:
        Default :class:`~repro.eval.parallel.BatchBackend` for
        :meth:`EvaluationContext.evaluate_batch`; CDCM replays are orders of
        magnitude more expensive than CWM sums, which makes this context the
        main beneficiary of a process pool.
    repair:
        Whether :meth:`delta` / :meth:`metric_delta` are available, priced
        by the bounded-repair engine.  ``None`` (the default) follows
        :data:`~repro.eval.repair.DEFAULT_REPAIR` — on, the right choice
        for swap-based search (deltas are exact at every resync point and
        drift-bounded between them).
        :class:`~repro.analysis.comparison.ComparisonConfig` pins it off so
        the paper-reproduction rows keep pure full-replay pricing,
        mirroring the ``use_delta`` convention.  Full
        evaluations (:meth:`EvaluationContext.cost`,
        :meth:`EvaluationContext.metrics`, batches) always stay full-replay.
    repair_policy:
        Optional :class:`~repro.eval.repair.RepairPolicy` overriding the
        default resync/drift contract of the repair engine.

    Notes
    -----
    Pickling is *light*: the memo, backend and repair engine *state* are
    dropped (the ``repair`` gate and policy travel, so an unpickled context
    reprices swaps the same way), the shared route table is rebuilt by the
    unpickling process, and a custom table travels with the pickle (see
    :class:`CwmEvaluationContext`).
    """

    supports_delta = False
    metric_names = CDCM_METRIC_NAMES

    def __init__(
        self,
        cdcg: CDCG,
        platform: Platform,
        metric: str = "energy",
        energy_weight: float = 1.0,
        time_weight: float = 0.0,
        include_local: bool = True,
        route_table: Optional[RouteTable] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        backend: Optional["BatchBackend"] = None,
        repair: Optional[bool] = None,
        repair_policy: Optional[RepairPolicy] = None,
    ) -> None:
        super().__init__(cache_size, backend)
        self.cdcg = cdcg
        self.platform = platform
        self.evaluator = CdcmEvaluator(
            platform,
            metric=metric,
            energy_weight=energy_weight,
            time_weight=time_weight,
            include_local=include_local,
            route_table=route_table,
        )
        self.name = f"cdcm({cdcg.name},{metric})"
        self.weights = scalarisation_weights(metric, energy_weight, time_weight)
        self.core_order = tuple(sorted(cdcg.cores()))
        self.repair = DEFAULT_REPAIR if repair is None else bool(repair)
        self.repair_policy = repair_policy
        # Instance-level capability flags shadow the class defaults so
        # engines discover delta support per gate state.
        self.supports_delta = self.repair
        self.supports_metric_delta = self.repair
        # The engine binds lazily on the first delta: building it replays
        # nothing, but batch-only users should not even pay the allocation.
        self._repair_engine: Optional[CdcmRepairEngine] = None

    # ------------------------------------------------------------------
    # Pickling (picklable-light: workers rebuild tables locally)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        evaluator = self.evaluator
        # Same custom-table rule as CwmEvaluationContext: the replay
        # scheduler's table ships only when it is not the shared one.
        table = evaluator.route_table
        shared = is_shared_route_table(table, self.platform)
        return {
            "cdcg": self.cdcg,
            "platform": self.platform,
            "metric": evaluator.metric,
            "energy_weight": evaluator.energy_weight,
            "time_weight": evaluator.time_weight,
            "include_local": evaluator.include_local,
            "cache_size": self._cache_size,
            "route_table": None if shared else table,
            "repair": self.repair,
            "repair_policy": self.repair_policy,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(  # type: ignore[misc]  # rebuild = re-run the constructor
            state["cdcg"],
            state["platform"],
            metric=state["metric"],
            energy_weight=state["energy_weight"],
            time_weight=state["time_weight"],
            include_local=state["include_local"],
            route_table=state.get("route_table"),
            cache_size=state["cache_size"],
            repair=state.get("repair"),
            repair_policy=state.get("repair_policy"),
        )

    def _compute_metrics(
        self, mapping: Union[Mapping, Dict[str, int]]
    ) -> MetricVector:
        return self.evaluator.metrics(self.cdcg, mapping)

    def _compute_rows_chunk(self, keys: np.ndarray) -> np.ndarray:
        """Replay each key row's assignment dict; no mapping is built.

        The replay checks the dict as it checks a listed candidate, so both
        forms raise the same errors.
        """
        return self._price_each(keys, dict)

    def repair_engine(self) -> CdcmRepairEngine:
        """The context's bounded-repair engine (built on first use).

        Raises
        ------
        ConfigurationError
            When the ``repair`` gate is off — callers must check
            ``supports_metric_delta`` first, like any delta consumer.
        """
        if not self.repair:
            raise ConfigurationError(
                f"{self.name}: the repair gate is off; construct the context "
                f"with repair=True to price swap deltas incrementally"
            )
        engine = self._repair_engine
        if engine is None:
            engine = CdcmRepairEngine(
                self.cdcg,
                self.platform,
                route_table=self.evaluator.route_table,
                include_local=self.evaluator.include_local,
                weights=self.weights,
                policy=self.repair_policy,
            )
            self._repair_engine = engine
        return engine

    def metric_delta(
        self, mapping: Mapping, tile_a: int, tile_b: int
    ) -> MetricVector:
        """Per-component change of ``mapping.swap_tiles(tile_a, tile_b)``, repaired.

        Priced by the bounded-repair engine: exact at every resync point
        (and whenever the repair frontier is empty), drift-bounded in
        between — see :mod:`repro.eval.repair` for the contract.  Raises
        :class:`NotImplementedError` when the ``repair`` gate is off, like
        any context without delta support.
        """
        if not self.repair:
            return super().metric_delta(mapping, tile_a, tile_b)
        return self.repair_engine().metric_delta(mapping, tile_a, tile_b)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Scalar view of :meth:`metric_delta` under the context's weights.

        What swap-based engines (annealing, greedy) consume through
        :func:`repro.search.base.delta_callable`; subject to the same
        exact-at-resync / bounded-between contract as :meth:`metric_delta`.
        """
        if not self.repair:
            return super().delta(mapping, tile_a, tile_b)
        return self.metric_delta(mapping, tile_a, tile_b).weighted_sum(
            self.weights, strict=False
        )

    def evaluate(
        self,
        mapping: Union[Mapping, Dict[str, int]],
        technology: Optional[Technology] = None,
    ) -> CdcmReport:
        """Full CDCM report of a mapping (uncached — reports carry schedules)."""
        return self.evaluator.evaluate(self.cdcg, mapping, technology)


__all__ = [
    "DEFAULT_CACHE_SIZE",
    "UNPLACED",
    "CacheInfo",
    "EvaluationContext",
    "CwmEvaluationContext",
    "CdcmEvaluationContext",
]
