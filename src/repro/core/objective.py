"""Objective-function adapters over the vector-valued evaluation engine.

Search engines (:mod:`repro.search`) explore the space of
:class:`~repro.core.mapping.Mapping` objects and only ever see a callable
``mapping -> cost``.  Since the vector-objective redesign that scalar is a
*view*: evaluators produce named :class:`~repro.core.metrics.MetricVector`
components (energy terms, CDCM makespan), the shared
:class:`~repro.eval.context.EvaluationContext` memoises the vectors, and
scalars are derived by applying a weight vector — so K scalarisations of one
candidate cost one pricing pass, not K.

Three adapters bind that machinery into the engine-facing contract:

* :class:`CountingObjective` — the legacy-compatible wrapper produced by
  :func:`cwm_objective` / :func:`cdcm_objective`; scalarises with the bound
  context's own weight view (bit-identical to the pre-vector objectives) and
  counts evaluation effort for the Section 5 CPU-cost comparison;
* :class:`ScalarisedObjective` — a lightweight weight-vector view over a
  shared context.  Several views over one context share its memo, which is
  what makes Pareto weight sweeps (:mod:`repro.analysis.pareto`) essentially
  free after the first pricing pass;
* :class:`VectorObjective` — the structural protocol both adapters and the
  contexts themselves satisfy (``metric_names`` / ``metrics`` /
  ``evaluate_metrics_batch``), the seam Pareto tooling and custom
  multi-objective drivers program against.

Delta-aware engines (simulated annealing, greedy refinement) additionally
call ``delta`` when ``supports_delta`` is True, and population-based engines
(genetic, exhaustive) call ``evaluate_batch`` when ``supports_batch`` is
True; both adapters forward these to the bound context — batches optionally
through a :class:`~repro.eval.parallel.BatchBackend`.
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector, validate_weights, weighted_columns
from repro.eval.context import (
    CacheInfo,
    CdcmEvaluationContext,
    CwmEvaluationContext,
    DEFAULT_CACHE_SIZE,
    EvaluationContext,
)
from repro.graphs.cdcg import CDCG
from repro.graphs.cwg import CWG
from repro.noc.platform import Platform
from repro.utils.errors import ConfigurationError

#: The signature every search engine expects.
ObjectiveFunction = Callable[[Mapping], float]


@runtime_checkable
class VectorObjective(Protocol):
    """Structural protocol of vector-valued pricing sources.

    Satisfied by :class:`~repro.eval.context.EvaluationContext` subclasses,
    :class:`CountingObjective` (when bound to a context) and
    :class:`ScalarisedObjective`.  Pareto tooling and weight-sweep drivers
    program against this seam and never care which concrete adapter they
    were handed.
    """

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names produced by :meth:`metrics`, in accumulation order."""
        ...

    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of one mapping (memoised by the source)."""
        ...

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
    ) -> List[MetricVector]:
        """Component vectors of several mappings in one pricing pass."""
        ...


def resolve_vector_source(source):
    """The vector-capable pricing source behind an objective-ish argument.

    The single resolution rule shared by :class:`ScalarisedObjective`,
    :mod:`repro.analysis.pareto` and anything else that needs the vector
    half of the protocol: prefer the object's bound ``context`` when it
    satisfies :class:`VectorObjective`, fall back to the object itself, and
    fail loudly otherwise (plain scalar callables cannot price vectors).

    Parameters
    ----------
    source:
        An :class:`~repro.eval.context.EvaluationContext`, an objective
        exposing one through a ``context`` attribute, or any other
        :class:`VectorObjective`.

    Returns
    -------
    VectorObjective
        The resolved source.

    Raises
    ------
    ConfigurationError
        When *source* exposes no named metric components.
    """
    def _quacks(candidate) -> bool:
        return bool(getattr(candidate, "metric_names", None)) and callable(
            getattr(candidate, "metrics", None)
        )

    context = getattr(source, "context", None)
    if context is not None and _quacks(context):
        return context
    if _quacks(source):
        return source
    raise ConfigurationError(
        f"{source!r} does not expose named metric components; pass an "
        f"EvaluationContext or an objective built by repro.core.objective"
    )


class CountingObjective:
    """Wrap an objective function, counting calls and accumulating CPU time.

    Parameters
    ----------
    function:
        The underlying ``mapping -> cost`` callable.
    name:
        Identifier used in reports.
    context:
        Optional bound :class:`~repro.eval.context.EvaluationContext`; when
        present the wrapper advertises the context's delta and batch
        capabilities to search engines and exposes the vector half of the
        protocol (:meth:`metrics` / :meth:`evaluate_metrics_batch`).

    Attributes
    ----------
    evaluations:
        Number of full evaluations charged: one per :meth:`__call__` plus one
        per candidate priced through :meth:`evaluate_batch`.
    delta_evaluations:
        Number of incremental :meth:`delta` calls (0 for contexts without
        delta support or plain callables).
    elapsed:
        Total wall-clock seconds spent inside the wrapped function, the
        delta evaluator and batch pricing (for pooled batches this is the
        caller-side wall time, not the summed worker CPU time).
    """

    def __init__(
        self,
        function: ObjectiveFunction,
        name: str = "objective",
        context: Optional[EvaluationContext] = None,
    ) -> None:
        self._function = function
        self._context = context
        self.name = name
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    def __call__(self, mapping: Mapping) -> float:
        start = time.perf_counter()
        try:
            return self._function(mapping)
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += 1

    # ------------------------------------------------------------------
    # Evaluation-engine passthrough
    # ------------------------------------------------------------------
    @property
    def context(self) -> Optional[EvaluationContext]:
        """The bound evaluation context, if any."""
        return self._context

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names of the bound context (empty for plain callables)."""
        return self._context.metric_names if self._context is not None else ()

    @property
    def supports_delta(self) -> bool:
        """True when :meth:`delta` returns exact incremental costs."""
        return self._context is not None and self._context.supports_delta

    @property
    def supports_batch(self) -> bool:
        """True when :meth:`evaluate_batch` routes through a shared context."""
        return self._context is not None

    @property
    def supports_rows(self) -> bool:
        """True when the bound context's batch methods take tile arrays."""
        return bool(getattr(self._context, "supports_rows", False))

    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of *mapping* through the bound context.

        A passthrough that shares the context memo and deliberately leaves
        the Section 5 effort counters untouched — they keep mirroring the
        scalar pricing effort exactly as the pre-vector wrapper did.
        """
        return self._require_context("price metric vectors").metrics(mapping)

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
        cores: Optional[Sequence[str]] = None,
    ) -> List[MetricVector]:
        """Component vectors of several candidates through the bound context.

        Uncounted passthrough, like :meth:`metrics`; a tile array with its
        *cores* returns a ``(pop, k)`` array (see
        :meth:`~repro.eval.context.EvaluationContext.evaluate_metrics_batch`).
        """
        context = self._require_context("price metric vectors")
        if cores is None:
            return context.evaluate_metrics_batch(mappings, backend=backend)
        return context.evaluate_metrics_batch(mappings, backend=backend, cores=cores)

    def scalarised(
        self, weights: Dict[str, float], name: Optional[str] = None
    ) -> "ScalarisedObjective":
        """A :class:`ScalarisedObjective` view sharing this objective's context."""
        return ScalarisedObjective(
            self._require_context("derive scalarisation views"),
            weights,
            name=name,
        )

    def evaluate_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
        cores: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """Price several candidates through the bound context in one call.

        Parameters
        ----------
        mappings:
            Candidates to price, in order, or a ``(pop, len(cores))`` tile
            array.
        backend:
            Optional :class:`~repro.eval.parallel.BatchBackend` override
            forwarded to
            :meth:`~repro.eval.context.EvaluationContext.evaluate_batch`.
        cores:
            The column order of a tile array.

        Returns
        -------
        list of float
            One cost per candidate, bit-identical to per-candidate calls.
        """
        context = self._require_context("price batches")
        items = mappings if cores is not None else list(mappings)
        start = time.perf_counter()
        try:
            if cores is None:
                return context.evaluate_batch(items, backend=backend)
            return context.evaluate_batch(items, backend=backend, cores=cores)
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += len(items)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Exact cost change of ``mapping.swap_tiles(tile_a, tile_b)``."""
        context = self._require_context("price incremental moves")
        start = time.perf_counter()
        try:
            return context.delta(mapping, tile_a, tile_b)
        finally:
            self.elapsed += time.perf_counter() - start
            self.delta_evaluations += 1

    def cache_info(self) -> Optional[CacheInfo]:
        """Memo statistics of the bound context (None for plain callables)."""
        return self._context.cache_info() if self._context is not None else None

    def reset(self) -> None:
        """Zero the counters (e.g. between search runs)."""
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    def _require_context(self, action: str) -> EvaluationContext:
        if self._context is None:
            raise NotImplementedError(
                f"objective {self.name!r} has no evaluation context and cannot "
                f"{action}; call it per mapping instead"
            )
        return self._context

    def __repr__(self) -> str:
        return (
            f"CountingObjective(name={self.name!r}, evaluations={self.evaluations}, "
            f"elapsed={self.elapsed:.3f}s)"
        )


class ScalarisedObjective:
    """A weight-vector view over a shared vector-valued pricing source.

    The view satisfies the full engine-facing objective contract (callable,
    ``supports_delta`` / ``supports_batch``, ``delta``, ``evaluate_batch``)
    but owns no pricing machinery of its own: every operation recalls (or
    prices once) the memoised component vector from the underlying
    :class:`~repro.eval.context.EvaluationContext` and applies this view's
    weights.  Constructing K views over one context and pricing the same
    candidates through all of them therefore costs **one** full pricing pass
    per unique candidate — the property Pareto weight sweeps rely on, pinned
    by ``tests/test_pareto.py``.

    Parameters
    ----------
    source:
        An :class:`~repro.eval.context.EvaluationContext`, or any objective
        exposing one through a ``context`` attribute
        (:class:`CountingObjective` does).
    weights:
        ``{metric_name: weight}`` over the source's ``metric_names``; checked
        by :func:`~repro.core.metrics.validate_weights`.
    name:
        Identifier used in reports; derived from the source and the weights
        when omitted.

    Attributes
    ----------
    evaluations, delta_evaluations, elapsed:
        CountingObjective-style effort counters of this view (scalarisation
        calls, not underlying pricing passes — those are visible in the
        shared context's :meth:`cache_info`).
    """

    def __init__(
        self,
        source,
        weights: Dict[str, float],
        name: Optional[str] = None,
    ) -> None:
        context = resolve_vector_source(source)
        self._context = context
        self.weights = validate_weights(weights, tuple(context.metric_names))
        if name is None:
            label = ",".join(
                f"{key}={value:g}" for key, value in self.weights.items()
            )
            name = f"{getattr(context, 'name', 'objective')}[{label}]"
        self.name = name
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    # ------------------------------------------------------------------
    # Engine-facing contract
    # ------------------------------------------------------------------
    def __call__(self, mapping: Union[Mapping, Dict[str, int]]) -> float:
        start = time.perf_counter()
        try:
            return self._context.metrics(mapping).weighted_sum(
                self.weights, strict=False
            )
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += 1

    @property
    def context(self) -> EvaluationContext:
        """The shared evaluation context the view scalarises over."""
        return self._context

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names of the underlying context."""
        return self._context.metric_names

    @property
    def supports_delta(self) -> bool:
        """True when the context prices per-component swap deltas exactly."""
        return bool(
            self._context.supports_delta
            and getattr(self._context, "supports_metric_delta", False)
        )

    @property
    def supports_batch(self) -> bool:
        """Always True — batches route through the shared context."""
        return True

    @property
    def supports_rows(self) -> bool:
        """Whether the shared context takes tile arrays."""
        return bool(getattr(self._context, "supports_rows", False))

    def evaluate_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
        cores: Optional[Sequence[str]] = None,
    ) -> List[float]:
        """Scalarise a batch of candidates off the shared vector memo.

        Parameters
        ----------
        mappings:
            Candidates to price, in order, or a ``(pop, len(cores))`` tile
            array.
        backend:
            Optional :class:`~repro.eval.parallel.BatchBackend` override for
            the misses.
        cores:
            The column order of a tile array.

        Returns
        -------
        list of float
            One weighted cost per candidate, in input order.
        """
        items = mappings if cores is not None else list(mappings)
        start = time.perf_counter()
        try:
            if cores is not None:
                values = self._context.evaluate_metrics_batch(
                    items, backend=backend, cores=cores
                )
                names = self._context.metric_names
                return weighted_columns(values, names, self.weights).tolist()
            vectors = self._context.evaluate_metrics_batch(
                items, backend=backend
            )
            return [
                vector.weighted_sum(self.weights, strict=False)
                for vector in vectors
            ]
        finally:
            self.elapsed += time.perf_counter() - start
            self.evaluations += len(items)

    def delta(self, mapping: Mapping, tile_a: int, tile_b: int) -> float:
        """Weighted exact cost change of swapping two tiles' contents."""
        start = time.perf_counter()
        try:
            return self._context.metric_delta(
                mapping, tile_a, tile_b
            ).weighted_sum(self.weights, strict=False)
        finally:
            self.elapsed += time.perf_counter() - start
            self.delta_evaluations += 1

    # ------------------------------------------------------------------
    # Vector passthrough (the VectorObjective protocol)
    # ------------------------------------------------------------------
    def metrics(self, mapping: Union[Mapping, Dict[str, int]]) -> MetricVector:
        """Named component vector of *mapping* (shared-memo passthrough)."""
        return self._context.metrics(mapping)

    def evaluate_metrics_batch(
        self,
        mappings: Iterable[Union[Mapping, Dict[str, int]]],
        backend=None,
        cores: Optional[Sequence[str]] = None,
    ) -> List[MetricVector]:
        """Component vectors of several candidates (shared-memo passthrough)."""
        if cores is None:
            return self._context.evaluate_metrics_batch(mappings, backend=backend)
        return self._context.evaluate_metrics_batch(
            mappings, backend=backend, cores=cores
        )

    def with_weights(
        self, weights: Dict[str, float], name: Optional[str] = None
    ) -> "ScalarisedObjective":
        """A sibling view with different weights over the same context."""
        return ScalarisedObjective(self._context, weights, name=name)

    def cache_info(self) -> CacheInfo:
        """Memo statistics of the shared context."""
        return self._context.cache_info()

    def reset(self) -> None:
        """Zero this view's counters (the shared memo is left untouched)."""
        self.evaluations = 0
        self.delta_evaluations = 0
        self.elapsed = 0.0

    def __repr__(self) -> str:
        return (
            f"ScalarisedObjective(name={self.name!r}, "
            f"weights={self.weights!r})"
        )


def _bind_context(context: EvaluationContext) -> CountingObjective:
    """Bind a context into the counting wrapper every engine consumes.

    The single place the legacy factories share: the wrapper scalarises with
    the context's own weight view (``context.cost``), which keeps it
    bit-identical to the pre-vector scalar objectives.
    """
    return CountingObjective(context.cost, name=context.name, context=context)


def cwm_objective(
    cwg: CWG,
    platform: Platform,
    include_local: bool = True,
    cache_size: int = DEFAULT_CACHE_SIZE,
    context: Optional[CwmEvaluationContext] = None,
) -> CountingObjective:
    """Objective minimising CWM dynamic energy (equation 3).

    A compatibility shim over the vector core: the returned wrapper
    scalarises the context's single ``dynamic_energy`` component with unit
    weight, bit-identical to the pre-vector objective.

    Parameters
    ----------
    cwg:
        Application communication graph.
    platform:
        Target architecture.
    include_local:
        Whether local core-router links contribute ``ECbit`` per bit.
    cache_size:
        Size of the context's metric-vector memo (0 disables it).
    context:
        Optional pre-built context to share (with its route table, memo and
        batch backend) across objectives.

    Returns
    -------
    CountingObjective
        Supports exact incremental swap deltas (``supports_delta``) and bulk
        pricing (``supports_batch``) — see
        :class:`~repro.eval.context.CwmEvaluationContext`.
    """
    if context is None:
        context = CwmEvaluationContext(
            cwg, platform, include_local=include_local, cache_size=cache_size
        )
    return _bind_context(context)


def cdcm_objective(
    cdcg: CDCG,
    platform: Platform,
    metric: str = "energy",
    energy_weight: float = 1.0,
    time_weight: float = 0.0,
    include_local: bool = True,
    cache_size: int = DEFAULT_CACHE_SIZE,
    context: Optional[CdcmEvaluationContext] = None,
    repair: Optional[bool] = None,
    repair_policy=None,
) -> CountingObjective:
    """Objective minimising CDCM total energy (equation 10) or execution time.

    A compatibility shim over the vector core: the legacy ``metric`` /
    ``energy_weight`` / ``time_weight`` knobs are translated to a weight
    view by :func:`~repro.core.metrics.scalarisation_weights` and applied to
    the context's memoised component vectors, bit-identical to the
    pre-vector objective.  For weight *sweeps* build one context and derive
    :class:`ScalarisedObjective` views instead of constructing one objective
    per weight vector.

    Parameters
    ----------
    cdcg:
        Packet-level application model.
    platform:
        Target architecture.
    metric:
        ``"energy"`` (default), ``"time"`` or ``"weighted"`` — see
        :class:`~repro.core.cdcm.CdcmEvaluator`.
    energy_weight, time_weight:
        Scalarisation weights for the ``"weighted"`` metric.
    include_local:
        Whether local core-router links contribute to dynamic energy.
    cache_size:
        Size of the context's metric-vector memo (0 disables it).
    context:
        Optional pre-built context to share across objectives.
    repair:
        Whether swap deltas are priced by the bounded-repair engine of
        :mod:`repro.eval.repair` (``None`` follows the context default —
        on).  Ignored when *context* is supplied.
    repair_policy:
        Optional :class:`~repro.eval.repair.RepairPolicy` overriding the
        resync/drift contract.  Ignored when *context* is supplied.

    Returns
    -------
    CountingObjective
        Supports bulk pricing (``supports_batch``) and — behind the
        ``repair`` gate — incremental swap deltas (``supports_delta``):
        contention makes exact CDCM deltas global, so moves are priced by
        the bounded-repair engine, exact at every resync point and
        drift-bounded in between (see :mod:`repro.eval.repair`).
    """
    if context is None:
        context = CdcmEvaluationContext(
            cdcg,
            platform,
            metric=metric,
            energy_weight=energy_weight,
            time_weight=time_weight,
            include_local=include_local,
            cache_size=cache_size,
            repair=repair,
            repair_policy=repair_policy,
        )
    return _bind_context(context)


__all__ = [
    "ObjectiveFunction",
    "VectorObjective",
    "CountingObjective",
    "ScalarisedObjective",
    "resolve_vector_source",
    "cwm_objective",
    "cdcm_objective",
]
