"""Common interface and result record for all mapping search engines.

Engines consume objectives through the plain ``mapping -> cost`` contract
and *discover* richer capabilities by probing (:func:`delta_callable`,
:func:`batch_callable`).  Since the vector-objective redesign every engine
also accepts **objective specs** — an
:class:`~repro.eval.context.EvaluationContext` directly, or a
``(vector_objective, weights)`` pair — which :func:`as_objective` coerces
into the callable contract, and every :class:`SearchResult` carries the
best mapping's named per-metric breakdown when the objective can provide
one (:func:`objective_metrics`).

The population engines breed and price **tile rows**: a row is a tuple of
tile indices aligned with a core order, entry *i* being the tile of core
*i* (:meth:`~repro.core.mapping.Mapping.to_index_array` order).  The row
helpers here convert at the boundary (:func:`initial_row`,
:func:`random_row`, :func:`row_mapping`, :func:`tile_array`) and price rows
through any vector source (:func:`price_rows`), so
:class:`~repro.core.mapping.Mapping` objects are built only for results.
:func:`check_noc_size` is the guard every engine runs before searching.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    from repro.analysis.pareto import ParetoPoint

#: Objective signature shared by all engines: lower is better.
Objective = Callable[[Mapping], float]

#: Signature of an incremental objective: exact cost change of swapping the
#: contents of two tiles (see :mod:`repro.eval`).
DeltaFunction = Callable[[Mapping, int, int], float]

#: Signature of a bulk objective: costs of several candidates in input order.
#: Implementations must accept an optional ``backend`` keyword naming a
#: :class:`~repro.eval.parallel.BatchBackend` override; objectives with a
#: truthy ``supports_rows`` also take a ``(pop, cores)`` tile array with a
#: ``cores=`` keyword.
BatchFunction = Callable[..., List[float]]

#: A candidate as the population engines breed it: the tile of each core,
#: in the run's core order.
Row = Tuple[int, ...]


def delta_callable(objective: Objective) -> Optional[DeltaFunction]:
    """Return the objective's exact swap-delta evaluator, if it has one.

    Delta-aware engines (simulated annealing, greedy refinement) probe the
    objective with this helper: objectives built by
    :mod:`repro.core.objective` advertise incremental pricing through a
    truthy ``supports_delta`` attribute and a ``delta(mapping, tile_a,
    tile_b)`` method, while plain callables simply lack both and make the
    engine fall back to full re-evaluation.

    Parameters
    ----------
    objective:
        The objective handed to :meth:`Searcher.search`.

    Returns
    -------
    DeltaFunction or None
        The bound ``delta`` method, or ``None`` when the objective cannot
        price moves incrementally.
    """
    if getattr(objective, "supports_delta", False):
        delta = getattr(objective, "delta", None)
        if callable(delta):
            return delta
    return None


def batch_callable(objective: Objective) -> Optional[BatchFunction]:
    """Return the objective's bulk evaluator, if it has one.

    Population-based engines (genetic, exhaustive) probe the objective with
    this helper: objectives built by :mod:`repro.core.objective` advertise
    bulk pricing through a truthy ``supports_batch`` attribute and an
    ``evaluate_batch(mappings, backend=None)`` method routed through the
    shared :class:`~repro.eval.context.EvaluationContext` — which is where a
    :class:`~repro.eval.parallel.BatchBackend` can fan the batch out over a
    process pool.  Plain callables lack both and make the engine price
    candidates one at a time, in the same order, with identical results.

    Parameters
    ----------
    objective:
        The objective handed to :meth:`Searcher.search`.

    Returns
    -------
    BatchFunction or None
        The bound ``evaluate_batch`` method, or ``None`` when the objective
        cannot price in bulk.
    """
    if getattr(objective, "supports_batch", False):
        batch = getattr(objective, "evaluate_batch", None)
        if callable(batch):
            return batch
    return None


def as_objective(spec) -> Objective:
    """Coerce an objective spec into the callable engines price through.

    Engines call this on whatever was handed to :meth:`Searcher.search`, so
    all of the following are accepted everywhere a plain callable is:

    * a callable ``mapping -> cost`` (returned unchanged — including
      :class:`~repro.core.objective.CountingObjective` and
      :class:`~repro.core.objective.ScalarisedObjective`);
    * an :class:`~repro.eval.context.EvaluationContext` (wrapped in a
      :class:`~repro.core.objective.CountingObjective` scalarising with the
      context's own weight view);
    * a ``(vector_objective, weights)`` pair (turned into a
      :class:`~repro.core.objective.ScalarisedObjective` view sharing the
      source's memo).

    Parameters
    ----------
    spec:
        The objective or objective spec.

    Returns
    -------
    Objective
        A callable honouring the ``mapping -> cost`` contract.

    Raises
    ------
    ConfigurationError
        When *spec* matches none of the accepted shapes.
    """
    if isinstance(spec, tuple) and len(spec) == 2:
        from repro.core.objective import ScalarisedObjective

        source, weights = spec
        return ScalarisedObjective(source, weights)
    if callable(spec):
        return spec
    if callable(getattr(spec, "cost", None)) and callable(
        getattr(spec, "metrics", None)
    ):
        from repro.core.objective import _bind_context

        return _bind_context(spec)
    raise ConfigurationError(
        f"cannot build an objective from {spec!r}; expected a callable, an "
        f"EvaluationContext, or a (vector_objective, weights) pair"
    )


def objective_metrics(
    objective: Objective, mapping: Mapping
) -> Optional[MetricVector]:
    """Best-effort per-metric breakdown of *mapping* under *objective*.

    Probes the objective's bound evaluation context first (an uncounted
    memo lookup, so attaching a breakdown to a
    :class:`SearchResult` never perturbs the Section 5 effort counters or
    the search walk), then the objective itself; plain scalar callables
    yield ``None``.
    """
    context = getattr(objective, "context", None)
    source = context if context is not None else objective
    probe = getattr(source, "metrics", None)
    if not callable(probe):
        return None
    try:
        return probe(mapping)
    except NotImplementedError:
        return None


def check_noc_size(objective, initial: Mapping) -> None:
    """Refuse an initial mapping placed on another NoC than the objective's.

    Engines take the NoC size from the initial mapping.  When the objective,
    or the context bound to it, exposes a platform with a different tile
    count, a search would silently explore the wrong space (a 9-tile
    mapping on a 16-tile platform only ever uses tiles 0-8).  Objectives
    without a platform (plain callables, region sub-problems) pass.

    Raises
    ------
    ConfigurationError
        Naming both sizes when they differ.
    """
    platform = getattr(objective, "platform", None)
    if platform is None:
        platform = getattr(getattr(objective, "context", None), "platform", None)
    expected = getattr(platform, "num_tiles", None)
    if expected is None or initial.num_tiles is None:
        return
    if expected != initial.num_tiles:
        raise ConfigurationError(
            f"initial mapping targets a {initial.num_tiles}-tile NoC but the "
            f"objective's platform has {expected} tiles"
        )


def initial_row(initial: Mapping, cores: Sequence[str]) -> Row:
    """The tile row of *initial* in *cores* order."""
    return tuple(initial.to_index_array(cores).tolist())


def random_row(num_cores: int, num_tiles: int, rng) -> Row:
    """A uniformly random injective tile row.

    Draws exactly what :meth:`Mapping.random <repro.core.mapping.Mapping.random>`
    draws for the same cores: one permutation of the tiles.
    """
    if num_cores > num_tiles:
        raise MappingError(f"{num_cores} cores cannot be placed on {num_tiles} tiles")
    return tuple(rng.permutation(num_tiles)[:num_cores].tolist())


def row_mapping(
    cores: Sequence[str], row: Sequence[int], num_tiles: Optional[int]
) -> Mapping:
    """The :class:`~repro.core.mapping.Mapping` of a bred tile row.

    Rows bred by the operators of :mod:`repro.search.genetic` are injective
    and inside the NoC by construction, so the constructor's validation is
    skipped.
    """
    return Mapping._from_trusted(
        dict(zip(cores, row)), dict(zip(row, cores)), num_tiles
    )


def tile_array(rows: Sequence[Sequence[int]], cores: Sequence[str]) -> np.ndarray:
    """Stack tile rows into the ``(pop, len(cores))`` int64 array pricing takes."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(cores))


def price_rows(
    source,
    rows: Sequence[Sequence[int]],
    cores: Sequence[str],
    num_tiles: Optional[int],
    backend=None,
) -> np.ndarray:
    """The ``(pop, k)`` metric array of tile rows priced through *source*.

    Columns follow ``source.metric_names``.  Sources with a truthy
    ``supports_rows`` (evaluation contexts and the objectives bound to
    them) take the tile array directly; any other vector source is handed
    one :class:`~repro.core.mapping.Mapping` per row.
    """
    if getattr(source, "supports_rows", False):
        return source.evaluate_metrics_batch(
            tile_array(rows, cores), backend=backend, cores=cores
        )
    vectors = source.evaluate_metrics_batch(
        [row_mapping(cores, row, num_tiles) for row in rows], backend=backend
    )
    return np.array(
        [vector.values for vector in vectors], dtype=np.float64
    ).reshape(len(rows), len(source.metric_names))


class PoolOwnerMixin:
    """Shared lifecycle for engines that can own a process-pool backend.

    Engines with a parallel-pricing knob either receive an explicit backend
    (caller-owned, never closed here) or lazily build their own
    :class:`~repro.eval.parallel.ProcessPoolBackend` from an ``n_workers``
    count.  This mixin centralises that resolution plus the
    :meth:`close` / context-manager plumbing, so the policy lives in one
    place.  Subclasses must set ``_backend`` (the explicit backend or
    ``None``) in their constructor and call :meth:`_resolve_backend` with
    their worker count.
    """

    _backend = None
    _owned_backend = None

    def _resolve_backend(self, n_workers: Optional[int]):
        """The backend batched work goes through (``None`` = inline/serial)."""
        if self._backend is not None:
            return self._backend
        if n_workers is not None and n_workers > 1:
            if self._owned_backend is None:
                from repro.eval.parallel import ProcessPoolBackend

                self._owned_backend = ProcessPoolBackend(n_workers=n_workers)
            return self._owned_backend
        return None

    def close(self) -> None:
        """Shut down the engine-owned process pool, if one was created."""
        if self._owned_backend is not None:
            self._owned_backend.close()
            self._owned_backend = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class SearchResult:
    """Outcome of one search run.

    Attributes
    ----------
    best_mapping:
        The lowest-cost mapping found.
    best_cost:
        Its objective value.
    evaluations:
        Number of objective evaluations performed by the engine.
    history:
        ``(evaluation_index, best_cost_so_far)`` samples, recorded whenever
        the incumbent improves — enough to plot convergence curves without
        storing every evaluation.
    accepted_moves:
        For move-based engines (simulated annealing, GA), how many candidate
        moves were accepted; 0 for constructive or enumerative engines.
    best_metrics:
        Named per-metric breakdown of ``best_mapping`` (energy terms, CDCM
        makespan) when the objective exposes one — attached by every engine
        via :func:`objective_metrics`; ``None`` for plain scalar callables.
    front:
        For multi-objective engines
        (:class:`~repro.search.nsga2.NSGA2Search`), the final non-dominated
        set as :class:`~repro.analysis.pareto.ParetoPoint` objects — directly
        interoperable with :mod:`repro.analysis.pareto`
        (:func:`~repro.analysis.pareto.front_to_rows`,
        :func:`~repro.analysis.pareto.hypervolume`, dominance comparisons
        against :func:`~repro.analysis.pareto.weight_sweep_front` fronts).
        ``None`` for scalar engines.
    """

    best_mapping: Mapping
    best_cost: float
    evaluations: int
    history: List[Tuple[int, float]] = field(default_factory=list)
    accepted_moves: int = 0
    best_metrics: Optional[MetricVector] = None
    front: Optional[List["ParetoPoint"]] = None

    @property
    def metric_breakdown(self) -> Optional[Dict[str, float]]:
        """``best_metrics`` as a plain dict, or ``None`` when unavailable."""
        return self.best_metrics.as_dict() if self.best_metrics is not None else None

    def metric(self, name: str) -> float:
        """One component of the best mapping's breakdown, by name.

        Raises
        ------
        ConfigurationError
            When the engine could not attach a breakdown (plain scalar
            objective).
        KeyError
            When the breakdown exists but has no such component.
        """
        if self.best_metrics is None:
            raise ConfigurationError(
                "this search result carries no per-metric breakdown; the "
                "objective was a plain scalar callable"
            )
        return self.best_metrics[name]

    def improvement_over(self, reference_cost: float) -> float:
        """Relative improvement of ``best_cost`` w.r.t. *reference_cost*.

        Returns e.g. ``0.25`` when the search found a mapping 25 % cheaper
        than the reference.  Zero when the reference is not positive.
        """
        if reference_cost <= 0:
            return 0.0
        return (reference_cost - self.best_cost) / reference_cost


class Searcher(ABC):
    """A mapping search engine.

    Engines are stateless with respect to the application: everything they
    know about the problem comes through the objective function and the
    initial mapping, which makes them reusable for CWM and CDCM objectives
    alike (exactly how the paper's FRW framework reuses its two search
    methods for both models).

    Engines that explore by tile swaps may additionally probe the objective
    with :func:`delta_callable` and price moves incrementally when the
    objective supports it; population-based engines probe with
    :func:`batch_callable` and price whole generations (or enumeration
    chunks) in one call — the hook that lets a
    :class:`~repro.eval.parallel.BatchBackend` parallelise them.  The plain
    ``mapping -> cost`` contract remains the only requirement; objective
    *specs* (an :class:`~repro.eval.context.EvaluationContext`, or a
    ``(vector_objective, weights)`` pair) are coerced through
    :func:`as_objective` by every engine.
    """

    #: Short identifier used by the registry and reports.
    name: str = "abstract"

    @abstractmethod
    def search(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Minimise *objective* starting from the *initial* mapping."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


__all__ = [
    "Objective",
    "DeltaFunction",
    "BatchFunction",
    "delta_callable",
    "batch_callable",
    "as_objective",
    "objective_metrics",
    "Row",
    "check_noc_size",
    "initial_row",
    "random_row",
    "row_mapping",
    "tile_array",
    "price_rows",
    "PoolOwnerMixin",
    "SearchResult",
    "Searcher",
]
