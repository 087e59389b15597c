"""NSGA-II population-front search over the vector objective.

Scalarised engines collapse the paper's energy/time trade-off to one weighted
cost per run, so producing a front costs K runs (one per weight vector) and
can only ever recover the *supported* points — the ones some convex weight
combination selects.  This engine optimises the front directly: it evolves a
population on the :class:`~repro.core.objective.VectorObjective` protocol
using NSGA-II (Deb et al. 2002) — fast non-dominated sorting into ranks,
crowding-distance diversity preservation and a crowded binary tournament —
and returns the final non-dominated set as
:class:`~repro.analysis.pareto.ParetoPoint` objects in
:attr:`~repro.search.base.SearchResult.front`, interoperable with everything
in :mod:`repro.analysis.pareto` (so an NSGA-II front and a
:func:`~repro.analysis.pareto.weight_sweep_front` front compare directly).

The variation operators are the permutation-GA machinery shared with
:class:`~repro.search.genetic.GeneticSearch`
(:func:`~repro.search.genetic.uniform_assignment_crossover`,
:func:`~repro.search.genetic.swap_mutation`), and generations are priced
through ``evaluate_metrics_batch`` — the same seam every population engine
uses — so the engine inherits the :class:`~repro.eval.parallel.BatchBackend`
parallelism: set :attr:`Nsga2Parameters.n_workers` (or pass a backend) to fan
pricing out over a process pool, with results bit-identical to serial runs
under the same seed.

The generation loop itself lives in :class:`PopulationSearch`, which
:class:`NSGA2Search`, :class:`~repro.search.nsga3.NSGA3Search` and
:class:`~repro.codesign.engine.CodesignSearch` configure: each supplies only
its selection (tournament tie-break, truncation of the spilling rank) and,
for co-design, its genome.  The loop breeds **tile rows** (the tile of each
core, in the initial mapping's sorted core order), prices each brood as one
``(pop, cores)`` tile array through the array form of
``evaluate_metrics_batch`` (under a CWM source, straight into the array
kernel of :mod:`repro.eval.vector`), and ranks on the key columns of the
``(pop, k)`` metric array it gets back; :func:`fast_non_dominated_sort` and
:func:`crowding_distances` take that key matrix as well as metric vectors.
Mappings and metric vectors are built only for the returned result.
"""

from __future__ import annotations

import math
import operator
from abc import abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dominance import key_matrix, pareto_fronts
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector, weighted_columns
from repro.search.base import (
    PoolOwnerMixin,
    Row,
    SearchResult,
    Searcher,
    as_objective,
    check_noc_size,
    initial_row,
    price_rows,
    random_row,
    row_mapping,
)
from repro.search.genetic import swap_mutation, uniform_assignment_crossover
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng


@dataclass(frozen=True, kw_only=True)
class Nsga2Parameters:
    """Knobs of :class:`NSGA2Search` (GeneticParameters-style).

    Every field is keyword-only.

    Attributes
    ----------
    population_size:
        Individuals per generation (at least 4 — NSGA-II needs room for a
        ranked front plus diversity).
    generations:
        Number of (mu + lambda) generations to evolve.
    tournament_size:
        Individuals drawn per crowded tournament (2 is the canonical binary
        tournament).
    crossover_rate:
        Probability a child is produced by crossover rather than cloning.
    mutation_rate:
        Probability a child is mutated by one tile swap.
    n_workers:
        Parallel pricing fan-out: ``None`` (or 1) prices generations
        serially; larger values make :class:`NSGA2Search` build a
        :class:`~repro.eval.parallel.ProcessPoolBackend` of that size for
        its ``evaluate_metrics_batch`` calls.  Results are bit-identical
        either way.
    """

    population_size: int = 32
    generations: int = 40
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    n_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ConfigurationError("population_size must be at least 4")
        if self.generations < 1:
            raise ConfigurationError("generations must be positive")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ConfigurationError(
                "tournament_size must be between 1 and population_size"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be in [0, 1]")
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be positive, got {self.n_workers}"
            )


def fast_non_dominated_sort(
    vectors: Union[Sequence[MetricVector], np.ndarray],
    keys: Sequence[str],
    stop: Optional[int] = None,
) -> List[List[int]]:
    """Deb's fast non-dominated sort: indices grouped into Pareto ranks.

    Runs on the array dominance kernel of :mod:`repro.core.dominance`: one
    ``(n, n)`` comparison per key instead of a Python dominance test per
    pair, with the fronts and their order unchanged.

    Parameters
    ----------
    vectors:
        Metric vectors of the population, in population order, or their
        ``(n, len(keys))`` key matrix (columns are *keys* in order).
    keys:
        Component names the dominance check ranges over (all minimised).
    stop:
        A positive count: stop once the fronts found hold at least this
        many indices.  The result is then the first fronts of the full
        sort, unchanged, up to the one that reaches *stop*.  The population
        loop's survival sort stops at the population size.

    Returns
    -------
    list of list of int
        ``fronts[0]`` is the non-dominated set, ``fronts[1]`` the set
        dominated only by rank 0, and so on.  Without *stop* every index
        appears exactly once.  Deb's order within a front: front 0
        ascending; a later front by the position of each member's last
        dominator in the previous front, then by index.

    Raises
    ------
    ConfigurationError
        When a key component is NaN (dominance would cycle and silently
        drop individuals; ±inf is accepted), or *stop* is below 1.
    """
    return pareto_fronts(key_matrix(vectors, keys), stop)


def crowding_distances(
    front: Sequence[int],
    vectors: Union[Sequence[MetricVector], np.ndarray],
    keys: Sequence[str],
) -> Dict[int, float]:
    """Crowding distance of each index of one Pareto rank.

    Boundary points of every key get infinite distance (they anchor the
    front's extent); interior points accumulate the normalised gap between
    their neighbours along each key.  Degenerate keys — zero span across the
    front, or a span that is not finite because a component is ±inf —
    contribute only their two anchors, so no distance is ever NaN.

    Parameters
    ----------
    front:
        Indices of one rank (as produced by :func:`fast_non_dominated_sort`).
    vectors:
        Metric vectors the indices point into, or the ``(n, len(keys))``
        key matrix whose columns are *keys* in order.
    keys:
        Component names of the trade-off.

    Returns
    -------
    dict
        ``{index: distance}`` — larger means lonelier, preferred by the
        crowded tournament and by front truncation.
    """
    front = list(front)
    distances: Dict[int, float] = {index: 0.0 for index in front}
    if len(front) <= 2:
        return {index: math.inf for index in front}
    for column in _front_columns(front, vectors, keys):
        # Ascending by value, ties by index.
        ranked = sorted(zip(column, front))
        low = ranked[0][0]
        high = ranked[-1][0]
        distances[ranked[0][1]] = math.inf
        distances[ranked[-1][1]] = math.inf
        span = high - low
        if not 0.0 < span < math.inf:
            continue
        for position in range(1, len(ranked) - 1):
            index = ranked[position][1]
            if distances[index] == math.inf:
                continue
            gap = ranked[position + 1][0] - ranked[position - 1][0]
            distances[index] += gap / span
    return distances


def _front_columns(
    front: List[int],
    vectors: Union[Sequence[MetricVector], np.ndarray],
    keys: Sequence[str],
) -> List[List[float]]:
    """Each key's values over *front*, in front order."""
    if isinstance(vectors, np.ndarray):
        return vectors[front].T.tolist()
    return [[vectors[index][key] for index in front] for key in keys]


def _tournament_positions(ranks: List[int], tiebreak: list) -> List[int]:
    """Each index's place in the tournament order: rank, tie-break, index.

    Sorted once per generation.  Tie-breaks are NaN-free (the dominance
    sort rejects NaN keys, and crowding and niching treat a non-finite span
    as flat), so the order is total and the drawn index placed first is the
    one with the lowest ``(rank, tie-break, index)`` key.
    """
    order = sorted(
        range(len(ranks)), key=lambda index: (ranks[index], tiebreak[index], index)
    )
    position = [0] * len(ranks)
    for place, index in enumerate(order):
        position[index] = place
    return position


@dataclass
class _Run:
    """State of one search run, handed to every hook of the loop.

    ``search`` builds it and drops it on return: nothing a run needs is kept
    on the engine, so one engine can run any number of searches.
    """

    keys: Tuple[str, ...]
    cores: Sequence[str]
    num_tiles: int
    #: Prices a list of individuals: their ``(pop, k)`` metric array.
    price: Callable[[list], np.ndarray]
    #: ``(individuals, values) -> costs`` of the incumbent record, one cost
    #: per individual and its row of the metric array.
    score: Callable[[list, np.ndarray], List[float]]
    #: NSGA-III's reference lattice; empty under crowding selection.
    references: Tuple[Tuple[float, ...], ...] = ()
    #: Columns of the metric array holding :attr:`keys`, in order.
    columns: Tuple[int, ...] = ()


class _Outcome(NamedTuple):
    """The final population and the incumbent record of one run."""

    population: list
    #: The ``(pop, k)`` metric array of :attr:`population`.
    values: np.ndarray
    best: object
    best_cost: float
    #: The incumbent's row of metric values.
    best_values: np.ndarray
    history: List[Tuple[int, float]]
    evaluations: int
    moves: int


class PopulationSearch(PoolOwnerMixin, Searcher):
    """The (mu + lambda) generation loop of NSGA-II, NSGA-III and co-design.

    One generation breeds ``population_size`` children from rank-first
    tournaments (lowest rank, then :meth:`_tiebreak`, then lowest index),
    prices the brood in one batch and refills the population from the
    ranked union of parents and children: whole ranks while they fit, then
    :meth:`_truncate` cuts the rank that spills.  That survival sort stops
    at the front that fills the population, and its fronts, renumbered by
    survivor position, rank the next generation; only the seed population
    is sorted on its own.  Each child draws from the one random stream in a
    fixed order: two tournaments, the crossover coin and crossover, the
    mutation coin and mutation, then whatever :meth:`_breed` adds.

    Individuals are tile rows (:data:`~repro.search.base.Row`, in the
    initial mapping's core order) and each generation's vectors one
    ``(pop, k)`` float64 array; selection reads its key columns.
    :class:`~repro.core.mapping.Mapping` and
    :class:`~repro.core.metrics.MetricVector` objects are built only for
    the returned result.

    Engines configure it: selection through :meth:`_tiebreak` and
    :meth:`_truncate`, the genome through :meth:`_breed` and ``search``.
    Neither registered nor exported; the constructor takes the arguments
    documented on :class:`NSGA2Search`.
    """

    #: Dominance keys picked, in this order, when the caller names none;
    #: fewer than two matches fall back to every component.
    preferred_keys: Tuple[str, ...] = ("energy", "time")
    #: Parameter record built when the caller passes none.
    parameters_type = Nsga2Parameters

    def __init__(
        self,
        parameters: Optional[Nsga2Parameters] = None,
        keys: Optional[Sequence[str]] = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        params = parameters or self.parameters_type()
        if n_workers is not None:
            params = replace(params, n_workers=n_workers)
        self.parameters = params
        if keys is not None and not tuple(keys):
            raise ConfigurationError(
                "keys must name at least one metric (or pass None for the "
                f"default {self.preferred_keys})"
            )
        self.keys = tuple(keys) if keys is not None else None
        self._backend = backend
        self._owned_backend = None

    # ------------------------------------------------------------------
    def _resolve_keys(self, source) -> Tuple[str, ...]:
        """The dominance keys for *source* (validated against its components)."""
        names = tuple(source.metric_names)
        if self.keys is None:
            preferred = tuple(key for key in self.preferred_keys if key in names)
            return preferred if len(preferred) >= 2 else names
        unknown = [key for key in self.keys if key not in names]
        if unknown:
            raise ConfigurationError(
                f"keys {unknown!r} are not components of the objective; "
                f"available metrics are {names}"
            )
        return self.keys

    @staticmethod
    def _scalar_view(objective, source, to_mapping):
        """``(rows, values) -> costs`` incumbent scorer for reporting.

        Prefers the objective's (or its context's) weight view — an
        uncounted weighted sum over the already-priced metric array,
        bit-identical to the scalar engines' costs — and falls back to
        calling the objective on each row's mapping (*to_mapping*) when no
        weights are exposed.
        """
        weights = getattr(objective, "weights", None)
        if not weights:
            weights = getattr(source, "weights", None)
        if weights:
            names = tuple(source.metric_names)
            return lambda rows, values: weighted_columns(
                values, names, weights
            ).tolist()
        return lambda rows, values: [objective(to_mapping(row)) for row in rows]

    def _num_tiles(self, initial: Mapping) -> int:
        """The NoC size the seed individual was placed on."""
        if initial.num_tiles is None:
            raise ConfigurationError(
                f"{self.name} search requires the initial mapping to know the "
                "NoC size"
            )
        return initial.num_tiles

    # ------------------------------------------------------------------
    def search(
        self,
        objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Evolve a population front from *initial* and return it.

        Parameters
        ----------
        objective:
            A vector-capable objective spec (context, counting objective,
            scalarised view, or ``(vector_objective, weights)`` pair).
        initial:
            Seed individual; must know the NoC size.
        rng:
            Seed or generator driving selection, crossover and mutation.

        Returns
        -------
        SearchResult
            ``front`` carries the final non-dominated set;
            ``best_mapping`` / ``best_cost`` / ``history`` report the
            incumbent under the objective's scalar weight view, and
            ``accepted_moves`` counts applied mutations.
        """
        from repro.analysis.pareto import ParetoPoint, non_dominated
        from repro.core.objective import resolve_vector_source

        params = self.parameters
        scalar = as_objective(objective)
        source = resolve_vector_source(scalar)
        keys = self._resolve_keys(source)
        generator = ensure_rng(rng)
        num_tiles = self._num_tiles(initial)
        check_noc_size(scalar, initial)
        cores = tuple(initial.cores)
        backend = self._resolve_backend(params.n_workers)
        names = tuple(source.metric_names)

        def to_mapping(row: Row) -> Mapping:
            return row_mapping(cores, row, num_tiles)

        def price(rows: List[Row]) -> np.ndarray:
            return price_rows(source, rows, cores, num_tiles, backend)

        run = _Run(
            keys, cores, num_tiles, price,
            self._scalar_view(scalar, source, to_mapping),
            columns=tuple(names.index(key) for key in keys),
        )

        population: List[Row] = [initial_row(initial, cores)]
        while len(population) < params.population_size:
            population.append(random_row(len(cores), num_tiles, generator))
        outcome = self._evolve(population, run, generator)

        final_points = [
            ParetoPoint(mapping=to_mapping(row), metrics=MetricVector(names, values))
            for row, values in zip(outcome.population, outcome.values.tolist())
        ]
        return SearchResult(
            best_mapping=to_mapping(outcome.best),
            best_cost=outcome.best_cost,
            evaluations=outcome.evaluations,
            history=outcome.history,
            accepted_moves=outcome.moves,
            best_metrics=MetricVector(names, outcome.best_values.tolist()),
            front=non_dominated(final_points, keys),
        )

    def _evolve(self, population: list, run: _Run, rng) -> _Outcome:
        """Price the seed *population*, then run every generation on it."""
        params = self.parameters
        size = params.population_size
        columns = list(run.columns)
        values = run.price(population)
        evaluations = len(population)
        moves = 0

        costs = run.score(population, values)
        best_idx = min(range(len(population)), key=costs.__getitem__)
        best, best_cost = population[best_idx], costs[best_idx]
        best_values = values[best_idx]
        history: List[Tuple[int, float]] = [(evaluations, best_cost)]

        matrix = values[:, columns]
        fronts = fast_non_dominated_sort(matrix, run.keys)
        for _ in range(params.generations):
            ranks = [0] * len(population)
            for rank, front in enumerate(fronts):
                for index in front:
                    ranks[index] = rank
            position = _tournament_positions(
                ranks, self._tiebreak(fronts, matrix, run)
            )

            # The whole brood first (fixed RNG consumption order), then one
            # batch pricing call.
            children = []
            while len(children) < size:
                parent_a = population[self._tournament(position, rng)]
                parent_b = population[self._tournament(position, rng)]
                child, applied = self._breed(parent_a, parent_b, run, rng)
                moves += applied
                children.append(child)
            child_values = run.price(children)
            evaluations += len(children)

            child_costs = run.score(children, child_values)
            for index, cost in enumerate(child_costs):
                if cost < best_cost:
                    best, best_cost = children[index], cost
                    best_values = child_values[index]
                    history.append((evaluations, best_cost))

            combined = population + children
            combined_values = np.concatenate((values, child_values))
            combined_matrix = combined_values[:, columns]
            # Whole fronts survive until one spills, so each survivor's rank
            # among the survivors is its rank in the combined pool: the
            # fronts, renumbered by survivor position, rank the next
            # generation without sorting it again.
            survivors: List[int] = []
            fronts = []
            for front in fast_non_dominated_sort(combined_matrix, run.keys, stop=size):
                if len(survivors) + len(front) > size:
                    slots = size - len(survivors)
                    front = self._truncate(survivors, front, combined_matrix, slots, run)
                fronts.append(list(range(len(survivors), len(survivors) + len(front))))
                survivors.extend(front)
            population = [combined[i] for i in survivors]
            values = combined_values[survivors]
            matrix = combined_matrix[survivors]
            self._selected(population, best, run)

        return _Outcome(
            population, values, best, best_cost, best_values, history,
            evaluations, moves,
        )

    def _tournament(self, position: List[int], rng) -> int:
        """Index of a tournament winner: the drawn index placed first.

        *position* is each index's place in the generation's tournament
        order (lowest rank, then tie-break, then index).  The entrants are
        drawn one scalar ``rng.integers(n)`` at a time, which consumes the
        generator exactly as one ``rng.integers(0, n, size=tournament_size)``
        call.
        """
        draw = rng.integers
        size = len(position)
        winner = operator.index(draw(size))
        for _ in range(self.parameters.tournament_size - 1):
            drawn = operator.index(draw(size))
            if position[drawn] < position[winner]:
                winner = drawn
        return winner

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _tiebreak(self, fronts, vectors, run: _Run) -> list:
        """Per-index tournament tie-break of a ranked population (lower wins).

        *vectors* is the population's key matrix (or its metric vectors).
        """

    @abstractmethod
    def _truncate(self, accepted, front, vectors, slots, run: _Run) -> List[int]:
        """The *slots* members of the spilling *front* that survive."""

    def _breed(self, parent_a, parent_b, run: _Run, rng) -> Tuple[object, int]:
        """One child of two parents, and how many moves it applied.

        The mapping genome: uniform crossover on the crossover coin (else a
        clone of *parent_a*), then one tile swap on the mutation coin.
        """
        params = self.parameters
        child = parent_a
        if rng.random() < params.crossover_rate:
            child = uniform_assignment_crossover(
                parent_a, parent_b, run.cores, run.num_tiles, rng
            )
        if rng.random() < params.mutation_rate:
            return swap_mutation(child, run.num_tiles, rng), 1
        return child, 0

    def _selected(self, population: list, best, run: _Run) -> None:
        """Called after each selection with the survivors and the incumbent."""


class NSGA2Search(PopulationSearch):
    """Non-dominated sorting genetic algorithm (NSGA-II) over mappings.

    Parameters
    ----------
    parameters:
        Evolution knobs; defaults to :class:`Nsga2Parameters`.
    keys:
        Metric names the dominance relation ranges over.  ``None`` (the
        default) selects ``("energy", "time")`` when the objective prices
        both, and falls back to the objective's full component set otherwise
        (a single-component objective degenerates NSGA-II into an elitist
        scalar GA).
    backend:
        Optional explicit :class:`~repro.eval.parallel.BatchBackend` used for
        generation pricing (overrides ``parameters.n_workers``).  The caller
        owns it (it is not closed by the engine).
    n_workers:
        Convenience override of ``parameters.n_workers`` so the registry can
        surface the knob directly: ``get_searcher("nsga2", n_workers=4)``.

    Notes
    -----
    The objective must be vector-capable: an
    :class:`~repro.eval.context.EvaluationContext`, an objective built by
    :mod:`repro.core.objective`, or a ``(vector_objective, weights)`` spec —
    anything :func:`~repro.core.objective.resolve_vector_source` accepts.
    Plain scalar callables are rejected with a loud
    :class:`~repro.utils.errors.ConfigurationError` (there is no vector to
    sort fronts on).

    The returned :class:`~repro.search.base.SearchResult` carries the final
    non-dominated set in ``front`` (as
    :class:`~repro.analysis.pareto.ParetoPoint` objects, deduplicated and
    sorted like :func:`~repro.analysis.pareto.non_dominated` fronts);
    ``best_mapping`` / ``best_cost`` report the incumbent under the
    objective's own scalar weight view, so the result stays drop-in
    comparable with every scalar engine.

    Determinism: a seeded run returns the same population trajectory, front
    and incumbent regardless of ``n_workers`` — pricing is bit-identical
    across backends and every selection decision breaks ties by index.
    """

    name = "nsga2"

    def _tiebreak(self, fronts, vectors, run):
        """Crowded tie-break: the lonelier (larger crowding distance) wins."""
        tiebreak = [0.0] * len(vectors)
        for front in fronts:
            distances = crowding_distances(front, vectors, run.keys)
            for index in front:
                tiebreak[index] = -distances[index]
        return tiebreak

    def _truncate(self, accepted, front, vectors, slots, run):
        """The *slots* loneliest members of *front*, ties by index."""
        distances = crowding_distances(front, vectors, run.keys)
        return sorted(front, key=lambda i: (-distances[i], i))[:slots]


__all__ = [
    "Nsga2Parameters",
    "NSGA2Search",
    "fast_non_dominated_sort",
    "crowding_distances",
]
