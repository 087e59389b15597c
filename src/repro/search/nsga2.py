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
under the same seed.  Under a CWM source the same seam vectorises too: the
context converts each generation to a ``(pop, cores)`` tile array and prices
it with the array kernel of :mod:`repro.eval.vector` — again bit-identical,
so fronts do not depend on the gate.

The generation loop itself lives in :class:`PopulationSearch`, which
:class:`NSGA2Search`, :class:`~repro.search.nsga3.NSGA3Search` and
:class:`~repro.codesign.engine.CodesignSearch` configure: each supplies only
its selection (tournament tie-break, truncation of the spilling rank) and,
for co-design, its genome.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dominance import key_matrix, pareto_fronts
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.search.base import (
    PoolOwnerMixin,
    SearchResult,
    Searcher,
    as_objective,
    objective_metrics,
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
    vectors: Sequence[MetricVector], keys: Sequence[str]
) -> List[List[int]]:
    """Deb's fast non-dominated sort: indices grouped into Pareto ranks.

    Runs on the array dominance kernel of :mod:`repro.core.dominance`: one
    ``(n, n)`` comparison per key instead of a Python dominance test per
    pair, with the fronts and their order unchanged.

    Parameters
    ----------
    vectors:
        Metric vectors of the population, in population order.
    keys:
        Component names the dominance check ranges over (all minimised).

    Returns
    -------
    list of list of int
        ``fronts[0]`` is the non-dominated set, ``fronts[1]`` the set
        dominated only by rank 0, and so on.  Every index appears exactly
        once.  Deb's order within a front: front 0 ascending; a later front
        by the position of each member's last dominator in the previous
        front, then by index.

    Raises
    ------
    ConfigurationError
        When a key component is NaN (dominance would cycle and silently
        drop individuals); ±inf is accepted.
    """
    return pareto_fronts(key_matrix(vectors, keys))


def crowding_distances(
    front: Sequence[int],
    vectors: Sequence[MetricVector],
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
        Metric vectors the indices point into.
    keys:
        Component names of the trade-off.

    Returns
    -------
    dict
        ``{index: distance}`` — larger means lonelier, preferred by the
        crowded tournament and by front truncation.
    """
    distances: Dict[int, float] = {index: 0.0 for index in front}
    if len(front) <= 2:
        return {index: math.inf for index in front}
    for key in keys:
        order = sorted(front, key=lambda index: (vectors[index][key], index))
        low = vectors[order[0]][key]
        high = vectors[order[-1]][key]
        distances[order[0]] = math.inf
        distances[order[-1]] = math.inf
        span = high - low
        if not 0.0 < span < math.inf:
            continue
        for position in range(1, len(order) - 1):
            index = order[position]
            if distances[index] == math.inf:
                continue
            gap = (
                vectors[order[position + 1]][key]
                - vectors[order[position - 1]][key]
            )
            distances[index] += gap / span
    return distances


@dataclass
class _Run:
    """State of one search run, handed to every hook of the loop.

    ``search`` builds it and drops it on return: nothing a run needs is kept
    on the engine, so one engine can run any number of searches.
    """

    keys: Tuple[str, ...]
    cores: List[str]
    num_tiles: int
    #: Prices a list of individuals, returning their vectors in order.
    price: Callable[[list], List[MetricVector]]
    #: ``(individual, vector) -> cost`` of the incumbent record.
    score: Callable[[object, MetricVector], float]
    #: NSGA-III's reference lattice; empty under crowding selection.
    references: Tuple[Tuple[float, ...], ...] = ()


class _Outcome(NamedTuple):
    """The final population and the incumbent record of one run."""

    population: list
    vectors: List[MetricVector]
    best: object
    best_cost: float
    best_vector: MetricVector
    history: List[Tuple[int, float]]
    evaluations: int
    moves: int


class PopulationSearch(PoolOwnerMixin, Searcher):
    """The (mu + lambda) generation loop of NSGA-II, NSGA-III and co-design.

    One generation ranks the population, breeds ``population_size``
    children from rank-first tournaments (lowest rank, then
    :meth:`_tiebreak`, then lowest index), prices the brood in one batch and
    refills the population from the ranked union of parents and children:
    whole ranks while they fit, then :meth:`_truncate` cuts the rank that
    spills.  Each child draws from the one random stream in a fixed order:
    two tournaments, the crossover coin and crossover, the mutation coin and
    mutation, then whatever :meth:`_breed` adds.

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
    def _scalar_view(objective, source):
        """``(mapping, vector) -> float`` incumbent scorer for reporting.

        Prefers the objective's (or its context's) weight view — an
        uncounted dot product over the already-priced vectors, bit-identical
        to the scalar engines' costs — and falls back to calling the
        objective when no weights are exposed.
        """
        weights = getattr(objective, "weights", None)
        if not weights:
            weights = getattr(source, "weights", None)
        if weights:
            return lambda mapping, vector: vector.weighted_sum(
                weights, strict=False
            )
        return lambda mapping, vector: objective(mapping)

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
        cores = initial.cores
        backend = self._resolve_backend(params.n_workers)

        def price(candidates: List[Mapping]) -> List[MetricVector]:
            return source.evaluate_metrics_batch(candidates, backend=backend)

        run = _Run(keys, cores, num_tiles, price, self._scalar_view(scalar, source))

        population: List[Mapping] = [initial]
        while len(population) < params.population_size:
            population.append(Mapping.random(cores, num_tiles, generator))
        outcome = self._evolve(population, run, generator)

        final_points = [
            ParetoPoint(mapping=mapping, metrics=vector)
            for mapping, vector in zip(outcome.population, outcome.vectors)
        ]
        return SearchResult(
            best_mapping=outcome.best,
            best_cost=outcome.best_cost,
            evaluations=outcome.evaluations,
            history=outcome.history,
            accepted_moves=outcome.moves,
            best_metrics=objective_metrics(scalar, outcome.best),
            front=non_dominated(final_points, keys),
        )

    def _evolve(self, population: list, run: _Run, rng) -> _Outcome:
        """Price the seed *population*, then run every generation on it."""
        params = self.parameters
        size = params.population_size
        vectors = run.price(population)
        evaluations = len(population)
        moves = 0

        costs = [run.score(i, v) for i, v in zip(population, vectors)]
        best_idx = min(range(len(population)), key=costs.__getitem__)
        best, best_cost = population[best_idx], costs[best_idx]
        best_vector = vectors[best_idx]
        history: List[Tuple[int, float]] = [(evaluations, best_cost)]

        for _ in range(params.generations):
            fronts = fast_non_dominated_sort(vectors, run.keys)
            ranks = [0] * len(population)
            for rank, front in enumerate(fronts):
                for index in front:
                    ranks[index] = rank
            tiebreak = self._tiebreak(fronts, vectors, run)

            # The whole brood first (fixed RNG consumption order), then one
            # batch pricing call.
            children = []
            while len(children) < size:
                parent_a = population[self._tournament(ranks, tiebreak, rng)]
                parent_b = population[self._tournament(ranks, tiebreak, rng)]
                child, applied = self._breed(parent_a, parent_b, run, rng)
                moves += applied
                children.append(child)
            child_vectors = run.price(children)
            evaluations += len(children)

            for child, vector in zip(children, child_vectors):
                cost = run.score(child, vector)
                if cost < best_cost:
                    best, best_cost, best_vector = child, cost, vector
                    history.append((evaluations, best_cost))

            combined = population + children
            combined_vectors = vectors + child_vectors
            survivors: List[int] = []
            for front in fast_non_dominated_sort(combined_vectors, run.keys):
                if len(survivors) + len(front) <= size:
                    survivors.extend(front)
                    if len(survivors) == size:
                        break
                    continue
                slots = size - len(survivors)
                chosen = self._truncate(survivors, front, combined_vectors, slots, run)
                survivors.extend(chosen)
                break
            population = [combined[i] for i in survivors]
            vectors = [combined_vectors[i] for i in survivors]
            self._selected(population, best, run)

        return _Outcome(
            population, vectors, best, best_cost, best_vector, history,
            evaluations, moves,
        )

    def _tournament(self, ranks: List[int], tiebreak: list, rng) -> int:
        """Index of a tournament winner: lowest rank, tie-break, then index."""
        drawn = rng.integers(0, len(ranks), size=self.parameters.tournament_size)
        return min(
            (int(index) for index in drawn),
            key=lambda index: (ranks[index], tiebreak[index], index),
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _tiebreak(self, fronts, vectors, run: _Run) -> list:
        """Per-index tournament tie-break of a ranked population (lower wins)."""

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
