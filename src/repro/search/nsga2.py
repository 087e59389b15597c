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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class Nsga2Parameters:
    """Knobs of :class:`NSGA2Search` (GeneticParameters-style).

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
    their neighbours along each key.  Degenerate keys (zero span across the
    front) contribute nothing.

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
        if span <= 0.0:
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


class NSGA2Search(PoolOwnerMixin, Searcher):
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

    def __init__(
        self,
        parameters: Nsga2Parameters | None = None,
        keys: Optional[Sequence[str]] = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        params = parameters or Nsga2Parameters()
        if n_workers is not None:
            params = replace(params, n_workers=n_workers)
        self.parameters = params
        if keys is not None and not tuple(keys):
            raise ConfigurationError(
                "front keys must name at least one metric (or pass None for "
                "the default energy/time trade-off)"
            )
        self.keys = tuple(keys) if keys is not None else None
        self._backend = backend
        self._owned_backend = None

    # ------------------------------------------------------------------
    def _resolve_keys(self, source) -> Tuple[str, ...]:
        """The dominance keys for *source* (validated against its components)."""
        names = tuple(source.metric_names)
        if self.keys is None:
            preferred = tuple(key for key in ("energy", "time") if key in names)
            return preferred if len(preferred) >= 2 else names
        unknown = [key for key in self.keys if key not in names]
        if unknown:
            raise ConfigurationError(
                f"front keys {unknown!r} are not components of the objective; "
                f"available metrics are {names}"
            )
        return self.keys

    @staticmethod
    def _scalar_view(objective, source):
        """``MetricVector -> float`` incumbent scorer for reporting.

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
        score = self._scalar_view(scalar, source)
        generator = ensure_rng(rng)
        num_tiles = initial.num_tiles
        if num_tiles is None:
            raise ConfigurationError(
                "NSGA-II search requires the initial mapping to know the NoC size"
            )
        cores = initial.cores
        backend = self._resolve_backend(params.n_workers)

        def price(candidates: List[Mapping]) -> List[MetricVector]:
            return source.evaluate_metrics_batch(candidates, backend=backend)

        population: List[Mapping] = [initial]
        while len(population) < params.population_size:
            population.append(Mapping.random(cores, num_tiles, generator))
        vectors = price(population)
        evaluations = len(population)
        mutations = 0

        costs = [score(m, v) for m, v in zip(population, vectors)]
        best_idx = min(range(len(population)), key=costs.__getitem__)
        best, best_cost = population[best_idx], costs[best_idx]
        history: List[Tuple[int, float]] = [(evaluations, best_cost)]

        for _ in range(params.generations):
            # Rank + crowd the current population once per generation; the
            # crowded tournament reads both.
            fronts = fast_non_dominated_sort(vectors, keys)
            ranks = [0] * len(population)
            crowding = [0.0] * len(population)
            for rank, front in enumerate(fronts):
                distances = crowding_distances(front, vectors, keys)
                for index in front:
                    ranks[index] = rank
                    crowding[index] = distances[index]

            # Generate the whole brood first (one RNG stream, fixed
            # consumption order), then price it as one batch — the parallel
            # seam, exactly like GeneticSearch.
            children: List[Mapping] = []
            while len(children) < params.population_size:
                parent_a = self._tournament(population, ranks, crowding, generator)
                parent_b = self._tournament(population, ranks, crowding, generator)
                if generator.random() < params.crossover_rate:
                    child = uniform_assignment_crossover(
                        parent_a, parent_b, cores, num_tiles, generator
                    )
                else:
                    child = parent_a
                if generator.random() < params.mutation_rate:
                    child = swap_mutation(child, num_tiles, generator)
                    mutations += 1
                children.append(child)
            child_vectors = price(children)
            evaluations += len(children)

            for mapping, vector in zip(children, child_vectors):
                cost = score(mapping, vector)
                if cost < best_cost:
                    best, best_cost = mapping, cost
                    history.append((evaluations, best_cost))

            # (mu + lambda) environmental selection: refill from the ranked
            # combined population, truncating the spilling rank by crowding
            # distance (ties broken by index for determinism).
            combined = population + children
            combined_vectors = vectors + child_vectors
            survivors: List[int] = []
            for front in fast_non_dominated_sort(combined_vectors, keys):
                if len(survivors) + len(front) <= params.population_size:
                    survivors.extend(front)
                    if len(survivors) == params.population_size:
                        break
                    continue
                distances = crowding_distances(front, combined_vectors, keys)
                spill = sorted(front, key=lambda i: (-distances[i], i))
                survivors.extend(spill[: params.population_size - len(survivors)])
                break
            population = [combined[i] for i in survivors]
            vectors = [combined_vectors[i] for i in survivors]

        final_points = [
            ParetoPoint(mapping=mapping, metrics=vector)
            for mapping, vector in zip(population, vectors)
        ]
        return SearchResult(
            best_mapping=best,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            accepted_moves=mutations,
            best_metrics=objective_metrics(scalar, best),
            front=non_dominated(final_points, keys),
        )

    # ------------------------------------------------------------------
    def _tournament(
        self,
        population: List[Mapping],
        ranks: List[int],
        crowding: List[float],
        rng,
    ) -> Mapping:
        """Crowded tournament: lowest rank wins, loneliest breaks the tie."""
        size = self.parameters.tournament_size
        indices = rng.integers(0, len(population), size=size)
        winner = min(
            (int(index) for index in indices),
            key=lambda index: (ranks[index], -crowding[index], index),
        )
        return population[winner]


__all__ = [
    "Nsga2Parameters",
    "NSGA2Search",
    "fast_non_dominated_sort",
    "crowding_distances",
]
