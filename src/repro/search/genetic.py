"""Genetic-algorithm mapping search (extension).

The paper only evaluates exhaustive search and simulated annealing; a
permutation GA is included as an extension and as an ablation reference —
it explores the same move space (injective core-to-tile assignments) with a
population-based strategy:

* individuals are mappings;
* selection is tournament selection on the objective;
* crossover is a position-preserving uniform crossover repaired to keep the
  assignment injective;
* mutation swaps the contents of two tiles.

Pricing is batched: each generation's children are generated first (consuming
the RNG in exactly the order the per-child loop used to) and then priced in
one :meth:`~repro.core.objective.CountingObjective.evaluate_batch` call.
That batch call is the parallelism seam — set
:attr:`GeneticParameters.n_workers` (or pass a
:class:`~repro.eval.parallel.BatchBackend` to :class:`GeneticSearch`) to fan
generations out over a process pool.  Costs are bit-identical across
backends, so a seeded run returns the same mapping regardless of
``n_workers``.

The same batch call is also the vectorisation seam.  Every batch takes the
context's one path, memo lookup, in-batch dedup and one chunk of misses, so
under a CWM objective the context stacks each generation's misses into one
``(pop, cores)`` tile array and prices it with the NumPy array kernel
(:class:`~repro.eval.vector.VectorizedCwmKernel`) instead of looping per
child — bit-identical again, so the gate
(:attr:`~repro.eval.context.CwmEvaluationContext` ``vectorize``, default on)
never changes which mapping a seeded run returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import List, Optional, Tuple

from repro.core.mapping import Mapping
from repro.search.base import (
    Objective,
    PoolOwnerMixin,
    SearchResult,
    Searcher,
    as_objective,
    batch_callable,
    objective_metrics,
)
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.rng import RandomSource, ensure_rng


def uniform_assignment_crossover(
    parent_a: Mapping,
    parent_b: Mapping,
    cores: List[str],
    num_tiles: int,
    rng,
) -> Mapping:
    """Position-preserving uniform crossover with injectivity repair.

    For each core (in *cores* order) the child inherits one parent's tile,
    preferring a uniformly chosen parent but falling back to the other when
    the preferred tile is already taken; cores whose tiles are both taken
    are placed on shuffled leftover tiles in a final repair pass.  The RNG
    is consumed as one coin vector ``rng.random(len(cores))`` — the same
    doubles as one scalar draw per core — plus one shuffle of the leftover
    tiles, so seeded runs are reproducible.

    The child is built once: placed cores in *cores* order, then the
    repaired cores.  It is injective by construction, so it skips the
    constructor's validation.

    Shared by :class:`GeneticSearch` and the population engines of
    :mod:`repro.search.nsga2` — the scalar GA and the front engines explore
    the same move space with the same operators.

    Raises
    ------
    MappingError
        When a parent does not place one of *cores*, or when the child would
        inherit a tile outside the ``num_tiles``-tile NoC.
    """
    tiles_a = parent_a._core_to_tile
    tiles_b = parent_b._core_to_tile
    flips = (rng.random(len(cores)) < 0.5).tolist()
    free = bytearray(b"\x01") * num_tiles
    core_to_tile: dict[str, int] = {}
    tile_to_core: dict[int, str] = {}
    repaired: List[str] = []
    try:
        for core, first, second, flip in zip(
            cores,
            map(tiles_a.__getitem__, cores),
            map(tiles_b.__getitem__, cores),
            flips,
        ):
            if flip:
                first, second = second, first
            if free[first]:
                tile = first
            elif free[second]:
                tile = second
            else:
                repaired.append(core)  # resolved in the repair pass below
                continue
            free[tile] = 0
            core_to_tile[core] = tile
            tile_to_core[tile] = core
    except KeyError as exc:
        raise MappingError(f"core {exc.args[0]!r} is not mapped") from None
    except IndexError:
        # The free mask covers the NoC only: the first tile it could not
        # index is the one the child would have inherited.
        tile = first if first >= num_tiles else second
        raise MappingError(
            f"core {core!r} mapped to tile {tile}, but the NoC only has "
            f"{num_tiles} tiles"
        ) from None
    leftover = list(compress(range(num_tiles), free))
    rng.shuffle(leftover)
    for core in repaired:
        tile = leftover.pop()
        core_to_tile[core] = tile
        tile_to_core[tile] = core
    return Mapping._from_trusted(core_to_tile, tile_to_core, num_tiles)


def swap_mutation(mapping: Mapping, num_tiles: int, rng) -> Mapping:
    """Swap the contents of two distinct uniformly drawn tiles.

    The same move simulated annealing proposes; either tile may be empty.
    Consumes exactly two RNG draws, or none on a NoC of fewer than two
    tiles, where there is nothing to swap and *mapping* comes back
    unchanged.  Shared by :class:`GeneticSearch` and the population engines
    of :mod:`repro.search.nsga2`.
    """
    if num_tiles < 2:
        return mapping
    tile_a = int(rng.integers(num_tiles))
    tile_b = int(rng.integers(num_tiles - 1))
    if tile_b >= tile_a:
        tile_b += 1
    return mapping.swap_tiles(tile_a, tile_b)


@dataclass(frozen=True)
class GeneticParameters:
    """Knobs of :class:`GeneticSearch`.

    Attributes
    ----------
    population_size:
        Individuals per generation (at least 2).
    generations:
        Number of generations to evolve.
    tournament_size:
        Individuals drawn per tournament selection.
    crossover_rate:
        Probability a child is produced by crossover rather than cloning.
    mutation_rate:
        Probability a child is mutated by one tile swap.
    elite_count:
        Best individuals copied unchanged into the next generation.
    n_workers:
        Parallel pricing fan-out: ``None`` (or 1) prices generations
        serially; larger values make :class:`GeneticSearch` build a
        :class:`~repro.eval.parallel.ProcessPoolBackend` of that size for its
        batch evaluations.  Only effective when the objective supports batch
        pricing (see :func:`repro.search.base.batch_callable`); results are
        bit-identical either way.
    """

    population_size: int = 30
    generations: int = 40
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elite_count: int = 2
    n_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
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
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigurationError(
                "elite_count must be smaller than population_size"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be positive, got {self.n_workers}"
            )


class GeneticSearch(PoolOwnerMixin, Searcher):
    """Permutation genetic algorithm over core-to-tile assignments.

    Parameters
    ----------
    parameters:
        GA knobs; defaults to :class:`GeneticParameters`.
    backend:
        Optional explicit :class:`~repro.eval.parallel.BatchBackend` used for
        generation pricing (overrides ``parameters.n_workers``).  The caller
        owns it (it is not closed by the engine).
    n_workers:
        Convenience override of ``parameters.n_workers`` so the registry can
        surface the knob directly: ``get_searcher("genetic", n_workers=4)``.

    Notes
    -----
    When the engine builds its own pool from ``n_workers``, the pool is
    created lazily on the first batched generation, reused across searches,
    and released by :meth:`close` (the engine also works as a context
    manager).  Objectives without batch support are priced candidate by
    candidate, in identical order, with identical results.
    """

    name = "genetic"

    def __init__(
        self,
        parameters: GeneticParameters | None = None,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        params = parameters or GeneticParameters()
        if n_workers is not None:
            params = replace(params, n_workers=n_workers)
        self.parameters = params
        self._backend = backend
        self._owned_backend = None

    # ------------------------------------------------------------------
    def _pricing_backend(self):
        """The backend generation batches go through (``None`` = inline)."""
        return self._resolve_backend(self.parameters.n_workers)

    # ------------------------------------------------------------------
    def search(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Evolve mappings from *initial* and return the best found.

        Parameters
        ----------
        objective:
            ``mapping -> cost`` callable (lower is better); batch-capable
            objectives are priced generation-at-a-time.
        initial:
            Seed individual; must know the NoC size.
        rng:
            Seed or generator driving selection, crossover and mutation.

        Returns
        -------
        SearchResult
            Best mapping, its cost, evaluation count and convergence history.
        """
        params = self.parameters
        objective = as_objective(objective)
        generator = ensure_rng(rng)
        num_tiles = initial.num_tiles
        if num_tiles is None:
            raise ConfigurationError(
                "genetic search requires the initial mapping to know the NoC size"
            )
        cores = initial.cores

        batch_fn = batch_callable(objective)
        backend = self._pricing_backend() if batch_fn is not None else None

        def price(candidates: List[Mapping]) -> List[float]:
            if batch_fn is not None:
                return batch_fn(candidates, backend=backend)
            return [objective(candidate) for candidate in candidates]

        population: List[Mapping] = [initial]
        while len(population) < params.population_size:
            population.append(Mapping.random(cores, num_tiles, generator))
        costs = price(population)
        evaluations = len(population)
        accepted = 0

        best_idx = min(range(len(population)), key=costs.__getitem__)
        best, best_cost = population[best_idx], costs[best_idx]
        history: List[Tuple[int, float]] = [(evaluations, best_cost)]

        for _ in range(params.generations):
            ranked = sorted(range(len(population)), key=costs.__getitem__)
            next_population = [population[i] for i in ranked[: params.elite_count]]
            next_costs = [costs[i] for i in ranked[: params.elite_count]]

            # Generate the whole brood first (same RNG consumption order as
            # the old per-child loop), then price it as one batch — the
            # parallel seam.
            children: List[Mapping] = []
            while len(next_population) + len(children) < params.population_size:
                parent_a = self._tournament(population, costs, generator)
                parent_b = self._tournament(population, costs, generator)
                if generator.random() < params.crossover_rate:
                    child = self._crossover(parent_a, parent_b, cores, num_tiles, generator)
                else:
                    child = parent_a
                if generator.random() < params.mutation_rate:
                    child = self._mutate(child, num_tiles, generator)
                    accepted += 1
                children.append(child)
            next_population.extend(children)
            next_costs.extend(price(children))
            evaluations += len(children)

            population, costs = next_population, next_costs
            gen_best = min(range(len(population)), key=costs.__getitem__)
            if costs[gen_best] < best_cost:
                best, best_cost = population[gen_best], costs[gen_best]
                history.append((evaluations, best_cost))

        return SearchResult(
            best_mapping=best,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            accepted_moves=accepted,
            best_metrics=objective_metrics(objective, best),
        )

    # ------------------------------------------------------------------
    def _tournament(self, population: List[Mapping], costs: List[float], rng) -> Mapping:
        """Pick the cheapest of ``tournament_size`` uniformly drawn individuals."""
        size = self.parameters.tournament_size
        drawn = rng.integers(0, len(population), size=size)
        return population[min(drawn.tolist(), key=costs.__getitem__)]

    def _crossover(
        self,
        parent_a: Mapping,
        parent_b: Mapping,
        cores: List[str],
        num_tiles: int,
        rng,
    ) -> Mapping:
        """Uniform assignment crossover with injectivity repair."""
        return uniform_assignment_crossover(parent_a, parent_b, cores, num_tiles, rng)

    def _mutate(self, mapping: Mapping, num_tiles: int, rng) -> Mapping:
        """Swap the contents of two distinct tiles."""
        return swap_mutation(mapping, num_tiles, rng)


__all__ = [
    "GeneticParameters",
    "GeneticSearch",
    "uniform_assignment_crossover",
    "swap_mutation",
]
