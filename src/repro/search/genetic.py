"""Genetic-algorithm mapping search (extension).

The paper only evaluates exhaustive search and simulated annealing; a
permutation GA is included as an extension and as an ablation reference —
it explores the same move space (injective core-to-tile assignments) with a
population-based strategy:

* individuals are tile rows: the tile of each core, in the initial
  mapping's sorted core order (a :class:`~repro.core.mapping.Mapping` is
  built for the result only);
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

The same batch call is also the vectorisation seam.  An objective that takes
tile arrays (``supports_rows``: the contexts and the objectives bound to
them) gets each generation as one ``(pop, cores)`` array; every batch takes
the context's one path, memo lookup, in-batch dedup and one chunk of misses,
and under a CWM objective the misses go straight into the NumPy array kernel
(:class:`~repro.eval.vector.VectorizedCwmKernel`) instead of a loop per
child — bit-identical again, so the gate
(:attr:`~repro.eval.context.CwmEvaluationContext` ``vectorize``, default on)
never changes which mapping a seeded run returns.  Other objectives are
handed one mapping per child.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import compress
from typing import List, Optional, Sequence, Tuple

from repro.core.mapping import Mapping
from repro.search.base import (
    Objective,
    PoolOwnerMixin,
    Row,
    SearchResult,
    Searcher,
    as_objective,
    batch_callable,
    check_noc_size,
    initial_row,
    objective_metrics,
    random_row,
    row_mapping,
    tile_array,
)
from repro.utils.errors import ConfigurationError, MappingError
from repro.utils.rng import RandomSource, ensure_rng


def uniform_assignment_crossover(
    parent_a: Sequence[Optional[int]],
    parent_b: Sequence[Optional[int]],
    cores: Sequence[str],
    num_tiles: int,
    rng,
) -> Row:
    """Position-preserving uniform crossover with injectivity repair.

    Parents and child are tile rows aligned with *cores*: entry *i* is the
    tile of ``cores[i]`` (``None`` where a parent does not place that core).
    For each core, in *cores* order, the child inherits one parent's tile,
    preferring a uniformly chosen parent but falling back to the other when
    the preferred tile is already taken; cores whose tiles are both taken
    are placed on shuffled leftover tiles in a final repair pass.  The RNG
    is consumed as one coin vector ``rng.random(len(cores))`` — the same
    doubles as one scalar draw per core — plus one shuffle of the leftover
    tiles, so seeded runs are reproducible.  The child is injective by
    construction.

    Shared by :class:`GeneticSearch` and the population engines of
    :mod:`repro.search.nsga2` — the scalar GA and the front engines explore
    the same move space with the same operators.

    Raises
    ------
    MappingError
        When a parent row does not have one entry per core, when a parent
        does not place one of *cores*, or when the child would inherit a
        tile outside the ``num_tiles``-tile NoC.
    """
    for parent in (parent_a, parent_b):
        if len(parent) != len(cores):
            raise MappingError(
                f"{len(cores)} cores but {len(parent)} tile indices"
            )
    try:
        # The cheapest full scan of both rows that fails on a None entry.
        sum(parent_a) + sum(parent_b)
    except TypeError:
        for core, first, second in zip(cores, parent_a, parent_b):
            if first is None or second is None:
                raise MappingError(f"core {core!r} is not mapped") from None
        raise
    flips = (rng.random(len(cores)) < 0.5).tolist()
    free = bytearray(b"\x01") * num_tiles
    child: List[int] = []
    append = child.append
    repaired: List[int] = []
    try:
        for first, second, flip in zip(parent_a, parent_b, flips):
            if flip:
                first, second = second, first
            if free[first]:
                free[first] = 0
                append(first)
            elif free[second]:
                free[second] = 0
                append(second)
            else:
                repaired.append(len(child))  # resolved in the repair pass below
                append(-1)
    except IndexError:
        # The free mask covers the NoC only: the first tile it could not
        # index is the one the child would have inherited.
        tile = first if first >= num_tiles else second
        raise MappingError(
            f"core {cores[len(child)]!r} mapped to tile {tile}, but the NoC "
            f"only has {num_tiles} tiles"
        ) from None
    leftover = list(compress(range(num_tiles), free))
    rng.shuffle(leftover)
    for position in repaired:
        child[position] = leftover.pop()
    return tuple(child)


def swap_mutation(row: Sequence[int], num_tiles: int, rng) -> Row:
    """Swap the contents of two distinct uniformly drawn tiles of a tile row.

    The same move simulated annealing proposes; either tile may be empty.
    Consumes exactly two RNG draws, or none on a NoC of fewer than two
    tiles, where there is nothing to swap and *row* comes back unchanged.
    Shared by :class:`GeneticSearch` and the population engines of
    :mod:`repro.search.nsga2`.
    """
    if num_tiles < 2:
        return row
    tile_a = int(rng.integers(num_tiles))
    tile_b = int(rng.integers(num_tiles - 1))
    if tile_b >= tile_a:
        tile_b += 1
    child = list(row)
    for tile, other in ((tile_a, tile_b), (tile_b, tile_a)):
        if tile in row:
            child[row.index(tile)] = other
    return tuple(child)


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
        check_noc_size(objective, initial)
        cores = tuple(initial.cores)

        batch_fn = batch_callable(objective)
        backend = self._pricing_backend() if batch_fn is not None else None
        prices_rows = batch_fn is not None and getattr(
            objective, "supports_rows", False
        )

        def price(candidates: List[Row]) -> List[float]:
            if prices_rows:
                tiles = tile_array(candidates, cores)
                return batch_fn(tiles, backend=backend, cores=cores)
            mappings = [row_mapping(cores, row, num_tiles) for row in candidates]
            if batch_fn is not None:
                return batch_fn(mappings, backend=backend)
            return [objective(mapping) for mapping in mappings]

        population: List[Row] = [initial_row(initial, cores)]
        while len(population) < params.population_size:
            population.append(random_row(len(cores), num_tiles, generator))
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
            children: List[Row] = []
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

        best_mapping = row_mapping(cores, best, num_tiles)
        return SearchResult(
            best_mapping=best_mapping,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            accepted_moves=accepted,
            best_metrics=objective_metrics(objective, best_mapping),
        )

    # ------------------------------------------------------------------
    def _tournament(self, population: List[Row], costs: List[float], rng) -> Row:
        """Pick the cheapest of ``tournament_size`` uniformly drawn individuals.

        The entrants are drawn one scalar ``rng.integers(n)`` at a time,
        which consumes the generator exactly as one
        ``rng.integers(0, n, size=tournament_size)`` call; ties go to the
        entrant drawn first.
        """
        draw = rng.integers
        size = len(population)
        winner = operator.index(draw(size))
        for _ in range(self.parameters.tournament_size - 1):
            drawn = operator.index(draw(size))
            if costs[drawn] < costs[winner]:
                winner = drawn
        return population[winner]

    def _crossover(
        self,
        parent_a: Row,
        parent_b: Row,
        cores: Sequence[str],
        num_tiles: int,
        rng,
    ) -> Row:
        """Uniform assignment crossover with injectivity repair."""
        return uniform_assignment_crossover(parent_a, parent_b, cores, num_tiles, rng)

    def _mutate(self, row: Row, num_tiles: int, rng) -> Row:
        """Swap the contents of two distinct tiles."""
        return swap_mutation(row, num_tiles, rng)


__all__ = [
    "GeneticParameters",
    "GeneticSearch",
    "uniform_assignment_crossover",
    "swap_mutation",
]
