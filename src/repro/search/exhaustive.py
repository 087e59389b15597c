"""Exhaustive search over all core-to-tile assignments.

The paper uses exhaustive search (ES) on small NoCs (up to 3x4 / 2x5) as the
optimality reference for simulated annealing; for those sizes both methods
reach the same solutions.  The search space is every injective assignment of
the ``m`` application cores to the ``n`` tiles — ``n! / (n-m)!`` mappings —
so the engine refuses (by default) to enumerate spaces larger than a
configurable bound instead of silently running for hours.

Candidates are priced in enumeration-order chunks through the objective's
:meth:`~repro.core.objective.CountingObjective.evaluate_batch` (when it has
one), which is the seam a :class:`~repro.eval.parallel.BatchBackend` can
parallelise — and the seam the CWM array kernel
(:mod:`repro.eval.vector`) vectorises, pricing each enumeration chunk as one
``(chunk, cores)`` NumPy gather; results — best mapping, cost, evaluation
count and history — are bit-identical to the one-at-a-time path because
chunking preserves the enumeration order exactly and the kernel reduces in
the scalar accumulation order.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import List, Optional

from repro.core.mapping import Mapping
from repro.search.base import (
    Objective,
    PoolOwnerMixin,
    SearchResult,
    Searcher,
    as_objective,
    check_noc_size,
    batch_callable,
    objective_metrics,
)
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource

#: Candidates priced per batch call during enumeration.
DEFAULT_BATCH_SIZE = 256


class ExhaustiveSearch(PoolOwnerMixin, Searcher):
    """Enumerate every injective mapping and keep the cheapest.

    Parameters
    ----------
    max_candidates:
        Safety bound on the number of mappings the engine will enumerate.
        ``None`` disables the bound.
    batch_size:
        Candidates priced per :meth:`evaluate_batch` call when the objective
        supports bulk pricing; irrelevant otherwise.
    backend:
        Optional :class:`~repro.eval.parallel.BatchBackend` override
        forwarded to the objective's batch calls (e.g. a
        :class:`~repro.eval.parallel.ProcessPoolBackend` for expensive CDCM
        enumeration).  The caller owns it.
    n_workers:
        Convenience knob: when given (and > 1) without an explicit *backend*,
        the engine builds a process pool of that size on first use and
        releases it in :meth:`close`.
    """

    name = "exhaustive"

    def __init__(
        self,
        max_candidates: Optional[int] = 2_000_000,
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend=None,
        n_workers: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
        self.max_candidates = max_candidates
        self.batch_size = batch_size
        self.n_workers = n_workers
        self._backend = backend
        self._owned_backend = None

    # ------------------------------------------------------------------
    def _pricing_backend(self):
        """The backend enumeration chunks go through (``None`` = inline)."""
        return self._resolve_backend(self.n_workers)

    # ------------------------------------------------------------------
    def search(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Enumerate the space and return the global optimum.

        Parameters
        ----------
        objective:
            ``mapping -> cost`` callable (lower is better).
        initial:
            Defines the core set and NoC size; also the first candidate
            evaluated.
        rng:
            Ignored — the enumeration is deterministic.

        Returns
        -------
        SearchResult
            The cheapest mapping of the whole space, with a history entry per
            improvement along the enumeration order.
        """
        del rng  # the enumeration is deterministic
        objective = as_objective(objective)
        cores = initial.cores
        num_tiles = initial.num_tiles
        if num_tiles is None:
            raise ConfigurationError(
                "exhaustive search requires the initial mapping to know the NoC size"
            )
        check_noc_size(objective, initial)
        space = self.search_space_size(len(cores), num_tiles)
        if self.max_candidates is not None and space > self.max_candidates:
            raise ConfigurationError(
                f"exhaustive search space has {space} mappings, above the "
                f"configured bound of {self.max_candidates}; use simulated "
                f"annealing for this NoC size"
            )

        batch_fn = batch_callable(objective)
        backend = self._pricing_backend() if batch_fn is not None else None

        def price(candidates: List[Mapping]) -> List[float]:
            if batch_fn is not None:
                return batch_fn(candidates, backend=backend)
            return [objective(candidate) for candidate in candidates]

        best_mapping = initial
        best_cost = price([initial])[0]
        evaluations = 1
        history = [(1, best_cost)]

        tile_indices = list(range(num_tiles))

        def consume(chunk: List[Mapping]) -> None:
            nonlocal best_mapping, best_cost, evaluations
            for candidate, cost in zip(chunk, price(chunk)):
                evaluations += 1
                if cost < best_cost:
                    best_cost = cost
                    best_mapping = candidate
                    history.append((evaluations, cost))

        chunk: List[Mapping] = []
        for assignment in permutations(tile_indices, len(cores)):
            candidate = Mapping(dict(zip(cores, assignment)), num_tiles=num_tiles)
            if candidate == initial:
                continue
            chunk.append(candidate)
            if len(chunk) >= self.batch_size:
                consume(chunk)
                chunk = []
        if chunk:
            consume(chunk)

        return SearchResult(
            best_mapping=best_mapping,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            best_metrics=objective_metrics(objective, best_mapping),
        )

    @staticmethod
    def search_space_size(num_cores: int, num_tiles: int) -> int:
        """Number of injective mappings of *num_cores* cores onto *num_tiles* tiles.

        Parameters
        ----------
        num_cores:
            Application cores to place.
        num_tiles:
            Tiles of the target NoC.

        Returns
        -------
        int
            ``perm(num_tiles, num_cores)``; 0 when the cores cannot fit.
        """
        if num_cores > num_tiles:
            return 0
        return math.perm(num_tiles, num_cores)


__all__ = ["ExhaustiveSearch", "DEFAULT_BATCH_SIZE"]
