"""Random-mapping baseline.

Hu & Marculescu's original CWM paper motivates energy-aware mapping by
comparing against random mappings; this engine provides that baseline: draw a
configurable number of independent random mappings and keep the cheapest.
It is also the fallback "null hypothesis" for the ablation benches — any
serious search method must beat it.
"""

from __future__ import annotations

from repro.core.mapping import Mapping
from repro.search.base import (
    Objective,
    SearchResult,
    Searcher,
    as_objective,
    check_noc_size,
    objective_metrics,
)
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng


class RandomSearch(Searcher):
    """Sample *samples* random mappings and keep the best.

    Parameters
    ----------
    samples:
        Number of random mappings to draw (the initial mapping is also
        evaluated, so the total number of evaluations is ``samples + 1``).
    """

    name = "random"

    def __init__(self, samples: int = 100) -> None:
        if samples < 1:
            raise ConfigurationError(f"samples must be positive, got {samples}")
        self.samples = samples

    def search(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        objective = as_objective(objective)
        generator = ensure_rng(rng)
        num_tiles = initial.num_tiles
        if num_tiles is None:
            raise ConfigurationError(
                "random search requires the initial mapping to know the NoC size"
            )
        check_noc_size(objective, initial)
        cores = initial.cores

        best = initial
        best_cost = objective(initial)
        evaluations = 1
        history = [(evaluations, best_cost)]

        for _ in range(self.samples):
            candidate = Mapping.random(cores, num_tiles, generator)
            cost = objective(candidate)
            evaluations += 1
            if cost < best_cost:
                best, best_cost = candidate, cost
                history.append((evaluations, best_cost))

        return SearchResult(
            best_mapping=best,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            best_metrics=objective_metrics(objective, best),
        )


__all__ = ["RandomSearch"]
