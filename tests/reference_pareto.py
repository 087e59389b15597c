"""Reference Pareto ranking: the pairwise Python front builders, kept as an oracle.

These are the original implementations of
:func:`repro.search.nsga2.fast_non_dominated_sort` and
:func:`repro.analysis.pareto.non_dominated`, copied verbatim from before
both moved onto the array kernel of :mod:`repro.core.dominance`.  They test
dominance pair by pair with :meth:`~repro.core.metrics.MetricVector.dominates`
and share no code with the kernel, so ``tests/test_dominance.py`` can
check the kernel against them: identical fronts, in identical order.

:func:`crowding_distances` is the original of
:func:`repro.search.nsga2.crowding_distances`, copied verbatim from before
it read the key matrix of the population loop; ``tests/test_rows.py``
checks both input forms of the library's version against it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.metrics import MetricVector
from repro.utils.errors import ConfigurationError

DEFAULT_FRONT_KEYS = ("energy", "time")


def dominates(
    a: MetricVector, b: MetricVector, keys: Sequence[str] = DEFAULT_FRONT_KEYS
) -> bool:
    """True when *a* Pareto-dominates *b* over *keys* (all minimised)."""
    return a.dominates(b, keys)


def fast_non_dominated_sort(
    vectors: Sequence[MetricVector], keys: Sequence[str]
) -> List[List[int]]:
    """Deb's fast non-dominated sort: indices grouped into Pareto ranks."""
    keys = tuple(keys)
    n = len(vectors)
    dominated: List[List[int]] = [[] for _ in range(n)]
    counts = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if vectors[p].dominates(vectors[q], keys):
                dominated[p].append(q)
                counts[q] += 1
            elif vectors[q].dominates(vectors[p], keys):
                dominated[q].append(p)
                counts[p] += 1
    fronts: List[List[int]] = [[p for p in range(n) if counts[p] == 0]]
    while fronts[-1]:
        next_front: List[int] = []
        for p in fronts[-1]:
            for q in dominated[p]:
                counts[q] -= 1
                if counts[q] == 0:
                    next_front.append(q)
        fronts.append(next_front)
    fronts.pop()  # the loop always appends one trailing empty front
    return fronts


def non_dominated(points, keys: Sequence[str] = DEFAULT_FRONT_KEYS):
    """Filter a point set down to its Pareto front (first of equal positions)."""
    keys = tuple(keys)
    if not keys:
        raise ConfigurationError("non_dominated requires at least one key")
    survivors = []
    seen_positions: set = set()
    for candidate in points:
        position = tuple(candidate.metrics[key] for key in keys)
        if position in seen_positions:
            continue
        if any(dominates(other.metrics, candidate.metrics, keys) for other in points):
            continue
        seen_positions.add(position)
        survivors.append(candidate)
    survivors.sort(key=lambda point: tuple(point.metrics[key] for key in keys))
    return survivors


def crowding_distances(
    front: Sequence[int],
    vectors: Sequence[MetricVector],
    keys: Sequence[str],
) -> Dict[int, float]:
    """Crowding distance of each index of one Pareto rank."""
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
