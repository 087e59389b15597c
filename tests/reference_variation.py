"""Reference breeding operators: the per-core crossover and tuple-key tournament.

These are the original implementations of
:func:`repro.search.genetic.uniform_assignment_crossover` and of the
tournament of :class:`repro.search.nsga2.PopulationSearch`, copied verbatim
from before both were rewritten to do the same work with fewer interpreter
operations: one coin per scalar draw, parents read through ``tile_of``, the
child re-validated by the ``Mapping`` constructor, and a tuple key built per
drawn index.  ``tests/test_variation_oracle.py`` drives them and the
library's operators from generators in equal states.
"""

from __future__ import annotations

from typing import List

from repro.core.mapping import Mapping


def uniform_assignment_crossover(
    parent_a: Mapping,
    parent_b: Mapping,
    cores: List[str],
    num_tiles: int,
    rng,
) -> Mapping:
    """Position-preserving uniform crossover with injectivity repair."""
    child: dict[str, int] = {}
    used: set[int] = set()
    order = list(cores)
    for core in order:
        choices = [parent_a.tile_of(core), parent_b.tile_of(core)]
        if rng.random() < 0.5:
            choices.reverse()
        tile = next((t for t in choices if t not in used), None)
        if tile is None:
            continue  # resolved in the repair pass below
        child[core] = tile
        used.add(tile)
    free = [t for t in range(num_tiles) if t not in used]
    rng.shuffle(free)
    for core in order:
        if core not in child:
            child[core] = free.pop()
    return Mapping(child, num_tiles=num_tiles)


def tournament(ranks: List[int], tiebreak: list, tournament_size: int, rng) -> int:
    """Index of a tournament winner: lowest rank, tie-break, then index."""
    drawn = rng.integers(0, len(ranks), size=tournament_size)
    return min(
        (int(index) for index in drawn),
        key=lambda index: (ranks[index], tiebreak[index], index),
    )
