"""The breeding operators against their per-core originals.

``uniform_assignment_crossover`` draws its coins as one vector and breeds
tile rows, and the population loop's tournament reads a per-generation
position table instead of building a tuple key per drawn index.  The
contract is **identity** with the originals, kept verbatim in
``tests/reference_variation.py``: from generators in equal states, the
original, given mappings, and the new operator, given the same parents as
tile rows aligned with the cores (``None`` for a core a parent does not
place), return the same child, and leave the generators in equal states.
Where the original raises, the new operator raises the same error with the
same message; the generator state after an error is not compared, since the
search that called the operator stops.

The draws cover identical parents, related and unrelated parents, full and
partial placement, 1 to 64 tiles, cores listed in any order, a core a parent
does not place, and parents placed on a larger NoC than the child's.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_variation
from repro.core.mapping import Mapping
from repro.search.genetic import uniform_assignment_crossover
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters, _tournament_positions
from repro.utils.errors import MappingError

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Crossovers chained per example, each child becoming the next parent.
CHAIN = 4


@st.composite
def crossover_cases(draw):
    """``(parent_a, parent_b, cores, num_tiles, seed)`` for one crossover chain."""
    num_tiles = draw(st.integers(min_value=1, max_value=64))
    num_cores = draw(st.integers(min_value=0, max_value=num_tiles))
    kind = draw(st.sampled_from(("ok", "ok", "ok", "missing", "out-of-range")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = [f"core{index}" for index in rng.permutation(num_cores).tolist()]
    parent_tiles = num_tiles
    if kind == "out-of-range":
        parent_tiles += int(rng.integers(1, 9))
    parent_a = Mapping.random(names, parent_tiles, rng)
    relation = draw(st.sampled_from(("identical", "swapped", "unrelated")))
    if relation == "identical":
        parent_b = parent_a
    elif relation == "swapped":
        parent_b = parent_a
        for _ in range(int(rng.integers(1, 4))):
            tile_a, tile_b = rng.choice(parent_tiles, size=2).tolist()
            parent_b = parent_b.swap_tiles(tile_a, tile_b)
    else:
        parent_b = Mapping.random(names, parent_tiles, rng)
    cores = list(names)
    if kind == "missing":
        if cores and rng.random() < 0.5:
            dropped = cores[int(rng.integers(len(cores)))]
            assignments = parent_b.assignments()
            del assignments[dropped]
            parent_b = Mapping(assignments, parent_tiles)
        else:
            cores.insert(int(rng.integers(len(cores) + 1)), "unplaced")
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return parent_a, parent_b, cores, num_tiles, seed


def _row(mapping, cores):
    """*mapping* as a tile row aligned with *cores* (``None`` when unplaced)."""
    return tuple(mapping.assignments().get(core) for core in cores)


def _outcome(operator, parent_a, parent_b, cores, num_tiles, rng):
    if operator is uniform_assignment_crossover:
        parent_a, parent_b = _row(parent_a, cores), _row(parent_b, cores)
    try:
        return operator(parent_a, parent_b, cores, num_tiles, rng), None
    except MappingError as exc:
        return None, exc


class TestCrossover:
    @SETTINGS
    @given(case=crossover_cases())
    def test_matches_per_core_crossover(self, case):
        parent_a, parent_b, cores, num_tiles, seed = case
        old_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        for _ in range(CHAIN):
            old, old_error = _outcome(
                reference_variation.uniform_assignment_crossover,
                parent_a, parent_b, cores, num_tiles, old_rng,
            )
            new, new_error = _outcome(
                uniform_assignment_crossover,
                parent_a, parent_b, cores, num_tiles, new_rng,
            )
            if old_error is not None:
                assert new_error is not None
                assert str(new_error) == str(old_error)
                return
            assert new_error is None
            assert new == _row(old, cores)
            assert old.num_tiles == num_tiles
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            parent_a, parent_b = parent_b, old

    def test_partial_placement_shuffles_every_leftover_tile(self):
        # Three cores on eight tiles, identical parents: nothing is
        # repaired, yet the five leftover tiles are still shuffled.
        parent = Mapping({"a": 0, "b": 3, "c": 5}, num_tiles=8)
        old_rng = np.random.default_rng(3)
        new_rng = np.random.default_rng(3)
        reference_variation.uniform_assignment_crossover(
            parent, parent, ["a", "b", "c"], 8, old_rng
        )
        row = _row(parent, ["a", "b", "c"])
        child = uniform_assignment_crossover(row, row, ["a", "b", "c"], 8, new_rng)
        assert child == row
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert new_rng.bit_generator.state != np.random.default_rng(3).bit_generator.state

    def test_unplaced_core_raises(self):
        parent = _row(Mapping({"a": 0, "b": 1}, num_tiles=4), ["a", "z", "b"])
        with pytest.raises(MappingError, match="core 'z' is not mapped"):
            uniform_assignment_crossover(
                parent, parent, ["a", "z", "b"], 4, np.random.default_rng(0)
            )

    def test_fallback_outside_the_noc_raises_like_the_original(self):
        # Whenever core x inherits tile 1, core y's tile from parent_a is
        # taken and y falls back to parent_b's tile 2, outside the NoC.
        parent_a = Mapping({"x": 0, "y": 1}, num_tiles=3)
        parent_b = Mapping({"x": 1, "y": 2}, num_tiles=3)
        messages = set()
        for seed in range(16):
            old, old_error = _outcome(
                reference_variation.uniform_assignment_crossover,
                parent_a, parent_b, ["x", "y"], 2, np.random.default_rng(seed),
            )
            new, new_error = _outcome(
                uniform_assignment_crossover,
                parent_a, parent_b, ["x", "y"], 2, np.random.default_rng(seed),
            )
            assert new == (None if old is None else _row(old, ["x", "y"]))
            assert str(new_error) == str(old_error)
            messages.add(str(old_error))
        assert "core 'y' mapped to tile 2, but the NoC only has 2 tiles" in messages


@st.composite
def tournament_cases(draw):
    """``(ranks, tiebreak, tournament_size, seed)`` with heavy ties."""
    size = draw(st.integers(min_value=1, max_value=80))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ranks = rng.integers(0, int(rng.integers(1, 5)), size=size).tolist()
    if draw(st.booleans()):
        # Crowded tie-breaks: negated distances, anchors at -inf, and zeros.
        palette = [-math.inf, -0.0, 0.0, -0.25, -1.5]
        tiebreak = [
            palette[int(rng.integers(len(palette)))]
            if rng.random() < 0.6
            else -float(rng.uniform(0, 2))
            for _ in range(size)
        ]
    else:
        # Niched tie-breaks: (niche count, distance to its reference).
        tiebreak = [
            (int(rng.integers(0, 3)), float(rng.choice([0.0, 0.5, rng.uniform(0, 1)])))
            for _ in range(size)
        ]
    tournament_size = draw(st.integers(min_value=1, max_value=max(1, size)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return ranks, tiebreak, tournament_size, seed


class TestTournament:
    @SETTINGS
    @given(case=tournament_cases())
    def test_matches_tuple_key_tournament(self, case):
        ranks, tiebreak, tournament_size, seed = case
        engine = NSGA2Search(
            Nsga2Parameters(
                population_size=max(4, tournament_size),
                tournament_size=tournament_size,
            )
        )
        position = _tournament_positions(ranks, tiebreak)
        assert sorted(position) == list(range(len(ranks)))
        old_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        for _ in range(20):
            assert engine._tournament(
                position, new_rng
            ) == reference_variation.tournament(
                ranks, tiebreak, tournament_size, old_rng
            )
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
