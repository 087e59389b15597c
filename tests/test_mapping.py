"""Core-to-tile mappings (repro.core.mapping)."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.mapping import Mapping
from repro.utils.errors import MappingError


class TestConstruction:
    def test_basic(self):
        mapping = Mapping({"a": 0, "b": 2}, num_tiles=4)
        assert mapping.tile_of("a") == 0
        assert mapping.core_at(2) == "b"
        assert mapping.core_at(1) is None
        assert mapping.num_cores == 2

    def test_rejects_duplicate_tiles(self):
        with pytest.raises(MappingError):
            Mapping({"a": 0, "b": 0})

    def test_rejects_negative_tile(self):
        with pytest.raises(MappingError):
            Mapping({"a": -1})

    def test_rejects_tile_beyond_noc(self):
        with pytest.raises(MappingError):
            Mapping({"a": 4}, num_tiles=4)

    def test_rejects_non_integer_tiles(self):
        with pytest.raises(MappingError):
            Mapping({"a": "zero"})
        with pytest.raises(MappingError):
            Mapping({"a": True})

    def test_rejects_more_cores_than_tiles(self):
        with pytest.raises(MappingError):
            Mapping.random(["a", "b", "c"], 2)

    def test_identity(self):
        mapping = Mapping.identity(["x", "y", "z"], num_tiles=5)
        assert mapping.tile_of("y") == 1
        assert mapping.num_tiles == 5

    def test_random_is_injective_and_seeded(self):
        cores = [f"c{i}" for i in range(6)]
        a = Mapping.random(cores, 9, rng=3)
        b = Mapping.random(cores, 9, rng=3)
        c = Mapping.random(cores, 9, rng=4)
        assert a == b
        assert a != c
        assert len(set(a.assignments().values())) == 6


class TestLookups:
    def test_missing_core(self):
        with pytest.raises(MappingError):
            Mapping({"a": 0}).tile_of("b")

    def test_used_and_free_tiles(self):
        mapping = Mapping({"a": 0, "b": 3}, num_tiles=4)
        assert mapping.used_tiles() == [0, 3]
        assert mapping.free_tiles() == [1, 2]

    def test_free_tiles_requires_num_tiles(self):
        with pytest.raises(MappingError):
            Mapping({"a": 0}).free_tiles()

    def test_iteration_and_len(self):
        mapping = Mapping({"b": 1, "a": 0})
        assert list(mapping) == [("a", 0), ("b", 1)]
        assert len(mapping) == 2

    def test_has_core(self):
        mapping = Mapping({"a": 0})
        assert mapping.has_core("a") and not mapping.has_core("b")


class TestTransformations:
    def test_swap_cores(self):
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        swapped = mapping.swap_cores("a", "b")
        assert swapped.tile_of("a") == 1
        assert swapped.tile_of("b") == 0
        assert mapping.tile_of("a") == 0  # immutability

    def test_swap_tiles_with_empty(self):
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        moved = mapping.swap_tiles(0, 3)
        assert moved.tile_of("a") == 3
        assert moved.core_at(0) is None

    def test_swap_tiles_both_empty_is_noop(self):
        mapping = Mapping({"a": 0}, num_tiles=4)
        assert mapping.swap_tiles(2, 3) == mapping

    def test_swap_tiles_out_of_range(self):
        with pytest.raises(MappingError):
            Mapping({"a": 0}, num_tiles=4).swap_tiles(0, 9)

    def test_move_core_to_free_tile(self):
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        moved = mapping.move_core("a", 2)
        assert moved.tile_of("a") == 2
        assert moved.tile_of("b") == 1

    def test_move_core_to_occupied_tile_swaps(self):
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        moved = mapping.move_core("a", 1)
        assert moved.tile_of("a") == 1
        assert moved.tile_of("b") == 0

    def test_relabel_tiles(self):
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        relabelled = mapping.relabel_tiles({0: 3, 3: 0})
        assert relabelled.tile_of("a") == 3
        assert relabelled.tile_of("b") == 1


class TestEqualityAndHashing:
    def test_equality(self):
        assert Mapping({"a": 0, "b": 1}) == Mapping({"b": 1, "a": 0})
        assert Mapping({"a": 0}) != Mapping({"a": 1})

    def test_hash_usable_in_sets(self):
        seen = {Mapping({"a": 0, "b": 1}), Mapping({"b": 1, "a": 0})}
        assert len(seen) == 1

    def test_repr(self):
        assert "a->tau0" in repr(Mapping({"a": 0}))

    def test_pickle_round_trip(self):
        mapping = Mapping({"a": 0, "b": 3}, num_tiles=4)
        hash(mapping)
        clone = pickle.loads(pickle.dumps(mapping))
        assert clone == mapping and hash(clone) == hash(mapping)
        assert clone.free_tiles() == [1, 2]

    def test_unpickled_mapping_hashes_as_its_process_does(self):
        # A hash cached under one string-hash seed must not travel: the
        # unpickled mapping would miss its equal in every set and dict.
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))

        def run(seed, code, stdin=None):
            return subprocess.run(
                [sys.executable, "-c", code],
                input=stdin,
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout

        header = "import pickle, sys; from repro.core.mapping import Mapping; "
        dumped = run(
            "1",
            header + "m = Mapping({'a': 1, 'b': 2}); hash(m); "
            "sys.stdout.buffer.write(pickle.dumps(m))",
        )
        found = run(
            "2",
            header + "m = pickle.loads(sys.stdin.buffer.read()); "
            "print(m in {Mapping({'a': 1, 'b': 2})})",
            stdin=dumped,
        )
        assert found.strip() == b"True"
