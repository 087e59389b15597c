"""Communication resource graph (repro.graphs.crg)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.graphs.crg import CRG, Link, Tile
from repro.utils.errors import GraphValidationError


@pytest.fixture
def two_by_one() -> CRG:
    crg = CRG("pair")
    crg.add_tile(0, 0, 0)
    crg.add_tile(1, 1, 0)
    crg.add_link(0, 1, "horizontal")
    crg.add_link(1, 0, "horizontal")
    return crg


class TestTileAndLink:
    def test_tile_name_and_position(self):
        tile = Tile(3, 1, 2)
        assert tile.name == "tau3"
        assert tile.position == (1, 2)

    def test_link_key(self):
        assert Link(0, 1).key == (0, 1)

    def test_link_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            Link(2, 2)

    def test_link_rejects_bad_orientation(self):
        with pytest.raises(GraphValidationError):
            Link(0, 1, "diagonal")


class TestConstruction:
    def test_duplicate_tile_rejected(self, two_by_one):
        with pytest.raises(GraphValidationError):
            two_by_one.add_tile(0, 5, 5)

    def test_negative_index_rejected(self):
        with pytest.raises(GraphValidationError):
            CRG().add_tile(-1, 0, 0)

    def test_link_requires_existing_tiles(self, two_by_one):
        with pytest.raises(GraphValidationError):
            two_by_one.add_link(0, 9)

    def test_duplicate_link_rejected(self, two_by_one):
        with pytest.raises(GraphValidationError):
            two_by_one.add_link(0, 1)


class TestInspection:
    def test_counts(self, two_by_one):
        assert two_by_one.num_tiles == 2
        assert two_by_one.num_links == 2
        assert len(two_by_one) == 2

    def test_tile_lookup(self, two_by_one):
        assert two_by_one.tile(1).position == (1, 0)
        with pytest.raises(GraphValidationError):
            two_by_one.tile(9)

    def test_link_lookup(self, two_by_one):
        assert two_by_one.link(0, 1).orientation == "horizontal"
        with pytest.raises(GraphValidationError):
            two_by_one.link(1, 2)

    def test_has_helpers(self, two_by_one):
        assert two_by_one.has_tile(0)
        assert not two_by_one.has_tile(7)
        assert two_by_one.has_link(0, 1)
        assert not two_by_one.has_link(0, 0)
        assert 0 in two_by_one

    def test_neighbours(self, two_by_one):
        assert two_by_one.neighbours(0) == [1]
        with pytest.raises(GraphValidationError):
            two_by_one.neighbours(9)

    def test_tile_at(self, two_by_one):
        assert two_by_one.tile_at(1, 0).index == 1
        with pytest.raises(GraphValidationError):
            two_by_one.tile_at(5, 5)


class TestValidation:
    def test_validate_ok(self, two_by_one):
        two_by_one.validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            CRG().validate()

    def test_validate_rejects_duplicate_positions(self):
        crg = CRG()
        crg.add_tile(0, 0, 0)
        crg.add_tile(1, 0, 0)
        with pytest.raises(GraphValidationError):
            crg.validate()

    def test_validate_rejects_disconnected(self):
        crg = CRG()
        crg.add_tile(0, 0, 0)
        crg.add_tile(1, 1, 0)
        with pytest.raises(GraphValidationError):
            crg.validate()

    def test_validate_rejects_two_linked_islands(self):
        crg = CRG("islands")
        for index in range(4):
            crg.add_tile(index, index, 0)
        crg.add_link(0, 1, "horizontal")
        crg.add_link(3, 2, "horizontal")
        with pytest.raises(GraphValidationError, match="'islands' is not connected"):
            crg.validate()

    def test_one_way_links_connect_weakly(self):
        crg = CRG()
        for index in range(3):
            crg.add_tile(index, index, 0)
        crg.add_link(0, 1, "horizontal")
        crg.add_link(2, 1, "horizontal")
        crg.validate()


def test_import_repro_leaves_networkx_unloaded():
    # A fresh interpreter: networkx loads only when a to_networkx export runs.
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    code = "import sys, repro; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "False"


class TestConversion:
    def test_to_networkx(self, two_by_one):
        graph = two_by_one.to_networkx()
        assert graph.number_of_nodes() == 2
        assert graph.edges[0, 1]["orientation"] == "horizontal"

    def test_copy(self, two_by_one):
        clone = two_by_one.copy()
        clone.add_tile(2, 2, 0)
        assert two_by_one.num_tiles == 2
        assert clone.num_tiles == 3

    def test_repr(self, two_by_one):
        assert "tiles=2" in repr(two_by_one)
