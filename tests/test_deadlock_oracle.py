"""The deadlock gate against the dict-of-tuples reference (tests/reference_deadlock.py).

:mod:`repro.noc.deadlock` keeps the channel dependency graph as integer
channel keys and one CSR, built the same way from next-hop rows and from
walked routes, and searched by one DFS.  The tree-against-walk tests of
``tests/test_routing.py`` cannot catch a fault in that shared code, so here
every report (flag, both counts, witness) and every dict graph must equal
the reference's, which builds tuples and sets and sorts them in its DFS.
Inputs are shipped routings and seed, random and mutated minimal tables on
``tests/test_routing.py``'s fabrics, directly and through :class:`RouteWalk`.
The ``slow``-marked sweep covers every small mesh and torus.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

import reference_deadlock as reference
from test_routing import SETTINGS, RouteWalk, _outcome, _tables, fabrics

from repro.codesign import SynthesizedRouting, TableSynthesizer
from repro.codesign.synthesis import DEFAULT_SEED_SPECS
from repro.noc.deadlock import (
    channel_dependency_graph,
    find_cycle,
    validate_deadlock_free,
)
from repro.noc.routing import RoutingAlgorithm, XYRouting, get_routing
from repro.noc.topology import Mesh, Torus
from repro.utils.errors import ConfigurationError


def _report(topology, routing):
    report = validate_deadlock_free(topology, routing, raise_on_cycle=False)
    fields = (
        report.deadlock_free,
        report.num_channels,
        report.num_dependencies,
        report.cycle,
    )
    # ``==`` also holds for NumPy integers; the reference gives Python ints.
    assert type(report.num_channels) is int
    assert type(report.num_dependencies) is int
    assert all(type(tile) is int for channel in report.cycle for tile in channel)
    return fields


def _assert_matches_reference(topology, routing):
    """Report and graph equal the reference's, refusals included."""
    assert _outcome(lambda: _report(topology, routing)) == _outcome(
        lambda: reference.report(topology, routing)
    )
    assert _outcome(lambda: channel_dependency_graph(topology, routing)) == _outcome(
        lambda: reference.channel_dependency_graph(topology, routing)
    )


def _gate_inputs(topology, seed, mutations):
    """Shipped routings, and seed, random and mutated minimal tables."""
    routings = [get_routing(spec) for spec in DEFAULT_SEED_SPECS]
    try:
        synthesizer = TableSynthesizer(topology)
    except ConfigurationError:  # no seed certifies: draw minimal tables directly
        tables = _tables(topology, seed)
    else:
        rng = np.random.default_rng(seed)
        tables = list(synthesizer.seed_tables().values())
        tables.append(synthesizer.random_table(rng))
        tables += [synthesizer.mutate(table, rng, mutations) for table in tables]
    return routings + [SynthesizedRouting(table) for table in tables]


class TestGateMatchesReference:
    @SETTINGS
    @given(
        topology=fabrics,
        seed=st.integers(min_value=0, max_value=2**31),
        mutations=st.integers(min_value=1, max_value=16),
    )
    def test_tables_and_shipped_routings(self, topology, seed, mutations):
        for routing in _gate_inputs(topology, seed, mutations):
            _assert_matches_reference(topology, routing)

    @SETTINGS
    @given(
        topology=fabrics,
        seed=st.integers(min_value=0, max_value=2**31),
        mutations=st.integers(min_value=1, max_value=16),
    )
    def test_through_the_route_walk(self, topology, seed, mutations):
        for routing in _gate_inputs(topology, seed, mutations):
            _assert_matches_reference(topology, RouteWalk(routing))

    def test_cyclic_witnesses_are_compared(self):
        torus = Torus(5, 5)
        for routing in map(get_routing, ("xy", "yx", "table")):
            report = validate_deadlock_free(torus, routing, raise_on_cycle=False)
            assert not report.deadlock_free and report.cycle
            _assert_matches_reference(torus, routing)
            _assert_matches_reference(torus, RouteWalk(routing))


class _Stray(RoutingAlgorithm):
    """XY, except that the route from tile 1 to tile 2 passes *stray*."""

    name = "stray"

    def __init__(self, stray):
        self.stray = stray

    def route(self, topology, source, target):
        path = XYRouting().route(topology, source, target)
        if (source, target) == (1, 2):
            return [source, self.stray, target]
        return path


class TestWalkedTilesOutsideTheFabric:
    @pytest.mark.parametrize("stray", [9, 12, -1, -8])
    def test_refused_naming_the_pair(self, stray):
        mesh = Mesh(3, 3)
        routing = _Stray(stray)
        message = "routes tile 1 to tile 2 along"
        with pytest.raises(ConfigurationError, match=message):
            channel_dependency_graph(mesh, routing)
        with pytest.raises(ConfigurationError, match=message):
            validate_deadlock_free(mesh, routing, raise_on_cycle=False)

    def test_tiles_inside_the_fabric_pass(self):
        mesh = Mesh(3, 3)
        routing = _Stray(4)  # a detour through the centre, not a stray
        _assert_matches_reference(mesh, routing)


class TestFindCycleMatchesReference:
    GRAPHS = {
        "self-dependency": {(0, 1): {(1, 2)}, (1, 2): {(1, 2)}},
        "outside the vertex set": {
            (0, 1): {(1, 0), (1, 2)},
            (1, 2): {(2, 0), (9, 9)},
            (2, 0): {(0, 1)},
        },
        "only outside successors": {(0, 1): {(5, 5)}, (3, 4): {(4, 3)}},
        # Inserted out of order: the roots' sort picks the witness.
        "several cycles": {
            (3, 3): {(3, 3)},
            (2, 1): {(1, 2)},
            (1, 2): {(2, 1)},
            (1, 0): {(0, 1)},
            (0, 1): {(1, 2), (1, 0)},
        },
        "acyclic": {(0, 1): {(1, 2)}, (1, 2): {(2, 3)}, (2, 3): set()},
        "no vertices": {},
    }
    EXPECTED = {
        "self-dependency": ((1, 2),),
        "outside the vertex set": ((0, 1), (1, 2), (2, 0)),
        "only outside successors": (),
        "several cycles": ((0, 1), (1, 0)),
        "acyclic": (),
        "no vertices": (),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_hand_made_graphs(self, name):
        graph = self.GRAPHS[name]
        assert find_cycle(graph) == reference.find_cycle(graph) == self.EXPECTED[name]

    @SETTINGS
    @given(
        edges=st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
            ),
            max_size=24,
        )
    )
    def test_random_graphs(self, edges):
        graph = {}
        for held, wanted in edges:
            graph.setdefault(held, set()).add(wanted)
        assert find_cycle(graph) == reference.find_cycle(graph)


@pytest.mark.slow
def test_gate_on_every_small_grid():
    """Every mesh from 2x2 to 8x8 and torus from 3x3 to 6x6 against the reference."""
    for width in range(2, 9):
        for height in range(2, 9):
            mesh = Mesh(width, height)
            synthesizer = TableSynthesizer(mesh)
            rng = np.random.default_rng(width * 10 + height)
            seeds = list(synthesizer.seed_tables().values())
            tables = seeds + [synthesizer.random_table(rng) for _ in range(20)]
            tables += [
                synthesizer.mutate(seeds[k % len(seeds)], rng, 1 + k % 16)
                for k in range(20)
            ]
            for table in tables:
                _assert_matches_reference(mesh, SynthesizedRouting(table))
    cyclic = 0
    for width in range(3, 7):
        for height in range(3, 7):
            torus = Torus(width, height)
            for spec in ("xy", "yx", "table"):
                routing = get_routing(spec)
                _assert_matches_reference(torus, routing)
                _assert_matches_reference(torus, RouteWalk(routing))
                report = validate_deadlock_free(torus, routing, raise_on_cycle=False)
                cyclic += not report.deadlock_free
    assert cyclic >= 40, "too few witnesses compared"
