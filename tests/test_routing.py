"""Deterministic routing (repro.noc.routing).

The last section pins the next-hop-tree builds to the route walk: for a
routing with a next-hop table, the channel dependency graph
(:func:`~repro.noc.deadlock.channel_dependency_graph`) and the eager
:class:`~repro.eval.route_table.RouteTable` are built from the trees, and
:class:`RouteWalk` — a wrapper that forwards only ``route()`` — forces the
per-pair route walk they must equal, error messages included.  The grid
routings compute their tables from coordinates; the ``slow``-marked sweep
checks them on every small mesh and torus.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.codesign import SynthesizedRouting, TableSynthesizer
from repro.codesign.synthesis import DEFAULT_SEED_SPECS
from repro.energy.technology import TECH_0_07UM, TECH_0_35UM
from repro.eval.route_table import RouteTable
from repro.noc.deadlock import (
    channel_dependency_graph,
    find_cycle,
    validate_deadlock_free,
)
from repro.noc.routing import (
    NegativeFirstRouting,
    RoutingAlgorithm,
    TableRouting,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    get_routing,
    link_adjacency,
    minimal_next_hops,
    next_hop_trees,
)
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.utils.errors import ConfigurationError


@pytest.fixture
def mesh() -> Mesh:
    return Mesh(4, 4)


class TestXYRouting:
    def test_same_tile(self, mesh):
        assert XYRouting().route(mesh, 5, 5) == [5]

    def test_horizontal_route(self, mesh):
        assert XYRouting().route(mesh, 0, 3) == [0, 1, 2, 3]

    def test_vertical_route(self, mesh):
        assert XYRouting().route(mesh, 0, 12) == [0, 4, 8, 12]

    def test_x_before_y(self, mesh):
        # from (0,0) to (2,2): go east twice, then south twice
        assert XYRouting().route(mesh, 0, 10) == [0, 1, 2, 6, 10]

    def test_negative_directions(self, mesh):
        assert XYRouting().route(mesh, 10, 0) == [10, 9, 8, 4, 0]

    def test_hop_count_matches_manhattan(self, mesh):
        routing = XYRouting()
        for source in mesh.tiles():
            for target in mesh.tiles():
                assert (
                    routing.hop_count(mesh, source, target)
                    == mesh.manhattan_distance(source, target) + 1
                )

    def test_links(self, mesh):
        assert XYRouting().links(mesh, 0, 5) == [(0, 1), (1, 5)]

    def test_route_is_mesh_adjacent(self, mesh):
        path = XYRouting().route(mesh, 3, 12)
        for a, b in zip(path, path[1:]):
            assert b in mesh.neighbours(a)

    def test_paper_example_route(self):
        # 2x2 mesh: from tau2 (A) to tau3 (F) in paper numbering, i.e. from
        # tile 1 to tile 2: XY goes through tile 0 (tau1), where the paper's
        # contention occurs.
        assert XYRouting().route(Mesh(2, 2), 1, 2) == [1, 0, 2]

    def test_endpoint_validation(self, mesh):
        with pytest.raises(ConfigurationError):
            XYRouting().route(mesh, 0, 99)
        with pytest.raises(ConfigurationError):
            XYRouting().route(mesh, -1, 0)


class TestYXRouting:
    def test_y_before_x(self, mesh):
        # from (0,0) to (2,2): go south twice, then east twice
        assert YXRouting().route(mesh, 0, 10) == [0, 4, 8, 9, 10]

    def test_same_endpoints_as_xy(self, mesh):
        xy, yx = XYRouting(), YXRouting()
        for source, target in [(0, 15), (3, 12), (7, 8)]:
            assert xy.route(mesh, source, target)[0] == yx.route(mesh, source, target)[0]
            assert xy.route(mesh, source, target)[-1] == yx.route(mesh, source, target)[-1]
            assert len(xy.route(mesh, source, target)) == len(
                yx.route(mesh, source, target)
            )


class TestTorusRouting:
    def test_wraparound_is_shorter(self):
        torus = Torus(4, 4)
        path = XYRouting().route(torus, 0, 3)
        # wrap west: 0 -> 3 directly
        assert path == [0, 3]

    def test_hop_count_matches_torus_distance(self):
        torus = Torus(4, 3)
        routing = XYRouting()
        for source in torus.tiles():
            for target in torus.tiles():
                assert (
                    routing.hop_count(torus, source, target)
                    == torus.manhattan_distance(source, target) + 1
                )


class TestRegistry:
    def test_get_by_name(self):
        assert isinstance(get_routing("xy"), XYRouting)
        assert isinstance(get_routing("YX"), YXRouting)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_routing("adaptive")


# ---------------------------------------------------------------------------
# Next-hop trees against the route walk
# ---------------------------------------------------------------------------

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class RouteWalk(RoutingAlgorithm):
    """Forwards only ``route()``: consumers cannot see a next-hop table."""

    def __init__(self, inner: RoutingAlgorithm) -> None:
        self.inner = inner
        self.name = inner.name

    def route(self, topology, source, target):
        return self.inner.route(topology, source, target)


class UnvalidatedTopology(IrregularTopology):
    """An irregular fabric that may leave tile pairs unreachable."""

    def _validate_connected(self) -> None:
        pass


@st.composite
def irregular_fabrics(draw):
    """A random spanning tree plus extra links, both directions each."""
    size = draw(st.integers(min_value=3, max_value=9))
    edges = [
        (tile, draw(st.integers(min_value=0, max_value=tile - 1)))
        for tile in range(1, size)
    ]
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=size - 1),
                st.integers(min_value=0, max_value=size - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=size,
        )
    )
    return IrregularTopology(edges + extra, name=f"irregular-{size}")


fabrics = st.one_of(
    st.builds(
        Mesh,
        width=st.integers(min_value=2, max_value=5),
        height=st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        Torus,
        width=st.integers(min_value=3, max_value=4),
        height=st.integers(min_value=3, max_value=4),
    ),
    irregular_fabrics(),
)


def _materialise(topology, routing):
    """The next-hop table of *routing* over *topology*, from route walks."""
    tiles = range(topology.num_tiles)
    return tuple(
        tuple(
            -1 if tile == target else routing.route(topology, tile, target)[1]
            for tile in tiles
        )
        for target in tiles
    )


def _tables(topology, seed):
    """Seed, random and mutated minimal tables over *topology*."""
    generator = np.random.default_rng(seed)

    def pick(hops):
        return hops[int(generator.integers(len(hops)))]

    out, incoming = link_adjacency(topology)
    # choices[target][tile]: the minimal next hops from tile towards target.
    choices = [minimal_next_hops(out, incoming, target) for target in topology.tiles()]
    tables = []
    for spec in DEFAULT_SEED_SPECS:
        try:
            tables.append(_materialise(topology, get_routing(spec)))
        except ConfigurationError:
            continue  # e.g. a grid routing on an irregular fabric
    tables.append(
        tuple(
            tuple(pick(hops) if hops else -1 for hops in per_tile)
            for per_tile in choices
        )
    )
    mutable = [
        (target, tile)
        for target, per_tile in enumerate(choices)
        for tile, hops in enumerate(per_tile)
        if len(hops) > 1
    ]
    mutated = [list(row) for row in tables[0]]
    for _ in range(8 if mutable else 0):
        target, tile = pick(mutable)
        mutated[target][tile] = pick(choices[target][tile])
    tables.append(tuple(tuple(row) for row in mutated))
    return tables


def _route_table_state(table):
    """Everything an eager route table serves, as comparable values."""
    n = table.num_tiles
    pairs = [(source, target) for source in range(n) for target in range(n)]
    energy, hops = table.as_arrays()
    indptr, indices = table.link_csr()
    return (
        [table.path(*pair) for pair in pairs],
        [table.links(*pair) for pair in pairs],
        hops.tobytes(),
        energy.tobytes(),
        indptr.tobytes(),
        indices.tobytes(),
        [table.link_ids(*pair) for pair in pairs],
    )


def _outcome(build):
    """``("value", result)`` or ``("error", message)`` of *build*."""
    try:
        return "value", build()
    except ConfigurationError as error:
        return "error", str(error)


def _assert_trees_match_walk(topology, routing):
    walk = RouteWalk(routing)
    assert next_hop_trees(topology, walk) is None
    graph = channel_dependency_graph(topology, routing)
    walk_graph = channel_dependency_graph(topology, walk)
    assert graph == walk_graph
    assert find_cycle(graph) == find_cycle(walk_graph)
    assert validate_deadlock_free(
        topology, routing, raise_on_cycle=False
    ) == validate_deadlock_free(topology, walk, raise_on_cycle=False)
    for technology, include_local in ((TECH_0_07UM, True), (TECH_0_35UM, False)):
        fast = RouteTable(topology, routing, technology, include_local, precompute=True)
        slow = RouteTable(topology, walk, technology, include_local, precompute=True)
        state = _route_table_state(fast)
        assert state == _route_table_state(slow)
        # ``==`` also holds for NumPy integers; the walk serves Python ints.
        paths, links = state[:2]
        assert all(type(tile) is int for path in paths for tile in path)
        assert all(
            type(tile) is int for route in links for link in route for tile in link
        )
        # Link ids are the positions of the route's links among the sorted links.
        position = {link: i for i, link in enumerate(sorted(topology.links()))}
        link_ids = state[-1]
        assert link_ids == [tuple(position[link] for link in route) for route in links]
        assert all(type(link) is int for route in link_ids for link in route)


GRID_ROUTINGS = (XYRouting(), YXRouting(), WestFirstRouting(), NegativeFirstRouting())


def _next_hop_rows(topology, routing):
    """The checked next-hop rows, or the route walk's where there are none."""
    rows = next_hop_trees(topology, routing)
    if rows is None:
        return _materialise(topology, routing)
    return tuple(tuple(row) for row in rows)


def _assert_grid_matches_walk(topology, routing):
    """A grid routing's table builds equal its route walk, refusals included."""
    try:
        routing.route(topology, 0, 0)
    except ConfigurationError:  # route() refuses the fabric: so must the table
        builds = dict(TestCorruptTablesRaiseAsTheRouteWalk.BUILDS, table=_next_hop_rows)
        for name, build in builds.items():
            fast = _outcome(lambda: build(topology, routing))
            slow = _outcome(lambda: build(topology, RouteWalk(routing)))
            assert fast[0] == "error" and fast == slow, name
        return
    assert _next_hop_rows(topology, routing) == _materialise(topology, routing)
    _assert_trees_match_walk(topology, routing)


def _never_walk(self, topology, source, target):
    raise AssertionError("the route walk ran")


class TestNextHopTreesMatchRouteWalk:
    @SETTINGS
    @given(topology=fabrics, seed=st.integers(min_value=0, max_value=2**31))
    def test_synthesized_tables(self, topology, seed):
        for table in _tables(topology, seed):
            _assert_trees_match_walk(topology, SynthesizedRouting(table))

    @SETTINGS
    @given(topology=fabrics)
    def test_bfs_tables(self, topology):
        _assert_trees_match_walk(topology, TableRouting())

    @SETTINGS
    @given(topology=fabrics)
    def test_grid_routings(self, topology):
        for routing in GRID_ROUTINGS:
            _assert_grid_matches_walk(topology, routing)

    def test_cyclic_tables_share_the_witness(self):
        mesh = Mesh(4, 4)
        synthesizer = TableSynthesizer(mesh)
        cyclic = 0
        for seed in range(16):
            routing = SynthesizedRouting(synthesizer.random_table(rng=seed))
            report = validate_deadlock_free(mesh, routing, raise_on_cycle=False)
            assert report == validate_deadlock_free(
                mesh, RouteWalk(routing), raise_on_cycle=False
            )
            cyclic += not report.deadlock_free
        assert cyclic > 0, "no cyclic table among 16 random 4x4 tables"

    def test_valid_tables_never_walk_routes(self):
        mesh = Mesh(4, 4)

        class Unwalkable(SynthesizedRouting):
            route = _never_walk

        synthesizer = TableSynthesizer(mesh)
        routings = [Unwalkable(synthesizer.random_table(rng=3))]
        for grid in map(type, GRID_ROUTINGS):
            name = f"Unwalkable{grid.__name__}"
            routings.append(type(name, (grid,), {"route": _never_walk})())
        for routing in routings:
            channel_dependency_graph(mesh, routing)
            table = RouteTable(mesh, routing, TECH_0_07UM, precompute=True)
            _route_table_state(table)
            synthesizer.materialise(routing)

    def test_lazy_tables_match_tree_built_tables(self):
        mesh = Mesh(3, 3)
        routing = SynthesizedRouting(TableSynthesizer(mesh).random_table(rng=5))
        lazy = RouteTable(mesh, routing, TECH_0_07UM, precompute=False)
        eager = RouteTable(mesh, routing, TECH_0_07UM, precompute=True)
        assert not lazy.is_precomputed
        for source in mesh.tiles():
            for target in mesh.tiles():
                assert lazy.path(source, target) == eager.path(source, target)
                assert lazy.link_ids(source, target) == eager.link_ids(source, target)


def _corrupt(table, rng, corruptions):
    """*table* with some entries turned into dead ends, loops or foreign hops."""
    rows = [list(row) for row in table]
    n = len(rows)
    for kind in corruptions:
        target = int(rng.integers(n))
        tile = int(rng.integers(n))  # the diagonal too: routes never read it
        if kind == "dead-end":
            rows[target][tile] = -1
        elif kind == "negative":
            rows[target][tile] = -int(rng.integers(2, 2 * n + 2))
        elif kind == "loop":
            hop = rows[target][tile]
            if 0 <= hop != target:
                rows[target][hop] = tile
        else:  # a hop to any tile, linked or not
            rows[target][tile] = int(rng.integers(n))
    return tuple(tuple(row) for row in rows)


class TestCorruptTablesRaiseAsTheRouteWalk:
    BUILDS = {
        "cdg": channel_dependency_graph,
        "report": lambda topology, routing: validate_deadlock_free(
            topology, routing, raise_on_cycle=False
        ),
        "route table": lambda topology, routing: _route_table_state(
            RouteTable(topology, routing, TECH_0_07UM, precompute=True)
        ),
    }

    def _assert_same_outcome(self, topology, routing):
        for name, build in self.BUILDS.items():
            fast = _outcome(lambda: build(topology, routing))
            slow = _outcome(lambda: build(topology, RouteWalk(routing)))
            assert fast == slow, name

    @SETTINGS
    @given(
        topology=fabrics,
        seed=st.integers(min_value=0, max_value=2**31),
        corruptions=st.lists(
            st.sampled_from(["dead-end", "negative", "loop", "foreign"]),
            min_size=1,
            max_size=4,
        ),
    )
    def test_corrupted_tables(self, topology, seed, corruptions):
        rng = np.random.default_rng(seed)
        for table in _tables(topology, seed):
            routing = SynthesizedRouting(_corrupt(table, rng, corruptions))
            self._assert_same_outcome(topology, routing)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("dead-end", "no route from tile 1 to tile 0"),
            ("negative", "no route from tile 1 to tile 0"),
            ("loop", "routing loop from tile 1 to tile 0"),
        ],
    )
    def test_each_corruption_raises(self, kind, message):
        mesh = Mesh(3, 3)
        rows = [list(row) for row in _materialise(mesh, XYRouting())]
        if kind == "loop":  # 1 -> 2 -> 1 -> ... towards target 0
            rows[0][1] = 2
        else:
            rows[0][1] = -1 if kind == "dead-end" else -7
        routing = SynthesizedRouting(rows)
        for build in self.BUILDS.values():
            with pytest.raises(ConfigurationError, match=message):
                build(mesh, routing)
        self._assert_same_outcome(mesh, routing)

    def test_row_count_mismatch(self):
        routing = SynthesizedRouting(_materialise(Mesh(3, 3), XYRouting()))
        mesh = Mesh(4, 4)
        with pytest.raises(ConfigurationError, match="covers 9 tiles"):
            routing.next_hop_table(mesh)
        for build in self.BUILDS.values():
            with pytest.raises(ConfigurationError, match="covers 9 tiles"):
                build(mesh, routing)
        self._assert_same_outcome(mesh, routing)

    def test_unreachable_bfs_targets(self):
        one_way = UnvalidatedTopology([(0, 1), (1, 2), (2, 1)], bidirectional=False)
        routing = TableRouting()
        assert routing.next_hop_table(one_way)[0] == [-1, -1, -1]
        with pytest.raises(ConfigurationError, match="no route from tile 1 to tile 0"):
            channel_dependency_graph(one_way, routing)
        self._assert_same_outcome(one_way, routing)

    def test_table_that_disagrees_with_its_routes(self):
        class Inconsistent(XYRouting):
            def next_hop_table(self, topology):
                return [[-1] * topology.num_tiles for _ in topology.tiles()]

        with pytest.raises(ConfigurationError, match="next-hop table does not"):
            channel_dependency_graph(Mesh(2, 2), Inconsistent())


@pytest.mark.slow
@pytest.mark.parametrize("routing", GRID_ROUTINGS, ids=lambda routing: routing.name)
def test_grid_routings_on_every_small_grid(routing):
    """Every mesh up to 8x8 and torus from 3x3 to 6x6 against the route walk."""
    grids = [Mesh(w, h) for w in range(1, 9) for h in range(1, 9)]
    grids += [Torus(w, h) for w in range(3, 7) for h in range(3, 7)]
    for topology in grids:
        _assert_grid_matches_walk(topology, routing)
