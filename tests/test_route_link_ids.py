"""Route link ids memoised on the route table, shared by every replay.

:meth:`~repro.eval.route_table.RouteTable.link_ids` walks a route the first
time a pair is asked for and keeps its link ids on the table, so a second
evaluator (or scheduler, or context) bound to the same table replays
without walking a route.  The lean replay reads only those ids, never a
path; the recorded replay still reports paths of Python ints, and a
context shipping its custom table in a pickle prices as before.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.codesign import SynthesizedRouting, TableSynthesizer
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.eval.route_table import RouteTable, is_shared_route_table
from repro.graphs.cdcg import CDCG
from repro.noc.platform import NocParameters, Platform
from repro.noc.routing import RoutingAlgorithm, XYRouting
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import Mesh
from repro.utils.errors import ConfigurationError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

MESH = Mesh(4, 4)


class RouteOnly(RoutingAlgorithm):
    """XY through ``route()`` alone: tables over it have no next-hop rows."""

    name = "route-only-xy"

    def __init__(self) -> None:
        self.calls = 0

    def route(self, topology, source, target):
        self.calls += 1
        return XYRouting().route(topology, source, target)


def _synthesized() -> SynthesizedRouting:
    return SynthesizedRouting(TableSynthesizer(MESH).random_table(rng=4))


#: Routings by the way a table walks them: next-hop rows, or ``route()``.
ROUTINGS = {
    "xy": XYRouting,
    "synthesized": _synthesized,
    "route-only": RouteOnly,
}


def _cdcg():
    spec = TgffSpec(name="shared", num_cores=12, num_packets=60, total_bits=60 * 2_048)
    return TgffLikeGenerator(5).generate(spec)


def _mappings(cdcg, count=4):
    return [
        Mapping.random(cdcg.cores(), MESH.num_tiles, rng=seed) for seed in range(count)
    ]


@pytest.fixture
def walks(monkeypatch):
    """Routes walked for ``link_ids`` misses, per table."""
    counts: Counter = Counter()
    original = RouteTable._route_ids

    def counting(self, source, target):
        counts[id(self)] += 1
        return original(self, source, target)

    monkeypatch.setattr(RouteTable, "_route_ids", counting)
    return counts


@pytest.mark.parametrize("name", sorted(ROUTINGS))
def test_a_second_evaluator_walks_no_route(walks, name):
    cdcg = _cdcg()
    platform = Platform(mesh=MESH, routing=ROUTINGS[name]())
    table = RouteTable.for_platform(platform)
    first = CdcmEvaluator(platform, route_table=table)
    second = CdcmEvaluator(platform, route_table=table)
    mappings = _mappings(cdcg)
    priced = [first.metrics(cdcg, mapping) for mapping in mappings]
    walked = walks[id(table)]
    assert walked == len(table.link_id_memo) > 0
    assert [second.metrics(cdcg, mapping) for mapping in mappings] == priced
    for mapping in mappings:
        second.evaluate(cdcg, mapping)
    assert walks[id(table)] == walked


def test_a_lazy_table_routes_each_pair_once():
    cdcg = _cdcg()
    routing = RouteOnly()
    platform = Platform(mesh=MESH, routing=routing)
    table = RouteTable.for_platform(platform, precompute=False)
    mapping = _mappings(cdcg, count=1)[0]
    priced = CdcmEvaluator(platform, route_table=table).metrics(cdcg, mapping)
    routed = routing.calls
    assert routed == len(table.link_id_memo) > 0
    assert CdcmEvaluator(platform, route_table=table).metrics(cdcg, mapping) == priced
    assert routing.calls == routed


@pytest.mark.parametrize("serialize_local", [False, True])
@pytest.mark.parametrize("name", sorted(ROUTINGS))
def test_totals_read_no_path(monkeypatch, name, serialize_local):
    cdcg = _cdcg()
    platform = Platform(
        mesh=MESH,
        routing=ROUTINGS[name](),
        parameters=NocParameters(serialize_local_links=serialize_local),
    )
    mappings = _mappings(cdcg)
    reference = CdcmEvaluator(platform, route_table=RouteTable.for_platform(platform))
    expected = [reference.evaluate(cdcg, m).metric_vector() for m in mappings]
    evaluator = CdcmEvaluator(platform, route_table=RouteTable.for_platform(platform))

    def refuse(self, source, target):
        raise AssertionError("the lean replay read a path")

    monkeypatch.setattr(RouteTable, "path", refuse)
    assert [evaluator.metrics(cdcg, m) for m in mappings] == expected


@pytest.mark.parametrize("name", sorted(ROUTINGS))
def test_schedule_reports_paths_of_python_ints(name):
    cdcg = _cdcg()
    platform = Platform(mesh=MESH, routing=ROUTINGS[name]())
    table = RouteTable.for_platform(platform)
    scheduler = CdcmScheduler(platform, route_table=table)
    indptr, indices = table.link_csr()
    n = table.num_tiles
    for mapping in _mappings(cdcg, count=2):
        for packet in scheduler.schedule(cdcg, mapping).packet_schedules.values():
            source, target = packet.source_tile, packet.target_tile
            assert packet.path == table.path(source, target)
            assert all(type(tile) is int for tile in packet.path)
            ids = table.link_ids(source, target)
            assert all(type(link) is int for link in ids)
            row = source * n + target
            assert list(ids) == indices[indptr[row] : indptr[row + 1]].tolist()


def test_a_context_over_a_custom_table_prices_alike_after_pickling():
    cdcg = _cdcg()
    platform = Platform(mesh=MESH, routing=_synthesized())
    custom = RouteTable.for_platform(platform)
    context = CdcmEvaluationContext(cdcg, platform, route_table=custom)
    assert not is_shared_route_table(custom, platform)
    mappings = _mappings(cdcg)
    priced = [context.metrics(mapping) for mapping in mappings]
    restored = pickle.loads(pickle.dumps(context))
    table = restored.evaluator.route_table
    assert table is not custom
    assert table.link_id_memo == custom.link_id_memo
    assert [restored.metrics(mapping) for mapping in mappings] == priced
    untouched = RouteTable.for_platform(platform)
    context = CdcmEvaluationContext(cdcg, platform, route_table=untouched)
    fresh = pickle.loads(pickle.dumps(context))
    assert fresh.evaluator.route_table.link_id_memo == {}
    assert [fresh.metrics(mapping) for mapping in mappings] == priced


class _Leap(RoutingAlgorithm):
    """Routes every pair over one hop to a tile past the table."""

    name = "leap"

    def route(self, topology, source, target):
        return [source] if source == target else [source, target + topology.num_tiles]


def test_a_tile_past_the_table_is_no_link():
    # On 3x3, link (0, 11) would key 0 * 9 + 11, the key of link (1, 2).
    platform = Platform(mesh=Mesh(3, 3), routing=_Leap())
    table = RouteTable.for_platform(platform)
    cdcg = CDCG("leap")
    cdcg.add_packet("p", "a", "b", computation_time=1.0, bits=64)
    with pytest.raises(ConfigurationError, match=r"routes over link \(0, 11\), which"):
        table.link_ids(0, 2)
    assert table.link_id_memo == {}
    with pytest.raises(ConfigurationError, match=r"routes over link \(0, 11\), which"):
        CdcmEvaluator(platform, route_table=table).metrics(cdcg, {"a": 0, "b": 2})


@pytest.mark.parametrize("precompute", [True, False], ids=["eager", "lazy"])
def test_link_csr_refuses_a_tile_past_the_table(precompute):
    # link_csr keyed (0, 11) as link (1, 2), id 3, where link_ids raises.
    platform = Platform(mesh=Mesh(3, 3), routing=_Leap())
    table = RouteTable.for_platform(platform, precompute=precompute)
    with pytest.raises(ConfigurationError, match=r"routes over link \(0, 11\), which"):
        table.link_csr(np.array([2]))
    assert table.link_csr(np.array([0, 10]))[0].tolist() == [0, 0, 0]  # no links
    if precompute:  # the all-pairs build meets pair (0, 1) first
        with pytest.raises(ConfigurationError, match=r"routes over link \(0, 10\), which"):
            table.link_csr()


def test_a_row_jump_between_distant_tiles_is_no_link():
    # Towards tile 8 of 3x3, tile 0 jumps straight to 8: the walk arrives,
    # over (0, 8), which is no mesh link.
    mesh = Mesh(3, 3)
    rows = [list(row) for row in XYRouting().next_hop_table(mesh)]
    rows[8][0] = 8
    platform = Platform(mesh=mesh, routing=SynthesizedRouting(rows))
    table = RouteTable.for_platform(platform)
    cdcg = CDCG("jump")
    cdcg.add_packet("p", "a", "b", computation_time=1.0, bits=64)
    with pytest.raises(ConfigurationError, match=r"routes over link \(0, 8\), which"):
        table.link_ids(0, 8)
    with pytest.raises(ConfigurationError, match=r"routes over link \(0, 8\), which"):
        CdcmEvaluator(platform, route_table=table).metrics(cdcg, {"a": 0, "b": 8})
    assert table.link_id_memo == {}
