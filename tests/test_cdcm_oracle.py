"""The CDCM replay against an oracle written from the paper.

``tests/reference_cdcm.py`` replays a CDCG from Section 4 and equations 6
to 8 with no heap and no code shared with :mod:`repro.noc.scheduler` or
:mod:`repro.energy`.  The oracle is first pinned to the paper's worked
example (the Figure 3 intervals, 100 ns / 90 ns and 400 pJ / 399 pJ), then
hypothesis compares it with the library on random acyclic CDCGs over mesh,
torus and irregular (table-routed) fabrics, with local links serialised or
not:

* ``CdcmEvaluator.metrics``, which records nothing, equals the oracle's
  metric vector exactly;
* ``CdcmScheduler.schedule`` equals the oracle's grants and cost-variable
  lists, resource order and list order included;
* a full-cover ``schedule_subset`` equals the oracle's grants and, per
  packet, its contention resources in route order.

The two schedule comparisons draw times that are exact in binary floating
point, so the oracle's closed-form contention delay (equation 8) must match
the scheduler's summed waits exactly.  The metric comparison also draws
inexact ones, where only the same operations in the same order agree: each
link's busy time summed per grant as ``(start + stream) - start``, and the
dynamic energy summed per packet in grant order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_cdcm import replay, resource_key
from repro.core.cdcm import CdcmEvaluator
from repro.graphs.cdcg import CDCG
from repro.noc.platform import NocParameters, Platform
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.workloads.paper_example import (
    TAU1,
    TAU2,
    TAU3,
    TAU4,
    paper_example_cdcg,
    paper_example_mappings,
    paper_example_platform,
)

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A 4-ring with a 4-tile spur, routed by table (no dimension order exists).
IRREGULAR_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6), (6, 7), (7, 5),
]


def _interval(result, key, packet):
    for name, _, start, end, _ in result.records[key]:
        if name == packet:
            return (start, end)
    raise AssertionError(f"{packet} not found on {key}")


class TestOracleOnThePaperExample:
    @pytest.fixture(scope="class")
    def example(self):
        cdcg = paper_example_cdcg()
        platform = paper_example_platform()
        mappings = paper_example_mappings()
        return cdcg, platform, {
            name: replay(cdcg, platform, mapping.assignments())
            for name, mapping in mappings.items()
        }

    def test_figure_3_intervals(self, example):
        _, _, result = example
        c = result["c"]
        assert _interval(c, ("router", TAU2), "EA1") == (14.0, 35.0)
        assert _interval(c, ("router", TAU1), "AF1") == (46.0, 69.0)
        assert _interval(c, ("router", TAU4), "EA2") == (57.0, 73.0)
        assert _interval(c, ("link", TAU4, TAU2), "EA1") == (13.0, 33.0)
        assert _interval(c, ("link", TAU1, TAU3), "BF1") == (13.0, 53.0)
        assert _interval(c, ("link", TAU1, TAU3), "AF1") == (55.0, 70.0)
        assert _interval(c, ("local", TAU1), "FB1") == (85.0, 100.0)
        assert _interval(c, ("local", TAU3), "AF1") == (58.0, 73.0)

    def test_only_af1_waits(self, example):
        _, _, result = example
        waits = {grant.name: grant.contention for grant in result["c"].grants}
        assert waits == {"AB1": 0.0, "BF1": 0.0, "EA1": 0.0, "EA2": 0.0,
                         "AF1": 7.0, "FB1": 0.0}
        assert all(grant.contention == 0.0 for grant in result["d"].grants)

    def test_worked_example_totals(self, example):
        _, platform, result = example
        assert result["c"].execution_time == 100.0
        assert result["d"].execution_time == 90.0
        energy_c, _, dynamic_c, static_c, _ = result["c"].metric_values(platform)
        energy_d, _, dynamic_d, static_d, _ = result["d"].metric_values(platform)
        assert (energy_c, dynamic_c, static_c) == pytest.approx((400.0, 390.0, 10.0))
        assert (energy_d, dynamic_d, static_d) == pytest.approx((399.0, 390.0, 9.0))


#: Clock periods and computation times, exact in binary or not.
CLOCKS = {True: (0.5, 1.0, 2.5), False: (0.3, 0.7, 1.1)}
COMPUTATIONS = {True: (0.0, 1.0, 2.5, 7.0), False: (0.0, 0.1, 1.3, 2.7)}


@st.composite
def platforms(draw, exact):
    """A mesh, torus or irregular platform with drawn wormhole parameters."""
    parameters = NocParameters(
        routing_cycles=draw(st.integers(min_value=0, max_value=3)),
        link_cycles=draw(st.integers(min_value=1, max_value=2)),
        clock_period=draw(st.sampled_from(CLOCKS[exact])),
        flit_width=draw(st.sampled_from((8, 16, 32))),
        serialize_local_links=draw(st.booleans()),
    )
    fabric = draw(st.sampled_from(("mesh", "torus", "irregular")))
    if fabric == "irregular":
        topology = IrregularTopology(IRREGULAR_EDGES, name="cdcm-oracle-fabric8")
        return Platform(mesh=topology, routing="table", parameters=parameters)
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    topology = (Mesh if fabric == "mesh" else Torus)(width, height)
    return Platform(mesh=topology, parameters=parameters)


@st.composite
def cases(draw, exact=True):
    """A platform, an acyclic CDCG declared out of dependence order, a placement."""
    platform = draw(platforms(exact))
    num_cores = draw(st.integers(min_value=2, max_value=min(platform.num_tiles, 8)))
    cores = [f"c{i}" for i in range(num_cores)]
    num_packets = draw(st.integers(min_value=1, max_value=24))
    declared = draw(st.permutations(range(num_packets)))
    cdcg = CDCG("cdcm-oracle")
    packets = {}
    for index in range(num_packets):
        source = draw(st.sampled_from(cores))
        target = draw(st.sampled_from([c for c in cores if c != source]))
        computation = draw(st.sampled_from(COMPUTATIONS[exact]))
        bits = draw(st.integers(min_value=1, max_value=256))
        predecessors = (
            draw(st.sets(st.integers(0, index - 1), max_size=3)) if index else set()
        )
        packets[index] = (source, target, computation, bits, predecessors)
    for core in cores:
        cdcg.add_core(core)
    for index in declared:
        source, target, computation, bits, _ = packets[index]
        cdcg.add_packet(f"p{index}", source, target, computation, bits)
    for index, (_, _, _, _, predecessors) in packets.items():
        for predecessor in sorted(predecessors):
            cdcg.add_dependence(f"p{predecessor}", f"p{index}")
    tiles = draw(st.permutations(range(platform.num_tiles)))
    placement = {core: tiles[index] for index, core in enumerate(cdcg.cores())}
    return platform, cdcg, placement


def _grant_view(schedules):
    return [
        (
            name,
            s.source_tile,
            s.target_tile,
            s.path,
            s.ready_time,
            s.injection_time,
            s.delivery_time,
            s.contention_delay,
            s.num_flits,
        )
        for name, s in schedules.items()
    ]


def _oracle_grants(expected):
    return [
        (
            g.name,
            g.source_tile,
            g.target_tile,
            g.path,
            g.ready,
            g.injection,
            g.delivery,
            g.contention,
            g.flits,
        )
        for g in expected.grants
    ]


@SETTINGS
@given(st.booleans().flatmap(lambda exact: cases(exact)), st.booleans())
def test_lean_metrics_equal_the_oracle(case, include_local):
    platform, cdcg, placement = case
    expected = replay(cdcg, platform, placement)
    evaluator = CdcmEvaluator(platform, include_local=include_local)
    vector = evaluator.metrics(cdcg, placement)
    assert vector.values == expected.metric_values(platform, include_local)
    assert vector == evaluator.evaluate(cdcg, placement).metric_vector()


@SETTINGS
@given(cases())
def test_schedule_equals_the_oracle(case):
    platform, cdcg, placement = case
    expected = replay(cdcg, platform, placement)
    result = CdcmScheduler(platform).schedule(cdcg, placement)
    assert _grant_view(result.packet_schedules) == _oracle_grants(expected)
    records = [
        (
            resource_key(resource),
            [(o.packet, o.bits, o.start, o.end, o.contended) for o in occupations],
        )
        for resource, occupations in result.occupations.items()
    ]
    assert records == list(expected.records.items())
    assert result.execution_time == expected.execution_time


@SETTINGS
@given(cases())
def test_full_cover_subset_equals_the_oracle(case):
    platform, cdcg, placement = case
    expected = replay(cdcg, platform, placement)
    names = [p.name for p in cdcg.packets]
    result = CdcmScheduler(platform).schedule_subset(cdcg, placement, names)
    assert _grant_view(result.schedules) == _oracle_grants(expected)
    footprints = {
        name: [resource_key(resource) for resource, _ in footprint]
        for name, footprint in result.footprints.items()
    }
    assert footprints == expected.contention_keys
    for name, footprint in result.footprints.items():
        for resource, occupation in footprint:
            entries = expected.records[resource_key(resource)]
            entry = next(e for e in entries if e[0] == name)
            assert (occupation.packet, occupation.bits, occupation.start,
                    occupation.end, occupation.contended) == entry
