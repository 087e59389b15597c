"""The CDCM replay against the two heap loops it replaced.

``CdcmScheduler.schedule`` and ``CdcmScheduler.schedule_subset`` run one
heap loop and one grant routine.  ``tests/reference_scheduler.py`` keeps,
verbatim, the two parallel replays they replaced: the full replay
(``schedule`` with ``_schedule_packet``) and the bounded partial replay
(``schedule_subset`` with ``_schedule_packet_bounded``).  The contract is
**identity**, on random acyclic CDCGs over mesh, torus and irregular
(table-routed) fabrics, with local links serialised or not:

* a full replay returns equal packet schedules, equal occupation records
  (resource order and list order included) and an equal execution time;
* a partial replay of a random subset, given the ready floors and the frozen
  background the repair engine would build from a full replay of a second
  mapping, returns equal schedules and equal footprints, order included.

The CDCGs declare their packets in a random order, so the heap's tie-break
order differs from the dependence order, and draw computation times from a
few values, so injection ties and contention are common.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_scheduler import ReferenceScheduler
from repro.graphs.cdcg import CDCG
from repro.noc.platform import NocParameters, Platform
from repro.noc.scheduler import CdcmScheduler, FrozenOccupations, contention_index
from repro.noc.topology import IrregularTopology, Mesh, Torus

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A 4-ring with a 4-tile spur, routed by table (no dimension order exists).
IRREGULAR_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6), (6, 7), (7, 5),
]


@st.composite
def platforms(draw):
    """A mesh, torus or irregular platform with drawn wormhole parameters."""
    parameters = NocParameters(
        routing_cycles=draw(st.integers(min_value=0, max_value=3)),
        link_cycles=draw(st.integers(min_value=1, max_value=2)),
        clock_period=draw(st.sampled_from((0.5, 1.0, 2.5))),
        flit_width=draw(st.sampled_from((8, 16, 32))),
        serialize_local_links=draw(st.booleans()),
    )
    fabric = draw(st.sampled_from(("mesh", "torus", "irregular")))
    if fabric == "irregular":
        topology = IrregularTopology(IRREGULAR_EDGES, name="oracle-fabric8")
        return Platform(mesh=topology, routing="table", parameters=parameters)
    width = draw(st.integers(min_value=2, max_value=4))
    height = draw(st.integers(min_value=2, max_value=4))
    topology = (Mesh if fabric == "mesh" else Torus)(width, height)
    return Platform(mesh=topology, parameters=parameters)


@st.composite
def cdcgs(draw, num_tiles: int):
    """A random acyclic CDCG whose declaration order is not its dependence order."""
    num_cores = draw(st.integers(min_value=2, max_value=min(num_tiles, 8)))
    cores = [f"c{i}" for i in range(num_cores)]
    num_packets = draw(st.integers(min_value=1, max_value=24))
    declared = draw(st.permutations(range(num_packets)))
    packets = []
    for index in range(num_packets):
        source = draw(st.sampled_from(cores))
        target = draw(st.sampled_from([c for c in cores if c != source]))
        computation = draw(st.sampled_from((0.0, 1.0, 2.5, 7.0)))
        bits = draw(st.integers(min_value=1, max_value=256))
        # Dependences point from lower to higher index only: acyclic.
        predecessors = set()
        if index:
            predecessors = draw(st.sets(st.integers(0, index - 1), max_size=3))
        packets.append((f"p{index}", source, target, computation, bits, predecessors))
    cdcg = CDCG("oracle")
    for core in cores:
        cdcg.add_core(core)
    for index in declared:
        name, source, target, computation, bits, _ = packets[index]
        cdcg.add_packet(name, source, target, computation, bits)
    for name, _, _, _, _, predecessors in packets:
        for predecessor in sorted(predecessors):
            cdcg.add_dependence(f"p{predecessor}", name)
    return cdcg


@st.composite
def placements(draw, cdcg: CDCG, num_tiles: int):
    """A ``core -> tile`` dict placing every core on its own tile."""
    tiles = draw(st.permutations(range(num_tiles)))
    return {core: tiles[index] for index, core in enumerate(cdcg.cores())}


@st.composite
def cases(draw):
    platform = draw(platforms())
    cdcg = draw(cdcgs(platform.num_tiles))
    base = draw(placements(cdcg, platform.num_tiles))
    candidate = draw(placements(cdcg, platform.num_tiles))
    names = [p.name for p in cdcg.packets]
    subset = draw(st.lists(st.sampled_from(names), unique=True))
    return platform, cdcg, base, candidate, subset


def _repair_inputs(cdcg, base_result, subset, serialize_local):
    """Ready floors and frozen background, built the way the repair engine does."""
    replay = set(subset)
    floors = {}
    for name in replay:
        floor = 0.0
        for predecessor in cdcg.predecessors(name):
            if predecessor not in replay:
                delivery = base_result.packet_schedules[predecessor].delivery_time
                floor = max(floor, delivery)
        if floor > 0.0:
            floors[name] = floor
    frozen = {}
    for resource, occupations in contention_index(base_result, serialize_local).items():
        kept = [o for o in occupations if o.packet not in replay]
        if kept:
            frozen[resource] = kept
    return floors, frozen


@SETTINGS
@given(cases())
def test_full_replay_is_identical_to_the_original(case):
    platform, cdcg, mapping, _, _ = case
    new = CdcmScheduler(platform).schedule(cdcg, mapping)
    old = ReferenceScheduler(platform).schedule(cdcg, mapping)
    assert list(new.packet_schedules.items()) == list(old.packet_schedules.items())
    assert list(new.occupations.items()) == list(old.occupations.items())
    assert new.execution_time == old.execution_time
    assert new.application == old.application


@SETTINGS
@given(cases())
def test_partial_replay_is_identical_to_the_original(case):
    platform, cdcg, base, candidate, subset = case
    serialize_local = platform.parameters.serialize_local_links
    base_result = ReferenceScheduler(platform).schedule(cdcg, base)
    floors, frozen = _repair_inputs(cdcg, base_result, subset, serialize_local)
    new = CdcmScheduler(platform).schedule_subset(
        cdcg, candidate, subset, floors, FrozenOccupations(frozen)
    )
    old = ReferenceScheduler(platform).schedule_subset(
        cdcg, candidate, subset, floors, FrozenOccupations(frozen)
    )
    assert list(new.schedules.items()) == list(old.schedules.items())
    assert list(new.footprints.items()) == list(old.footprints.items())
