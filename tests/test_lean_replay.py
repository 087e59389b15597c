"""The lean CDCM replay: what it builds, and which CDCG it reads.

``CdcmEvaluator.metrics`` prices a mapping through ``CdcmScheduler.totals``,
the replay loop run without a recorder: it must build none of the Figure-3
records (``PacketSchedule``, ``Occupation``, resource keys) that
``schedule`` builds.  ``schedule`` itself builds the packet schedules and
leaves the ``Occupation`` lists of Figure 3 to the first read of
``ScheduleResult.occupations``; such a result equals, copies and pickles
like one built with its lists, and keeps no scheduler alive.  Schedulers
share per-CDCG index arrays between calls, per CDCG revision and
:class:`NocParameters`; a CDCG that gains a packet, a dependence or a core
between two calls must be read afresh by every entry point of every
scheduler, exactly as a fresh scheduler reads it, and the share must keep
no CDCG alive.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref
from collections import Counter

import pytest

from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.graphs.cdcg import CDCG
from repro.noc import resources, scheduler
from repro.noc.platform import NocParameters, Platform
from repro.noc.routing import RoutingAlgorithm
from repro.noc.scheduler import CdcmScheduler, ScheduleResult
from repro.noc.topology import Mesh
from repro.utils.errors import ConfigurationError, MappingError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

RECORD_TYPES = (
    scheduler.PacketSchedule,
    resources.Occupation,
    resources.RouterResource,
    resources.LinkResource,
    resources.LocalLinkResource,
)


@pytest.fixture
def constructed(monkeypatch):
    """Instances of each record type built while the fixture is active."""
    counts: Counter = Counter()
    for cls in RECORD_TYPES:
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("serialize_local", [False, True])
def test_metrics_build_no_records(constructed, serialize_local):
    spec = TgffSpec(name="lean", num_cores=12, num_packets=60, total_bits=60 * 2_048)
    cdcg = TgffLikeGenerator(5).generate(spec)
    platform = Platform(
        mesh=Mesh(4, 4),
        parameters=NocParameters(serialize_local_links=serialize_local),
    )
    evaluator = CdcmEvaluator(platform)
    mappings = [
        Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed) for seed in range(5)
    ]
    constructed.clear()
    for mapping in mappings:
        evaluator.metrics(cdcg, mapping)
        evaluator.cost(cdcg, mapping)
    assert constructed == Counter()

    report = evaluator.evaluate(cdcg, mappings[0])
    assert constructed["PacketSchedule"] == cdcg.num_packets
    assert constructed["Occupation"] == 0
    assert report.metric_vector() == evaluator.metrics(cdcg, mappings[0])
    assert constructed["Occupation"] > 0


def _lean_case(serialize_local: bool = False):
    """A 60-packet TGFF application on 4x4 and one random mapping of it."""
    spec = TgffSpec(name="lazy", num_cores=12, num_packets=60, total_bits=60 * 2_048)
    cdcg = TgffLikeGenerator(5).generate(spec)
    platform = Platform(
        mesh=Mesh(4, 4),
        parameters=NocParameters(serialize_local_links=serialize_local),
    )
    return cdcg, platform, Mapping.random(cdcg.cores(), platform.num_tiles, rng=3)


@pytest.mark.parametrize("serialize_local", [False, True])
def test_evaluate_builds_the_lists_on_first_read(constructed, serialize_local):
    cdcg, platform, mapping = _lean_case(serialize_local)
    evaluator = CdcmEvaluator(platform)
    constructed.clear()
    report = evaluator.evaluate(cdcg, mapping)
    assert constructed["PacketSchedule"] == cdcg.num_packets
    assert constructed["Occupation"] == 0

    lists = report.schedule.occupations
    built = constructed["Occupation"]
    # Per packet: its source local link, then a router and an output per hop.
    hops = sum(s.hop_count for s in report.schedule.packet_schedules.values())
    assert built == sum(map(len, lists.values())) == cdcg.num_packets + 2 * hops
    assert report.schedule.occupations is lists
    report.metric_vector()  # reads the lists again
    assert constructed["Occupation"] == built
    assert constructed["PacketSchedule"] == cdcg.num_packets


def test_a_deferred_result_equals_one_built_from_its_values():
    cdcg, platform, mapping = _lean_case()
    scheduler = CdcmScheduler(platform)
    read = scheduler.schedule(cdcg, mapping)
    values = ScheduleResult(
        read.application, read.execution_time, read.packet_schedules, read.occupations
    )
    assert values.occupations is read.occupations  # explicit lists are kept
    unread = scheduler.schedule(cdcg, mapping)
    assert unread == values
    assert values == scheduler.schedule(cdcg, mapping)
    assert repr(scheduler.schedule(cdcg, mapping)) == repr(values)
    assert ScheduleResult("empty", 0.0, {}).occupations == {}


def _pickled(report):
    return pickle.loads(pickle.dumps(report))


@pytest.mark.parametrize("duplicate", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_copies_of_a_report_round_trip(constructed, duplicate, read_first):
    cdcg, platform, mapping = _lean_case()
    report = CdcmEvaluator(platform).evaluate(cdcg, mapping)
    if read_first:
        report.schedule.occupations
    constructed.clear()
    twin = duplicate(report)
    assert constructed["Occupation"] == 0  # copying builds nothing
    assert twin == report  # reads, and so builds, unread lists on both sides
    assert twin.schedule.occupations == report.schedule.occupations
    assert twin.metric_vector() == report.metric_vector()
    if read_first:
        assert constructed["Occupation"] == 0
    else:
        assert constructed["Occupation"] == 2 * sum(
            map(len, report.schedule.occupations.values())
        )


def test_a_report_keeps_no_scheduler_alive():
    cdcg, platform, mapping = _lean_case()
    evaluator = CdcmEvaluator(platform)
    report = evaluator.evaluate(cdcg, mapping)
    scheduler = weakref.ref(evaluator._scheduler)
    del evaluator
    gc.collect()
    assert scheduler() is None
    expected = CdcmScheduler(platform).schedule(cdcg, mapping).occupations
    assert report.schedule.occupations == expected
    assert report.metric_vector() == CdcmEvaluator(platform).metrics(cdcg, mapping)


def _chain() -> CDCG:
    cdcg = CDCG("growing")
    cdcg.add_packet("p0", "a", "b", computation_time=2.0, bits=64)
    cdcg.add_packet("p1", "b", "c", computation_time=1.0, bits=32)
    cdcg.add_packet("p2", "a", "c", computation_time=0.0, bits=96)
    cdcg.add_dependence("p0", "p1")
    return cdcg


#: Ways a CDCG grows; each leaves a graph the placement still covers.
GROWTH = {
    "packet": lambda cdcg: cdcg.add_packet("p3", "c", "a", computation_time=3.0, bits=48),
    "dependence": lambda cdcg: cdcg.add_dependence("p1", "p2"),
    "packet+dependence": lambda cdcg: (
        cdcg.add_packet("p3", "c", "a", computation_time=3.0, bits=48),
        cdcg.add_dependence("p2", "p3"),
    ),
}

PLACEMENT = {"a": 0, "b": 3, "c": 5}


def _platform() -> Platform:
    return Platform(mesh=Mesh(3, 3))


def _grown(growth) -> CDCG:
    """A chain built already grown: no scheduler has seen it before."""
    cdcg = _chain()
    GROWTH[growth](cdcg)
    return cdcg


#: Each growth, replayed by the scheduler that replayed the CDCG before it
#: grew (id: the growth) or by a second one, which finds the arrays the
#: first one left (id: the growth and ``-second``).
GROWN_BY = [
    pytest.param(growth, second, id=f"{growth}-second" if second else growth)
    for growth in sorted(GROWTH)
    for second in (False, True)
]


@pytest.mark.parametrize("growth, second", GROWN_BY)
def test_schedule_reads_a_grown_cdcg(growth, second):
    cdcg = _chain()
    kept = CdcmScheduler(_platform())
    kept.schedule(cdcg, PLACEMENT)
    if second:
        kept = CdcmScheduler(_platform())
    GROWTH[growth](cdcg)
    grown = kept.schedule(cdcg, PLACEMENT)
    fresh = CdcmScheduler(_platform()).schedule(_grown(growth), PLACEMENT)
    assert grown.packet_schedules == fresh.packet_schedules
    assert grown.occupations == fresh.occupations


@pytest.mark.parametrize("growth, second", GROWN_BY)
def test_schedule_subset_reads_a_grown_cdcg(growth, second):
    cdcg = _chain()
    kept = CdcmScheduler(_platform())
    kept.schedule_subset(cdcg, PLACEMENT, [p.name for p in cdcg.packets])
    if second:
        kept = CdcmScheduler(_platform())
    GROWTH[growth](cdcg)
    names = [p.name for p in cdcg.packets]
    grown = kept.schedule_subset(cdcg, PLACEMENT, names)
    fresh = CdcmScheduler(_platform()).schedule_subset(_grown(growth), PLACEMENT, names)
    assert grown.schedules == fresh.schedules
    assert grown.footprints == fresh.footprints


@pytest.mark.parametrize("growth, second", GROWN_BY)
def test_metrics_read_a_grown_cdcg(growth, second):
    cdcg = _chain()
    kept = CdcmEvaluator(_platform())
    before = kept.metrics(cdcg, PLACEMENT)
    if second:
        kept = CdcmEvaluator(_platform())
    GROWTH[growth](cdcg)
    grown = kept.metrics(cdcg, PLACEMENT)
    assert grown == CdcmEvaluator(_platform()).metrics(_grown(growth), PLACEMENT)
    assert grown != before


def test_schedulers_share_arrays_only_under_equal_parameters():
    cdcg = _chain()
    narrow = Platform(mesh=Mesh(3, 3), parameters=NocParameters(flit_width=8))
    first, second = CdcmScheduler(_platform()), CdcmScheduler(_platform())
    assert first._arrays(cdcg) is second._arrays(cdcg)
    assert CdcmScheduler(narrow)._arrays(cdcg) is not first._arrays(cdcg)
    # Narrow flits stream longer; each scheduler replays with its own.
    wide = first.schedule(cdcg, PLACEMENT)
    slow = CdcmScheduler(narrow).schedule(cdcg, PLACEMENT)
    assert slow.execution_time > wide.execution_time
    assert slow == CdcmScheduler(narrow).schedule(_chain(), PLACEMENT)
    assert first.schedule(cdcg, PLACEMENT) == wide


def test_shared_arrays_keep_no_cdcg_alive():
    cdcg = _chain()
    scheduler = CdcmScheduler(_platform())
    scheduler.schedule(cdcg, PLACEMENT)
    CdcmEvaluator(_platform()).metrics(cdcg, PLACEMENT)
    dropped = weakref.ref(cdcg)
    del cdcg
    gc.collect()
    assert dropped() is None
    assert scheduler.schedule(_chain(), PLACEMENT).execution_time > 0


def test_metrics_see_an_added_core():
    cdcg = _chain()
    evaluator = CdcmEvaluator(_platform())
    evaluator.metrics(cdcg, PLACEMENT)
    cdcg.add_core("idle")
    with pytest.raises(MappingError, match="'idle'"):
        evaluator.metrics(cdcg, PLACEMENT)
    placed = {**PLACEMENT, "idle": 8}
    assert evaluator.metrics(cdcg, placed) == CdcmEvaluator(_platform()).metrics(
        cdcg, placed
    )


class _Teleport(RoutingAlgorithm):
    """Routes every pair over one direct hop, link or not."""

    name = "teleport"

    def route(self, topology, source, target):
        return [source] if source == target else [source, target]


def test_route_over_an_unlisted_link_raises():
    platform = Platform(mesh=Mesh(3, 3), routing=_Teleport())
    with pytest.raises(ConfigurationError, match="routes over link"):
        CdcmEvaluator(platform).metrics(_chain(), {"a": 0, "b": 4, "c": 8})
