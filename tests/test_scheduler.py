"""Contention-aware CDCG scheduler (repro.noc.scheduler)."""

import pytest

from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.graphs.cdcg import CDCG
from repro.noc.platform import NocParameters, Platform
from repro.noc.resources import LinkResource, LocalLinkResource, RouterResource
from repro.noc.scheduler import CdcmScheduler, ScheduleResult
from repro.noc.topology import Mesh
from repro.timing.delays import total_packet_delay
from repro.utils.errors import MappingError, SchedulingError


def _simple_platform(**params) -> Platform:
    return Platform(
        mesh=Mesh(2, 2),
        parameters=NocParameters(
            routing_cycles=2, link_cycles=1, clock_period=1.0, flit_width=1, **params
        ),
    )


class TestSinglePacket:
    def test_delivery_matches_equation8(self):
        cdcg = CDCG("one")
        cdcg.add_packet("p", "a", "b", computation_time=5.0, bits=10)
        platform = _simple_platform()
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(cdcg, mapping)
        schedule = result.schedule("p")
        expected_delay = total_packet_delay(platform.parameters, hop_count=2, num_flits=10)
        assert schedule.injection_time == pytest.approx(5.0)
        assert schedule.delivery_time == pytest.approx(5.0 + expected_delay)
        assert schedule.contention_delay == 0.0
        assert result.execution_time == pytest.approx(schedule.delivery_time)

    def test_longer_route_is_slower(self):
        cdcg = CDCG("one")
        cdcg.add_packet("p", "a", "b", computation_time=0.0, bits=8)
        platform = _simple_platform()
        near = CdcmScheduler(platform).schedule(
            cdcg, Mapping({"a": 0, "b": 1}, num_tiles=4)
        )
        far = CdcmScheduler(platform).schedule(
            cdcg, Mapping({"a": 0, "b": 3}, num_tiles=4)
        )
        assert far.execution_time > near.execution_time

    def test_flit_width_reduces_delay(self):
        cdcg = CDCG("one")
        cdcg.add_packet("p", "a", "b", computation_time=0.0, bits=64)
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        narrow = CdcmScheduler(_simple_platform()).schedule(cdcg, mapping)
        wide_platform = Platform(
            mesh=Mesh(2, 2),
            parameters=NocParameters(routing_cycles=2, link_cycles=1, flit_width=32),
        )
        wide = CdcmScheduler(wide_platform).schedule(cdcg, mapping)
        assert wide.execution_time < narrow.execution_time
        assert wide.schedule("p").num_flits == 2

    def test_zero_computation_time(self):
        cdcg = CDCG("one")
        cdcg.add_packet("p", "a", "b", computation_time=0.0, bits=4)
        result = CdcmScheduler(_simple_platform()).schedule(
            cdcg, Mapping({"a": 0, "b": 1}, num_tiles=4)
        )
        assert result.schedule("p").injection_time == 0.0


class TestDependences:
    def test_chain_is_serialised(self, linear_cdcg):
        platform = Platform(mesh=Mesh(2, 2))
        mapping = Mapping({"a": 0, "b": 1, "c": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(linear_cdcg, mapping)
        p0 = result.schedule("p0")
        p1 = result.schedule("p1")
        p2 = result.schedule("p2")
        assert p1.ready_time == pytest.approx(p0.delivery_time)
        assert p1.injection_time == pytest.approx(p0.delivery_time + 3.0)
        assert p2.ready_time == pytest.approx(p1.delivery_time)
        assert result.execution_time == pytest.approx(p2.delivery_time)

    def test_join_waits_for_slowest_predecessor(self, fork_join_cdcg):
        platform = Platform(mesh=Mesh(2, 2))
        mapping = Mapping({"src": 0, "x": 1, "y": 2, "sink": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(fork_join_cdcg, mapping)
        done = result.schedule("done")
        xout = result.schedule("xout")
        yout = result.schedule("yout")
        assert done.ready_time == pytest.approx(
            max(xout.delivery_time, yout.delivery_time)
        )

    def test_execution_time_at_least_critical_path(self, fork_join_cdcg):
        platform = Platform(mesh=Mesh(2, 2))
        mapping = Mapping({"src": 0, "x": 1, "y": 2, "sink": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(fork_join_cdcg, mapping)
        assert result.execution_time >= fork_join_cdcg.critical_path_time()


class TestContention:
    def _contention_cdcg(self) -> CDCG:
        """Two simultaneous packets that share the link tau0 -> tau2 when the
        sources sit at tiles 1 and 0 and both targets sit at tile 2."""
        cdcg = CDCG("contend")
        cdcg.add_packet("blocker", "b", "f", computation_time=0.0, bits=40)
        cdcg.add_packet("victim", "a", "f2", computation_time=0.0, bits=15)
        return cdcg

    def test_shared_link_serialises_packets(self):
        # Both flows need link tau0->tau2 under XY routing; they cannot
        # overlap there, so one of them must be delayed.
        cdcg = CDCG("contend")
        cdcg.add_packet("blocker", "b", "f", computation_time=0.0, bits=40)
        cdcg.add_packet("victim", "a", "f", computation_time=1.0, bits=15)
        platform = _simple_platform()
        mapping = Mapping({"b": 0, "a": 1, "f": 2}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(cdcg, mapping)
        blocker = result.schedule("blocker")
        victim = result.schedule("victim")
        assert blocker.contention_delay == 0.0
        assert victim.contention_delay > 0.0
        link_occupations = result.link_occupations(0, 2)
        assert len(link_occupations) == 2
        first, second = link_occupations
        assert first.end <= second.start

    def test_no_contention_on_disjoint_routes(self):
        cdcg = CDCG("disjoint")
        cdcg.add_packet("p1", "a", "b", computation_time=0.0, bits=20)
        cdcg.add_packet("p2", "c", "d", computation_time=0.0, bits=20)
        platform = _simple_platform()
        mapping = Mapping({"a": 0, "b": 1, "c": 2, "d": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(cdcg, mapping)
        assert result.total_contention_delay() == 0.0
        assert result.contended_packets() == []

    def test_contention_report_lists_victim(self):
        cdcg = CDCG("contend")
        cdcg.add_packet("blocker", "b", "f", computation_time=0.0, bits=40)
        cdcg.add_packet("victim", "a", "f", computation_time=1.0, bits=15)
        platform = _simple_platform()
        mapping = Mapping({"b": 0, "a": 1, "f": 2}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(cdcg, mapping)
        assert result.contended_packets() == ["victim"]

    def test_serialize_local_links_option_adds_delay(self):
        # Two packets delivered to the same core at the same time: with local
        # links serialised the second one is delayed further.
        cdcg = CDCG("eject")
        cdcg.add_packet("p1", "a", "f", computation_time=0.0, bits=30)
        cdcg.add_packet("p2", "b", "f", computation_time=0.0, bits=30)
        mapping = Mapping({"a": 1, "b": 3, "f": 2}, num_tiles=4)
        relaxed = CdcmScheduler(_simple_platform()).schedule(cdcg, mapping)
        strict = CdcmScheduler(
            _simple_platform(serialize_local_links=True)
        ).schedule(cdcg, mapping)
        assert strict.execution_time >= relaxed.execution_time


class TestResourceBookkeeping:
    def test_occupations_cover_route(self, linear_cdcg):
        platform = _simple_platform()
        mapping = Mapping({"a": 0, "b": 1, "c": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(linear_cdcg, mapping)
        # p0 goes 0 -> 1: local(0), router(0), link(0,1), router(1), local(1)
        assert any(o.packet == "p0" for o in result.local_link_occupations(0))
        assert any(o.packet == "p0" for o in result.router_occupations(0))
        assert any(o.packet == "p0" for o in result.link_occupations(0, 1))
        assert any(o.packet == "p0" for o in result.router_occupations(1))
        assert any(o.packet == "p0" for o in result.local_link_occupations(1))

    def test_bits_through_resources(self, linear_cdcg):
        platform = _simple_platform()
        mapping = Mapping({"a": 0, "b": 1, "c": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(linear_cdcg, mapping)
        # Each packet crosses hop_count routers and hop_count-1 links.
        expected_router_bits = sum(
            s.packet.bits * s.hop_count for s in result.packet_schedules.values()
        )
        expected_link_bits = sum(
            s.packet.bits * (s.hop_count - 1)
            for s in result.packet_schedules.values()
        )
        assert result.bits_through_routers() == expected_router_bits
        assert result.bits_through_links() == expected_link_bits
        assert result.bits_through_local_links() == 2 * sum(
            p.bits for p in linear_cdcg.packets
        )

    def test_max_link_utilisation_between_zero_and_one(self, fork_join_cdcg):
        platform = _simple_platform()
        mapping = Mapping({"src": 0, "x": 1, "y": 2, "sink": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(fork_join_cdcg, mapping)
        assert 0.0 < result.max_link_utilisation() <= 1.0

    def test_schedule_lookup_error(self, linear_cdcg):
        platform = _simple_platform()
        mapping = Mapping({"a": 0, "b": 1, "c": 3}, num_tiles=4)
        result = CdcmScheduler(platform).schedule(linear_cdcg, mapping)
        with pytest.raises(SchedulingError):
            result.schedule("does-not-exist")


class TestMappingValidation:
    def test_missing_core(self, linear_cdcg):
        platform = _simple_platform()
        with pytest.raises(MappingError):
            CdcmScheduler(platform).schedule(
                linear_cdcg, Mapping({"a": 0, "b": 1}, num_tiles=4)
            )

    def test_duplicate_tile(self, linear_cdcg):
        platform = _simple_platform()
        with pytest.raises(MappingError):
            CdcmScheduler(platform).schedule(
                linear_cdcg, {"a": 0, "b": 0, "c": 1}
            )

    def test_tile_outside_mesh(self, linear_cdcg):
        platform = _simple_platform()
        with pytest.raises(MappingError):
            CdcmScheduler(platform).schedule(
                linear_cdcg, {"a": 0, "b": 1, "c": 9}
            )

    def test_plain_dict_mapping_accepted(self, linear_cdcg):
        platform = _simple_platform()
        result = CdcmScheduler(platform).schedule(
            linear_cdcg, {"a": 0, "b": 1, "c": 3}
        )
        assert result.execution_time > 0


class TestCyclicCdcg:
    """A dependence cycle raises a typed error naming the CDCG, on every path."""

    MESSAGE = r"only 1 of 3 packets could be scheduled; the CDCG of 'loop' has"

    @pytest.fixture
    def cyclic(self):
        cdcg = CDCG("loop")
        cdcg.add_packet("ab", "a", "b", computation_time=1.0, bits=8)
        cdcg.add_packet("ba", "b", "a", computation_time=1.0, bits=8)
        cdcg.add_packet("free", "a", "c", computation_time=1.0, bits=8)
        cdcg.add_dependence("ab", "ba")
        cdcg.add_dependence("ba", "ab")
        return cdcg, _simple_platform(), {"a": 0, "b": 1, "c": 3}

    def test_schedule_raises(self, cyclic):
        cdcg, platform, tiles = cyclic
        with pytest.raises(SchedulingError, match=self.MESSAGE):
            CdcmScheduler(platform).schedule(cdcg, tiles)

    def test_full_cover_subset_raises(self, cyclic):
        cdcg, platform, tiles = cyclic
        names = [p.name for p in cdcg.packets]
        with pytest.raises(SchedulingError, match=self.MESSAGE):
            CdcmScheduler(platform).schedule_subset(cdcg, tiles, names)

    def test_context_metrics_raise(self, cyclic):
        cdcg, platform, tiles = cyclic
        context = CdcmEvaluationContext(cdcg, platform)
        with pytest.raises(SchedulingError, match=self.MESSAGE):
            context.metrics(Mapping(tiles, num_tiles=platform.num_tiles))


class TestScheduleResultEdgeCases:
    """Degenerate-schedule behaviour of the ScheduleResult aggregates.

    The accessors are exercised throughout the suite on healthy schedules;
    these tests pin the corners — empty applications (``execution_time`` 0
    must not divide), single-packet schedules, and hand-built self-message
    results whose traffic never leaves the local links (impossible to reach
    through ``Packet``, which forbids ``source == target``, but reachable by
    downstream consumers that build results directly).
    """

    def test_empty_schedule_aggregates_are_zero(self):
        result = CdcmScheduler(_simple_platform()).schedule(CDCG("empty"), {})
        assert result.execution_time == 0.0
        assert result.max_link_utilisation() == 0.0  # no division by zero
        assert result.total_contention_delay() == 0.0
        assert result.contended_packets() == []
        assert result.bits_through_routers() == 0
        assert result.bits_through_links() == 0
        assert result.bits_through_local_links() == 0

    def test_absent_resources_give_empty_lists(self):
        result = CdcmScheduler(_simple_platform()).schedule(CDCG("empty"), {})
        assert result.resource_occupations(LinkResource(0, 1)) == []
        assert result.router_occupations(0) == []
        assert result.link_occupations(1, 3) == []
        assert result.local_link_occupations(2) == []

    def test_single_packet_utilisation_is_link_share(self):
        cdcg = CDCG("one")
        cdcg.add_packet("p", "a", "b", computation_time=5.0, bits=10)
        platform = _simple_platform()
        result = CdcmScheduler(platform).schedule(
            cdcg, Mapping({"a": 0, "b": 1}, num_tiles=4)
        )
        (occupation,) = result.link_occupations(0, 1)
        assert result.max_link_utilisation() == pytest.approx(
            occupation.duration / result.execution_time
        )
        assert 0.0 < result.max_link_utilisation() <= 1.0

    def test_self_message_result_has_zero_link_utilisation(self):
        # Packet forbids source == target, so a core messaging itself can
        # only appear in a hand-built result: traffic on the local link of
        # one tile, no inter-router hops.  Link utilisation must ignore it.
        from repro.noc.resources import Occupation

        result = ScheduleResult(
            application="self-loop",
            execution_time=20.0,
            packet_schedules={},
            occupations={
                LocalLinkResource(0): [
                    Occupation(packet="s0", bits=64, start=0.0, end=8.0),
                    Occupation(packet="s1", bits=64, start=8.0, end=16.0),
                ],
                RouterResource(0): [
                    Occupation(packet="s0", bits=64, start=0.0, end=8.0),
                ],
            },
        )
        assert result.max_link_utilisation() == 0.0
        assert result.bits_through_links() == 0
        assert result.bits_through_local_links() == 128
        assert result.bits_through_routers() == 64
        assert [o.packet for o in result.local_link_occupations(0)] == [
            "s0",
            "s1",
        ]

    def test_resource_occupations_sorted_by_start(self):
        from repro.noc.resources import Occupation

        result = ScheduleResult(
            application="unsorted",
            execution_time=10.0,
            packet_schedules={},
            occupations={
                LinkResource(0, 1): [
                    Occupation(packet="late", bits=1, start=6.0, end=8.0),
                    Occupation(packet="early", bits=1, start=1.0, end=3.0),
                ]
            },
        )
        assert [o.packet for o in result.resource_occupations(LinkResource(0, 1))] == [
            "early",
            "late",
        ]

    def test_schedule_lookup_on_empty_result_raises(self):
        result = ScheduleResult("empty", 0.0, {})
        with pytest.raises(SchedulingError):
            result.schedule("ghost")
