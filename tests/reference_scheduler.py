"""Reference CDCM replays: the two heap loops the scheduler held before they merged.

``ReferenceScheduler`` carries, copied verbatim, the full replay
(``schedule`` with ``_schedule_packet``) and the bounded partial replay
(``schedule_subset`` with ``_schedule_packet_bounded``) that
:class:`repro.noc.scheduler.CdcmScheduler` implemented as two parallel copies
of the grant arithmetic.  The library now runs both entry points through one
loop and one grant routine; ``tests/test_scheduler_oracle.py`` drives the two
side by side and requires bit-identical schedules, occupation records and
footprints, record order included.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping as TypingMapping, Optional, Tuple

from repro.graphs.cdcg import CDCG, Packet
from repro.noc.resources import (
    LinkResource,
    LocalLinkResource,
    Occupation,
    Resource,
    RouterResource,
)
from repro.noc.scheduler import (
    CdcmScheduler,
    FrozenOccupations,
    PacketSchedule,
    ScheduleResult,
    SubsetSchedule,
    _tile_lookup,
)
from repro.utils.errors import SchedulingError


class ReferenceScheduler(CdcmScheduler):
    """``CdcmScheduler`` with its two original replays restored."""

    def schedule(self, cdcg: CDCG, mapping: "Mapping | TypingMapping[str, int]") -> ScheduleResult:
        """Replay *cdcg* with cores placed according to *mapping*.

        *mapping* may be a :class:`repro.core.mapping.Mapping` or any mapping
        from core name to tile index.

        Raises
        ------
        MappingError
            If a core of the application has no tile, or two cores share one.
        SchedulingError
            If the CDCG has a dependence cycle (it then never terminates).
        """
        tile_of = _tile_lookup(cdcg, mapping, self.platform)
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time

        # Dependence bookkeeping ------------------------------------------------
        order_index = {p.name: i for i, p in enumerate(cdcg.packets)}
        remaining_preds = {
            p.name: len(cdcg.predecessors(p.name)) for p in cdcg.packets
        }
        ready_time: Dict[str, float] = {
            p.name: 0.0 for p in cdcg.packets if remaining_preds[p.name] == 0
        }

        # Resource availability: next instant a contention resource is free.
        free_at: Dict[Resource, float] = {}
        occupations: Dict[Resource, List[Occupation]] = {}
        schedules: Dict[str, PacketSchedule] = {}

        # Event-driven processing: always schedule next the ready packet with
        # the earliest injection time, which approximates the FCFS arbitration
        # of a real router for independent packets.
        heap: List[Tuple[float, int, str]] = []
        for name, ready in ready_time.items():
            packet = cdcg.packet(name)
            injection = ready + packet.computation_time
            heapq.heappush(heap, (injection, order_index[name], name))

        scheduled_count = 0
        while heap:
            _, _, name = heapq.heappop(heap)
            packet = cdcg.packet(name)
            ready = ready_time[name]
            schedule = self._schedule_packet(
                packet,
                ready,
                tile_of[packet.source],
                tile_of[packet.target],
                tr,
                tl,
                params.flits(packet.bits),
                params.serialize_local_links,
                free_at,
                occupations,
            )
            schedules[name] = schedule
            scheduled_count += 1

            for successor in cdcg.successors(name):
                remaining_preds[successor] -= 1
                current = ready_time.get(successor, 0.0)
                ready_time[successor] = max(current, schedule.delivery_time)
                if remaining_preds[successor] == 0:
                    succ_packet = cdcg.packet(successor)
                    injection = (
                        ready_time[successor] + succ_packet.computation_time
                    )
                    heapq.heappush(
                        heap, (injection, order_index[successor], successor)
                    )

        if scheduled_count != cdcg.num_packets:
            raise SchedulingError(
                f"only {scheduled_count} of {cdcg.num_packets} packets could be "
                f"scheduled; the CDCG of {cdcg.name!r} has a dependence cycle"
            )

        execution_time = max(
            (s.delivery_time for s in schedules.values()), default=0.0
        )
        return ScheduleResult(
            application=cdcg.name,
            execution_time=execution_time,
            packet_schedules=schedules,
            occupations=occupations,
        )

    def schedule_subset(
        self,
        cdcg: CDCG,
        tile_of: TypingMapping[str, int],
        subset: Iterable[str],
        ready_floor: Optional[TypingMapping[str, float]] = None,
        background: Optional[FrozenOccupations] = None,
    ) -> SubsetSchedule:
        """Replay only *subset* of the CDCG against a frozen background.

        The bounded-repair primitive: packets in *subset* are rescheduled
        with the exact full-replay timing rules, competing against each
        other **and** against *background* occupations (which never move).
        Dependences on packets outside the subset enter through
        *ready_floor* — the caller supplies each subset packet's ready time
        as seen from the frozen world (typically the maximum old delivery
        time of its out-of-subset predecessors).

        With *subset* covering every packet, an empty floor and no
        background, this is bit-identical to :meth:`schedule` (same heap
        order, same arithmetic); with a partial subset the result is exact
        whenever no background grant would have been re-arbitrated after the
        replayed changes — the condition the repair engine checks through
        :meth:`FrozenOccupations.starting_at_or_after`.

        Parameters
        ----------
        cdcg:
            The application graph (supplies packets and dependences).
        tile_of:
            Core-to-tile placement of the *candidate* mapping, covering at
            least every core a subset packet touches.  Not re-validated —
            callers hold an already-validated mapping.
        subset:
            Names of the packets to replay.
        ready_floor:
            Per-packet lower bound on the ready time (absolute ns)
            contributed by out-of-subset predecessors; missing entries mean
            0.0.
        background:
            Frozen occupations of the packets *not* being replayed; ``None``
            means an empty network.

        Raises
        ------
        SchedulingError
            If the dependences among the subset packets contain a cycle.
        """
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time
        serialize_local = params.serialize_local_links
        names = set(subset)
        floors = ready_floor or {}

        order_index = self._order_index(cdcg)
        remaining_preds = {
            name: sum(1 for p in cdcg.predecessors(name) if p in names)
            for name in names
        }
        ready_time: Dict[str, float] = {}
        heap: List[Tuple[float, int, str]] = []
        for name in names:
            if remaining_preds[name] == 0:
                ready = floors.get(name, 0.0)
                ready_time[name] = ready
                packet = cdcg.packet(name)
                heapq.heappush(
                    heap, (ready + packet.computation_time, order_index[name], name)
                )

        free_at: Dict[Resource, float] = {}
        schedules: Dict[str, PacketSchedule] = {}
        footprints: Dict[str, List[Tuple[Resource, Occupation]]] = {
            name: [] for name in names
        }
        while heap:
            _, _, name = heapq.heappop(heap)
            packet = cdcg.packet(name)
            schedule = self._schedule_packet_bounded(
                packet,
                ready_time[name],
                tile_of[packet.source],
                tile_of[packet.target],
                tr,
                tl,
                params.flits(packet.bits),
                serialize_local,
                free_at,
                footprints[name],
                background,
            )
            schedules[name] = schedule

            for successor in cdcg.successors(name):
                if successor not in names:
                    continue
                remaining_preds[successor] -= 1
                current = ready_time.get(successor, floors.get(successor, 0.0))
                ready_time[successor] = max(current, schedule.delivery_time)
                if remaining_preds[successor] == 0:
                    succ_packet = cdcg.packet(successor)
                    heapq.heappush(
                        heap,
                        (
                            ready_time[successor] + succ_packet.computation_time,
                            order_index[successor],
                            successor,
                        ),
                    )

        if len(schedules) != len(names):
            raise SchedulingError(
                f"only {len(schedules)} of {len(names)} subset packets could "
                f"be scheduled; the CDCG of {cdcg.name!r} has a dependence "
                f"cycle"
            )
        return SubsetSchedule(schedules=schedules, footprints=footprints)

    def _schedule_packet(
        self,
        packet: Packet,
        ready: float,
        source_tile: int,
        target_tile: int,
        tr: float,
        tl: float,
        num_flits: int,
        serialize_local: bool,
        free_at: Dict[Resource, float],
        occupations: Dict[Resource, List[Occupation]],
    ) -> PacketSchedule:
        """Reserve the resources along one packet's route and time its delivery."""
        path = self._route_table.path(source_tile, target_tile)
        injection = ready + packet.computation_time
        stream_time = num_flits * tl
        contention = 0.0

        # Source local link: the core streams the whole packet to its router.
        source_local = LocalLinkResource(source_tile)
        source_start = injection
        if serialize_local:
            available = free_at.get(source_local, 0.0)
            if available > injection:
                source_start = available
                contention += source_start - injection
            free_at[source_local] = source_start + stream_time
        _record(
            occupations,
            source_local,
            Occupation(
                packet.name,
                packet.bits,
                source_start,
                source_start + stream_time,
                contended=source_start > injection,
            ),
        )

        # Header progresses hop by hop; the tail follows (num_flits - 1) x tl
        # behind the header once the header's output has been granted.
        head_arrival = source_start + tl
        link_start = head_arrival  # placeholder, overwritten in the loop
        for position, router_tile in enumerate(path):
            is_last = position == len(path) - 1
            if is_last:
                output: Resource = LocalLinkResource(target_tile)
                output_contends = serialize_local
            else:
                output = LinkResource(router_tile, path[position + 1])
                output_contends = True

            earliest = head_arrival + tr
            link_start = earliest
            contended_here = False
            if output_contends:
                available = free_at.get(output, 0.0)
                if available > head_arrival:
                    # The header waits in this router's input buffer until the
                    # output link is released, then still pays the routing /
                    # arbitration latency tr before streaming out.
                    link_start = max(link_start, available + tr)
                if link_start > earliest:
                    contended_here = True
                    contention += link_start - earliest
                free_at[output] = link_start + stream_time

            _record(
                occupations,
                RouterResource(router_tile),
                Occupation(
                    packet.name,
                    packet.bits,
                    head_arrival,
                    link_start + (num_flits - 1) * tl,
                    contended=contended_here,
                ),
            )
            _record(
                occupations,
                output,
                Occupation(
                    packet.name,
                    packet.bits,
                    link_start,
                    link_start + stream_time,
                    contended=contended_here,
                ),
            )
            head_arrival = link_start + tl

        delivery = link_start + stream_time
        return PacketSchedule(
            packet=packet,
            source_tile=source_tile,
            target_tile=target_tile,
            path=tuple(path),
            ready_time=ready,
            injection_time=injection,
            delivery_time=delivery,
            contention_delay=contention,
            num_flits=num_flits,
        )

    def _schedule_packet_bounded(
        self,
        packet: Packet,
        ready: float,
        source_tile: int,
        target_tile: int,
        tr: float,
        tl: float,
        num_flits: int,
        serialize_local: bool,
        free_at: Dict[Resource, float],
        footprint: List[Tuple[Resource, Occupation]],
        background: Optional[FrozenOccupations],
    ) -> PacketSchedule:
        """Timing twin of :meth:`_schedule_packet` against a frozen background.

        Identical grant arithmetic, with two differences: (1) besides the
        replayed packets' ``free_at``, a grant also yields to *background*
        occupations — resolved by a small fixpoint, since pushing the start
        later can expose yet-later background grants; (2) only
        contention-resource occupations are recorded (into *footprint*) —
        router records never influence timing and the repair engine prices
        dynamic energy from hop counts, not occupation lists.
        """
        path = self._route_table.path(source_tile, target_tile)
        injection = ready + packet.computation_time
        stream_time = num_flits * tl
        contention = 0.0

        source_local = LocalLinkResource(source_tile)
        source_start = injection
        if serialize_local:
            available = free_at.get(source_local, 0.0)
            if available > injection:
                source_start = available
            if background is not None:
                while True:
                    blocked = background.blocking_end(source_local, source_start)
                    if blocked > source_start:
                        source_start = blocked
                    else:
                        break
            if source_start > injection:
                contention += source_start - injection
            free_at[source_local] = source_start + stream_time
            footprint.append(
                (
                    source_local,
                    Occupation(
                        packet.name,
                        packet.bits,
                        source_start,
                        source_start + stream_time,
                        contended=source_start > injection,
                    ),
                )
            )

        head_arrival = source_start + tl
        link_start = head_arrival  # placeholder, overwritten in the loop
        for position, router_tile in enumerate(path):
            is_last = position == len(path) - 1
            if is_last:
                output: Resource = LocalLinkResource(target_tile)
                output_contends = serialize_local
            else:
                output = LinkResource(router_tile, path[position + 1])
                output_contends = True

            earliest = head_arrival + tr
            link_start = earliest
            contended_here = False
            if output_contends:
                available = free_at.get(output, 0.0)
                if available > head_arrival:
                    link_start = max(link_start, available + tr)
                if background is not None:
                    # Fixpoint: a later start can fall behind further frozen
                    # grants; each push is strictly later and bounded by the
                    # last background end + tr, so the loop terminates.
                    while True:
                        blocked = background.blocking_end(output, link_start)
                        if blocked > head_arrival:
                            moved = max(link_start, blocked + tr)
                            if moved > link_start:
                                link_start = moved
                                continue
                        break
                if link_start > earliest:
                    contended_here = True
                    contention += link_start - earliest
                free_at[output] = link_start + stream_time
                footprint.append(
                    (
                        output,
                        Occupation(
                            packet.name,
                            packet.bits,
                            link_start,
                            link_start + stream_time,
                            contended=contended_here,
                        ),
                    )
                )
            head_arrival = link_start + tl

        delivery = link_start + stream_time
        return PacketSchedule(
            packet=packet,
            source_tile=source_tile,
            target_tile=target_tile,
            path=tuple(path),
            ready_time=ready,
            injection_time=injection,
            delivery_time=delivery,
            contention_delay=contention,
            num_flits=num_flits,
        )


def _record(
    occupations: Dict[Resource, List[Occupation]],
    resource: Resource,
    occupation: Occupation,
) -> None:
    occupations.setdefault(resource, []).append(occupation)
