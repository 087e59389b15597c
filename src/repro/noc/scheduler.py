"""Contention-aware replay of a CDCG over a mapped NoC (the CDCM engine).

This module implements the evaluation procedure described in Section 4 of the
paper: given a CDCG, a core-to-tile mapping and a platform, every packet is
"executed onto the CRG" — it is injected after its dependences are satisfied
and its source core's computation time has elapsed, and it then reserves the
routers and links along its XY route for the time intervals dictated by the
wormhole delay model (equations 6–8).  Packets that compete for the same
inter-router link are serialised: the later packet waits in the input buffer
of the router before the contention point and its remaining hops are delayed
accordingly, exactly as in the A->F / B->F contention of Figure 3(a)/Figure 4.

The result (:class:`ScheduleResult`) carries:

* one :class:`PacketSchedule` per packet — injection time, delivery time,
  path, contention delay;
* the cost-variable lists of every CRG vertex and edge
  (:class:`~repro.noc.resources.Occupation` records), matching the
  annotations of Figure 3;
* the application execution time ``texec`` used by the static-energy model.

The timing model is validated against the paper's worked example: it
reproduces every interval of Figure 3 and the execution times of 100 ns /
90 ns for the two mappings of Figure 1(c, d).

Besides the full replay, the scheduler exposes the machinery of the
*bounded-repair* delta path (:mod:`repro.eval.repair`):

* :func:`contention_resource` / :func:`contention_index` — which resources
  arbitrate (inter-router links always, local core-router links only under
  ``serialize_local_links``) and the per-resource sorted occupation lists a
  repair engine keeps incrementally updated;
* :class:`FrozenOccupations` — a read-only background of occupations the
  partial replay treats as immovable;
* :meth:`CdcmScheduler.schedule_subset` — replays only a subset of packets
  against such a frozen background.  Both entry points run one heap loop and
  one grant routine, so with the subset covering every packet and no
  background the partial replay is bit-identical to
  :meth:`CdcmScheduler.schedule` (pinned in ``tests/test_repair.py``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Mapping as TypingMapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.graphs.cdcg import CDCG, Packet
from repro.noc.platform import Platform
from repro.noc.resources import (
    LinkResource,
    LocalLinkResource,
    Occupation,
    Resource,
    RouterResource,
)
from repro.utils.errors import MappingError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.core.mapping import Mapping


@dataclass(frozen=True)
class PacketSchedule:
    """Timing of one packet's traversal of the NoC.

    All times are absolute nanoseconds from application start.

    Attributes
    ----------
    packet:
        The scheduled CDCG packet.
    source_tile, target_tile:
        Tiles hosting the packet's source and target cores.
    path:
        Router (tile) indices traversed, endpoints included.
    ready_time:
        Instant at which all dependence predecessors had been delivered.
    injection_time:
        ``ready_time + computation_time`` — the instant the source core offers
        the packet's head flit to its local link.
    delivery_time:
        Instant the packet's tail flit reaches the target core.
    contention_delay:
        Total extra delay accumulated waiting for busy links.
    num_flits:
        ``n_abq`` — number of flits of the packet on this platform.
    """

    packet: Packet
    source_tile: int
    target_tile: int
    path: Tuple[int, ...]
    ready_time: float
    injection_time: float
    delivery_time: float
    contention_delay: float
    num_flits: int

    @property
    def hop_count(self) -> int:
        """``K`` — number of routers traversed."""
        return len(self.path)

    @property
    def network_latency(self) -> float:
        """Time from injection to full delivery."""
        return self.delivery_time - self.injection_time

    @property
    def zero_load_latency(self) -> float:
        """Network latency this packet would have without any contention."""
        return self.network_latency - self.contention_delay


@dataclass
class ScheduleResult:
    """Outcome of replaying a CDCG over a mapped platform."""

    application: str
    execution_time: float
    packet_schedules: Dict[str, PacketSchedule]
    occupations: Dict[Resource, List[Occupation]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def schedule(self, packet_name: str) -> PacketSchedule:
        """Schedule of a single packet, by packet name."""
        try:
            return self.packet_schedules[packet_name]
        except KeyError as exc:
            raise SchedulingError(
                f"no packet named {packet_name!r} in schedule of {self.application!r}"
            ) from exc

    def total_contention_delay(self) -> float:
        """Sum of the contention delays of all packets."""
        return sum(s.contention_delay for s in self.packet_schedules.values())

    def contended_packets(self) -> List[str]:
        """Names of packets that suffered any contention, sorted."""
        return sorted(
            name
            for name, sched in self.packet_schedules.items()
            if sched.contention_delay > 0
        )

    def resource_occupations(self, resource: Resource) -> List[Occupation]:
        """Cost-variable list of one CRG resource, sorted by start time."""
        return sorted(self.occupations.get(resource, []), key=lambda o: o.start)

    def router_occupations(self, tile: int) -> List[Occupation]:
        """Cost-variable list of the router at *tile*."""
        return self.resource_occupations(RouterResource(tile))

    def link_occupations(self, source: int, target: int) -> List[Occupation]:
        """Cost-variable list of the inter-router link *source* -> *target*."""
        return self.resource_occupations(LinkResource(source, target))

    def local_link_occupations(self, tile: int) -> List[Occupation]:
        """Cost-variable list of the core-router link of *tile*."""
        return self.resource_occupations(LocalLinkResource(tile))

    def max_link_utilisation(self) -> float:
        """Largest fraction of ``execution_time`` any inter-router link is busy."""
        if self.execution_time <= 0:
            return 0.0
        best = 0.0
        for resource, occupations in self.occupations.items():
            if not isinstance(resource, LinkResource):
                continue
            busy = sum(o.duration for o in occupations)
            best = max(best, busy / self.execution_time)
        return best

    def bits_through_routers(self) -> int:
        """Total router traversals weighted by bits (dynamic-energy quantity)."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, RouterResource)
        )

    def bits_through_links(self) -> int:
        """Total inter-router link traversals weighted by bits."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, LinkResource)
        )

    def bits_through_local_links(self) -> int:
        """Total local (core-router) link traversals weighted by bits."""
        return sum(
            sum(o.bits for o in occupations)
            for resource, occupations in self.occupations.items()
            if isinstance(resource, LocalLinkResource)
        )


def contention_resource(resource: Resource, serialize_local: bool) -> bool:
    """Whether *resource* arbitrates between packets (can delay a grant).

    Inter-router links always serialise competing packets; local core-router
    links only do under ``serialize_local_links``; routers never block in
    this model (they are cost-variable records only).
    """
    if isinstance(resource, LinkResource):
        return True
    if isinstance(resource, LocalLinkResource):
        return serialize_local
    return False


def contention_index(
    result: ScheduleResult, serialize_local: bool
) -> Dict[Resource, List[Occupation]]:
    """Per-resource occupation lists of the *contention* resources of a schedule.

    The lists are sorted by start time, which for one arbitrating resource is
    also grant order (each new grant starts at or after the previous grant's
    end), and non-overlapping — the two invariants the bounded-repair path
    (:mod:`repro.eval.repair`) relies on to keep them incrementally updated
    and to query them through :class:`FrozenOccupations`.
    """
    index: Dict[Resource, List[Occupation]] = {}
    for resource, occupations in result.occupations.items():
        if contention_resource(resource, serialize_local):
            index[resource] = sorted(occupations, key=lambda o: o.start)
    return index


class FrozenOccupations:
    """A read-only background of occupations a partial replay cannot move.

    Built from per-resource lists that are sorted by start time and
    non-overlapping (the invariant :func:`contention_index` produces — ends
    are then increasing too, so the latest occupation starting before an
    instant is also the one blocking longest).
    :meth:`CdcmScheduler.schedule_subset` consults it when granting an
    output: a background occupation behaves exactly like an already-granted
    foreground one.
    """

    __slots__ = ("_starts", "_occupations")

    def __init__(self, occupations: TypingMapping[Resource, Sequence[Occupation]]) -> None:
        self._occupations: Dict[Resource, Sequence[Occupation]] = dict(occupations)
        # Start arrays are materialised lazily, per resource, on first
        # lookup — a repair candidate consults only the resources its
        # replayed routes actually cross.
        self._starts: Dict[Resource, List[float]] = {}

    def _starts_of(self, resource: Resource) -> Optional[List[float]]:
        """The (cached) sorted start array of *resource*, or ``None`` if empty."""
        starts = self._starts.get(resource)
        if starts is None:
            occupations = self._occupations.get(resource)
            if not occupations:
                return None
            starts = [o.start for o in occupations]
            self._starts[resource] = starts
        return starts

    def blocking_end(self, resource: Resource, before: float) -> float:
        """End of the latest background occupation of *resource* starting before *before*.

        Returns 0.0 when no background occupation starts earlier — the same
        "free since forever" default the full replay uses for an untouched
        ``free_at`` entry.
        """
        starts = self._starts_of(resource)
        if starts is None:
            return 0.0
        index = bisect_left(starts, before) - 1
        if index < 0:
            return 0.0
        return self._occupations[resource][index].end

    def starting_at_or_after(
        self, resource: Resource, start: float
    ) -> Sequence[Occupation]:
        """Background occupations of *resource* starting at or after *start*.

        These are the grants the full replay would have (re-)arbitrated
        *after* a change at *start* — the repair engine's frontier: if any
        exist on a touched resource, the bounded step is only approximate.
        """
        starts = self._starts_of(resource)
        if starts is None:
            return ()
        index = bisect_left(starts, start)
        occupations = self._occupations[resource]
        return occupations[index:] if index < len(starts) else ()


@dataclass
class SubsetSchedule:
    """Outcome of a bounded partial replay (:meth:`CdcmScheduler.schedule_subset`).

    Attributes
    ----------
    schedules:
        One :class:`PacketSchedule` per replayed packet.
    footprints:
        Per replayed packet, the *contention-resource* occupations it
        reserved, as ``(resource, occupation)`` pairs in route order — what
        the repair engine splices into its incrementally maintained
        :func:`contention_index`.
    """

    schedules: Dict[str, PacketSchedule]
    footprints: Dict[str, List[Tuple[Resource, Occupation]]]


class CdcmScheduler:
    """Replays a CDCG over a mapped platform, producing a :class:`ScheduleResult`.

    Parameters
    ----------
    platform:
        Target architecture (mesh, routing, wormhole parameters, technology).
    route_table:
        Optional pre-built :class:`~repro.eval.route_table.RouteTable`; by
        default the process-wide shared table for *platform* is used, so every
        packet's path is a precomputed O(1) lookup instead of a fresh XY walk
        per replay.
    """

    def __init__(self, platform: Platform, route_table=None) -> None:
        self.platform = platform
        if route_table is None:
            # Imported here rather than at module level: repro.eval builds on
            # the noc layer, so a top-level import would be circular.
            from repro.eval.route_table import get_route_table

            route_table = get_route_table(platform)
        self._route_table = route_table
        # Heap tie-break order of the most recent CDCG, cached for
        # schedule_subset: it runs per repair delta (hot path), on a CDCG that
        # gains no packets meanwhile.  schedule() rebuilds its own per call.
        self._order_cache: Optional[Tuple[CDCG, Dict[str, int]]] = None

    def _order_index(self, cdcg: CDCG) -> Dict[str, int]:
        """Deterministic heap tie-break ranks (CDCG declaration order)."""
        cached = self._order_cache
        if cached is not None and cached[0] is cdcg:
            return cached[1]
        order_index = {p.name: i for i, p in enumerate(cdcg.packets)}
        self._order_cache = (cdcg, order_index)
        return order_index

    @property
    def route_table(self):
        """The route table replays read paths from (shared or custom)."""
        return self._route_table

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
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
        # Rebuilt per call rather than read from the identity-keyed cache: a
        # CDCG can gain packets between calls.  Its keys are every packet, so
        # it doubles as the replayed set.
        order_index = {p.name: i for i, p in enumerate(cdcg.packets)}
        occupations: Dict[Resource, List[Occupation]] = {}
        schedules = self._replay(
            cdcg, tile_of, order_index, order_index, {}, occupations=occupations
        ).schedules
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
        order_index = self._order_index(cdcg)
        floors = ready_floor or {}
        return self._replay(cdcg, tile_of, order_index, set(subset), floors, background)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _replay(
        self,
        cdcg: CDCG,
        tile_of: TypingMapping[str, int],
        order_index: Dict[str, int],
        names: Collection[str],
        floors: TypingMapping[str, float],
        background: Optional[FrozenOccupations] = None,
        occupations: Optional[Dict[Resource, List[Occupation]]] = None,
    ) -> SubsetSchedule:
        """Replay the packets in *names*: the heap loop behind both entry points.

        Dependences on packets outside *names* enter only through *floors*.
        With *occupations* given, every packet's records are appended to it
        (see :meth:`_grant`) and the footprints come back empty; otherwise
        each packet of *names* gets its contention footprint.  A dependence
        cycle among *names* raises :class:`SchedulingError`.
        """
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time
        serialize_local = params.serialize_local_links

        remaining_preds = {
            name: sum(1 for p in cdcg.predecessors(name) if p in names)
            for name in names
        }
        # Event-driven processing: always schedule next the ready packet with
        # the earliest injection time, which approximates the FCFS arbitration
        # of a real router for independent packets.
        ready_time: Dict[str, float] = {}
        heap: List[Tuple[float, int, str]] = []
        for name in names:
            if remaining_preds[name] == 0:
                ready = ready_time[name] = floors.get(name, 0.0)
                injection = ready + cdcg.packet(name).computation_time
                heapq.heappush(heap, (injection, order_index[name], name))

        # Resource availability: next instant a contention resource is free.
        free_at: Dict[Resource, float] = {}
        schedules: Dict[str, PacketSchedule] = {}
        footprints: Dict[str, List[Tuple[Resource, Occupation]]] = (
            {} if occupations is not None else {name: [] for name in names}
        )
        while heap:
            _, _, name = heapq.heappop(heap)
            packet = cdcg.packet(name)
            schedule = self._grant(
                packet,
                ready_time[name],
                tile_of[packet.source],
                tile_of[packet.target],
                tr,
                tl,
                params.flits(packet.bits),
                serialize_local,
                free_at,
                background,
                occupations,
                footprints.get(name),
            )
            schedules[name] = schedule

            for successor in cdcg.successors(name):
                if successor not in names:
                    continue
                remaining_preds[successor] -= 1
                current = ready_time.get(successor, floors.get(successor, 0.0))
                ready = ready_time[successor] = max(current, schedule.delivery_time)
                if remaining_preds[successor] == 0:
                    injection = ready + cdcg.packet(successor).computation_time
                    heapq.heappush(heap, (injection, order_index[successor], successor))

        if len(schedules) != len(names):
            raise SchedulingError(
                f"only {len(schedules)} of {len(names)} packets could be "
                f"scheduled; the CDCG of {cdcg.name!r} has a dependence cycle"
            )
        return SubsetSchedule(schedules=schedules, footprints=footprints)

    def _grant(
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
        background: Optional[FrozenOccupations],
        occupations: Optional[Dict[Resource, List[Occupation]]],
        footprint: Optional[List[Tuple[Resource, Occupation]]],
    ) -> PacketSchedule:
        """Reserve the resources along one packet's route and time its delivery.

        A grant yields to the replayed packets' ``free_at`` and, when
        *background* is given, to its frozen occupations — resolved by a
        small fixpoint, since pushing the start later can expose yet-later
        background grants.  The reservations go into *occupations* when it
        is given: every router, link and local link, the cost-variable lists
        of Figure 3.  Otherwise only the contention-resource occupations go
        into *footprint*, in route order — router records never influence
        timing, and the repair engine prices dynamic energy from hop counts,
        not occupation lists.
        """
        path = self._route_table.path(source_tile, target_tile)
        injection = ready + packet.computation_time
        stream_time = num_flits * tl

        # Source local link: the core streams the whole packet to its router.
        source_local = LocalLinkResource(source_tile)
        source_start = injection
        if serialize_local:
            available = free_at.get(source_local, 0.0)
            if available > injection:
                source_start = available
            while background is not None:
                blocked = background.blocking_end(source_local, source_start)
                if blocked <= source_start:
                    break
                source_start = blocked
            free_at[source_local] = source_start + stream_time
        contention = source_start - injection
        if occupations is not None or serialize_local:
            occupation = Occupation(
                packet.name,
                packet.bits,
                source_start,
                source_start + stream_time,
                contended=source_start > injection,
            )
            if occupations is None:
                footprint.append((source_local, occupation))
            else:
                occupations.setdefault(source_local, []).append(occupation)

        # Header progresses hop by hop; the tail follows (num_flits - 1) x tl
        # behind the header once the header's output has been granted.
        head_arrival = source_start + tl
        link_start = head_arrival  # placeholder, overwritten in the loop
        for position, router_tile in enumerate(path):
            if position == len(path) - 1:
                output: Resource = LocalLinkResource(target_tile)
                output_contends = serialize_local
            else:
                output = LinkResource(router_tile, path[position + 1])
                output_contends = True

            earliest = head_arrival + tr
            link_start = earliest
            if output_contends:
                available = free_at.get(output, 0.0)
                if available > head_arrival:
                    # The header waits in this router's input buffer until the
                    # output link is released, then still pays the routing /
                    # arbitration latency tr before streaming out.
                    link_start = max(link_start, available + tr)
                # Fixpoint: a later start can fall behind further frozen
                # grants; each push is strictly later and bounded by the last
                # background end + tr, so the loop terminates.
                while background is not None:
                    blocked = background.blocking_end(output, link_start)
                    if blocked <= head_arrival or blocked + tr <= link_start:
                        break
                    link_start = blocked + tr
                if link_start > earliest:
                    contention += link_start - earliest
                free_at[output] = link_start + stream_time

            if occupations is not None:
                occupations.setdefault(RouterResource(router_tile), []).append(
                    Occupation(
                        packet.name,
                        packet.bits,
                        head_arrival,
                        link_start + (num_flits - 1) * tl,
                        contended=link_start > earliest,
                    )
                )
            if occupations is not None or output_contends:
                occupation = Occupation(
                    packet.name,
                    packet.bits,
                    link_start,
                    link_start + stream_time,
                    contended=link_start > earliest,
                )
                if occupations is None:
                    footprint.append((output, occupation))
                else:
                    occupations.setdefault(output, []).append(occupation)
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


def _tile_lookup(
    cdcg: CDCG,
    mapping: "Mapping | TypingMapping[str, int]",
    platform: Platform,
) -> Dict[str, int]:
    """Normalise *mapping* into a plain ``core -> tile`` dict and validate it."""
    if hasattr(mapping, "assignments"):
        assignments = dict(mapping.assignments())  # repro.core.mapping.Mapping
    else:
        assignments = dict(mapping)

    cores = cdcg.cores()
    missing = [core for core in cores if core not in assignments]
    if missing:
        raise MappingError(
            f"mapping does not place cores {missing} of application {cdcg.name!r}"
        )
    used = {}
    for core in cores:
        tile = assignments[core]
        if not platform.mesh.contains(tile):
            raise MappingError(
                f"core {core!r} mapped to tile {tile}, outside {platform.mesh}"
            )
        if tile in used:
            raise MappingError(
                f"cores {used[tile]!r} and {core!r} are both mapped to tile {tile}"
            )
        used[tile] = core
    return {core: assignments[core] for core in cores}


__all__ = [
    "CdcmScheduler",
    "ScheduleResult",
    "PacketSchedule",
    "SubsetSchedule",
    "FrozenOccupations",
    "contention_resource",
    "contention_index",
]
