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

One replay loop serves every entry point.  Without a recorder it keeps only
what pricing reads (:class:`ReplayTotals`: the execution time, the dynamic
energy summed per packet in grant order and the busiest link's busy time);
:meth:`CdcmScheduler.totals` is that path, and
:meth:`repro.core.cdcm.CdcmEvaluator.metrics` prices through it.  With a
recorder the loop also keeps each grant's start times, from which
:meth:`CdcmScheduler.schedule` builds a :class:`ScheduleResult`:

* one :class:`PacketSchedule` per packet — injection time, delivery time,
  path, contention delay;
* the application execution time ``texec`` used by the static-energy model;
* the cost-variable lists of every CRG vertex and edge
  (:class:`~repro.noc.resources.Occupation` records), matching the
  annotations of Figure 3.  The result keeps each grant's start times and
  link ids and builds the lists from them the first time
  :attr:`ScheduleResult.occupations` is read, then keeps them: a report's
  energy and execution time read none of them, while the Figure-3 readers,
  :meth:`ScheduleResult.max_link_utilisation` (the metric vector's
  congestion component) and the repair engine's base state do.

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
  against such a frozen background, through the same loop, so with the
  subset covering every packet and no background the partial replay is
  bit-identical to :meth:`CdcmScheduler.schedule` (pinned in
  ``tests/test_repair.py``).
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping as TypingMapping, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.graphs.cdcg import CDCG, Packet
from repro.noc.platform import NocParameters, Platform
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


class _Grants(NamedTuple):
    """A recorded replay's grants, from which its Figure-3 lists are built.

    Plain data only, so a kept :class:`ScheduleResult` pins no scheduler,
    CDCG arrays or route table, and pickles and copies like its lists.

    Attributes
    ----------
    grants:
        Per packet, in grant order: its :class:`PacketSchedule`, the
        recorded start times (source local link, then every output along
        the route) and the ids of its route's inter-router links.
    resources:
        The scheduler's resource keys: links by link id, local links and
        routers by tile.
    routing_time, link_time:
        ``tr`` and ``tl`` of the replayed platform.
    """

    grants: List[Tuple[PacketSchedule, List[float], Tuple[int, ...]]]
    resources: Tuple[List[LinkResource], List[LocalLinkResource], List[RouterResource]]
    routing_time: float
    link_time: float

    def occupations(self) -> Dict[Resource, List[Occupation]]:
        """Every router, link and local-link record, filed under its resource.

        The occupation half of :meth:`CdcmScheduler._recorded`'s arithmetic:
        resources appear in first-use order and each list in grant order.
        """
        tr = self.routing_time
        tl = self.link_time
        link_resources, local_resources, router_resources = self.resources
        occupations: Dict[Resource, List[Occupation]] = {}
        for schedule, starts, link_ids in self.grants:
            packet = schedule.packet
            name = packet.name
            bits = packet.bits
            num_flits = schedule.num_flits
            stream = num_flits * tl
            tail = (num_flits - 1) * tl
            last = len(link_ids)

            start = starts[0]
            occupations.setdefault(local_resources[schedule.source_tile], []).append(
                Occupation(
                    name,
                    bits,
                    start,
                    start + stream,
                    contended=start > schedule.injection_time,
                )
            )
            head = start + tl
            for position, router in enumerate(schedule.path):
                link_start = starts[position + 1]
                contended = link_start > head + tr
                occupations.setdefault(router_resources[router], []).append(
                    Occupation(
                        name, bits, head, link_start + tail, contended=contended
                    )
                )
                if position < last:
                    output: Resource = link_resources[link_ids[position]]
                else:
                    output = local_resources[schedule.target_tile]
                occupations.setdefault(output, []).append(
                    Occupation(
                        name, bits, link_start, link_start + stream, contended=contended
                    )
                )
                head = link_start + tl
        return occupations


@dataclass
class ScheduleResult:
    """Outcome of replaying a CDCG over a mapped platform.

    ``occupations`` holds the cost-variable lists of Figure 3, per resource.
    Lists given to the constructor are kept as given.  A result of
    :meth:`CdcmScheduler.schedule` holds its replay's grants instead and
    builds the lists from them the first time ``occupations`` is read —
    directly, through the readers below, or by ``==`` and ``repr`` — and
    then keeps them.  Copies and pickles of a result build nothing.
    """

    application: str
    execution_time: float
    packet_schedules: Dict[str, PacketSchedule]
    occupations: Dict[Resource, List[Occupation]] = field(default_factory=dict)

    @classmethod
    def _deferred(
        cls,
        application: str,
        execution_time: float,
        packet_schedules: Dict[str, PacketSchedule],
        grants: _Grants,
    ) -> "ScheduleResult":
        """A result whose ``occupations`` *grants* builds on first read."""
        result = cls.__new__(cls)
        result.application = application
        result.execution_time = execution_time
        result.packet_schedules = packet_schedules
        result._grants = grants
        return result

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks, which for
        # ``occupations`` means a deferred result's first read.
        grants = self.__dict__.get("_grants") if name == "occupations" else None
        if grants is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.occupations = grants.occupations()
        del self._grants
        return self.occupations

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
            # Summed one record at a time, as the replay loop sums it:
            # sum() of floats is compensated on Python 3.12 and later.
            busy = 0.0
            for occupation in occupations:
                busy += occupation.duration
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


class ReplayTotals(NamedTuple):
    """What pricing reads from one replay (:meth:`CdcmScheduler.totals`).

    Attributes
    ----------
    execution_time:
        ``texec``: the latest delivery, in ns (0.0 without packets).
    dynamic_energy:
        ``EDyNoC`` (equation 4): each packet's bits times the per-bit energy
        of its route, summed in grant order.
    max_link_busy:
        Busy time of the busiest inter-router link, in ns: per link, the
        ``(start + stream) - start`` of every grant, summed in grant order.
    """

    execution_time: float
    dynamic_energy: float
    max_link_busy: float


class _CdcgArrays:
    """A CDCG as the index arrays the replay loop reads.

    Packets are numbered in declaration order, which is the heap's
    tie-break; cores in :meth:`CDCG.cores` order.  One instance serves
    every scheduler of a CDCG revision and :class:`NocParameters` (stream
    times depend on them); it holds no reference to the CDCG, so sharing it
    keeps none alive.
    """

    __slots__ = (
        "revision",
        "packets",
        "index",
        "cores",
        "source",
        "target",
        "computation",
        "bits",
        "flits",
        "stream",
        "successors",
        "predecessors",
        "initial",
        "everyone",
    )

    def __init__(self, cdcg: CDCG, parameters: NocParameters) -> None:
        self.revision = cdcg.revision
        packets = self.packets = cdcg.packets
        index = self.index = {p.name: i for i, p in enumerate(packets)}
        cores = self.cores = cdcg.cores()
        core_index = {core: i for i, core in enumerate(cores)}
        self.source = [core_index[p.source] for p in packets]
        self.target = [core_index[p.target] for p in packets]
        self.computation = [p.computation_time for p in packets]
        self.bits = [p.bits for p in packets]
        self.flits = [parameters.flits(p.bits) for p in packets]
        link_time = parameters.link_time
        self.stream = [flits * link_time for flits in self.flits]
        self.successors = [
            tuple(index[s] for s in cdcg.successors(p.name)) for p in packets
        ]
        self.predecessors = [len(cdcg.predecessors(p.name)) for p in packets]
        self.initial = [i for i, count in enumerate(self.predecessors) if count == 0]
        self.everyone = [True] * len(packets)


#: Replay arrays per CDCG, then per :class:`NocParameters`, shared by every
#: scheduler.  Weak keys: the share never keeps a CDCG alive.
_SHARED_ARRAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class CdcmScheduler:
    """Replays a CDCG over a mapped platform, producing a :class:`ScheduleResult`.

    One loop replays every entry point.  It arbitrates over integer link ids
    and flat ``free_at`` lists, and keeps only delivery times, hop counts and
    per-link busy sums: that is :meth:`totals`, the path pricing takes.
    :meth:`schedule` and :meth:`schedule_subset` also record each grant's
    start times and build the :class:`PacketSchedule` and
    :class:`~repro.noc.resources.Occupation` records from them afterwards.

    Each route's link ids come from the route table
    (:meth:`~repro.eval.route_table.RouteTable.link_ids`), which memoises
    them per tile pair for every scheduler bound to it: a replay reads the
    memo with one dict lookup per packet, and walks a route only when no
    replay on that table has walked it before.  Only the records of
    :meth:`schedule` and :meth:`schedule_subset` read the table's paths.

    Parameters
    ----------
    platform:
        Target architecture (mesh, routing, wormhole parameters, technology).
    route_table:
        Optional pre-built :class:`~repro.eval.route_table.RouteTable`; by
        default the process-wide shared table for *platform* is used.
    """

    def __init__(self, platform: Platform, route_table=None) -> None:
        self.platform = platform
        if route_table is None:
            # Imported here rather than at module level: repro.eval builds on
            # the noc layer, so a top-level import would be circular.
            from repro.eval.route_table import get_route_table

            route_table = get_route_table(platform)
        self._route_table = route_table
        self._num_tiles = route_table.num_tiles
        self._resources: Optional[
            Tuple[List[LinkResource], List[LocalLinkResource], List[RouterResource]]
        ] = None

    def _arrays(self, cdcg: CDCG) -> _CdcgArrays:
        """The index arrays of *cdcg* at its current revision (shared)."""
        parameters = self.platform.parameters
        shared = _SHARED_ARRAYS.setdefault(cdcg, {})
        arrays = shared.get(parameters)
        if arrays is None or arrays.revision != cdcg.revision:
            arrays = shared[parameters] = _CdcgArrays(cdcg, parameters)
        return arrays

    def _order_index(self, cdcg: CDCG) -> Dict[str, int]:
        """Deterministic heap tie-break ranks (CDCG declaration order)."""
        return self._arrays(cdcg).index

    def _resource_lists(
        self,
    ) -> Tuple[List[LinkResource], List[LocalLinkResource], List[RouterResource]]:
        """Resource keys by link id and by tile (built on first recorded replay)."""
        if self._resources is None:
            n = self._num_tiles
            tiles = range(n)
            keys = self._route_table.link_keys.tolist()
            self._resources = (
                [LinkResource(*divmod(key, n)) for key in keys],
                [LocalLinkResource(tile) for tile in tiles],
                [RouterResource(tile) for tile in tiles],
            )
        return self._resources

    @property
    def route_table(self):
        """The route table replays read link ids from (shared or custom)."""
        return self._route_table

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, cdcg: CDCG, mapping: "Mapping | TypingMapping[str, int]") -> ScheduleResult:
        """Replay *cdcg* with cores placed according to *mapping*.

        *mapping* may be a :class:`repro.core.mapping.Mapping` or any mapping
        from core name to tile index.  The result's packet schedules are
        built here; its Figure-3 lists (:attr:`ScheduleResult.occupations`)
        are built from the recorded grants when first read.

        Raises
        ------
        MappingError
            If a core of the application has no tile, or two cores share one.
        SchedulingError
            If the CDCG has a dependence cycle (it then never terminates).
        """
        arrays = self._arrays(cdcg)
        tiles = self._placement(cdcg, arrays, mapping)
        record: List[Tuple[int, float, List[float]]] = []
        totals = self._replay(cdcg, arrays, tiles, record=record)
        grants: List[Tuple[PacketSchedule, List[float], Tuple[int, ...]]] = []
        schedules = self._recorded(arrays, tiles, record, grants=grants)
        params = self.platform.parameters
        return ScheduleResult._deferred(
            cdcg.name,
            totals.execution_time,
            schedules,
            _Grants(
                grants, self._resource_lists(), params.routing_time, params.link_time
            ),
        )

    def totals(
        self,
        cdcg: CDCG,
        mapping: "Mapping | TypingMapping[str, int]",
        bit_energy: Sequence[float],
    ) -> ReplayTotals:
        """Replay *cdcg* under *mapping* and keep only what pricing reads.

        The same replay as :meth:`schedule`, with the same placement checks
        and errors, but it builds no :class:`PacketSchedule`,
        :class:`~repro.noc.resources.Occupation` or resource key.

        Parameters
        ----------
        bit_energy:
            Per-bit energy of a route through ``k`` routers, indexed by
            ``k`` (``EBit_ij`` of equation 2); a packet adds its bits times
            the entry of its hop count to ``dynamic_energy``.
        """
        arrays = self._arrays(cdcg)
        tiles = self._placement(cdcg, arrays, mapping)
        return self._replay(cdcg, arrays, tiles, bit_energy=bit_energy)

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
        arrays = self._arrays(cdcg)
        names = set(subset)
        index = arrays.index
        members = []
        for name in names:
            if name not in index:
                cdcg.packet(name)  # raises the graph's typed error
            members.append(index[name])
        tiles = [tile_of.get(core) for core in arrays.cores]
        record: List[Tuple[int, float, List[float]]] = []
        self._replay(
            cdcg, arrays, tiles, members, ready_floor or {}, background, record
        )
        footprints: Dict[str, List[Tuple[Resource, Occupation]]] = {
            name: [] for name in names
        }
        schedules = self._recorded(arrays, tiles, record, footprints=footprints)
        return SubsetSchedule(schedules=schedules, footprints=footprints)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _placement(
        self,
        cdcg: CDCG,
        arrays: _CdcgArrays,
        mapping: "Mapping | TypingMapping[str, int]",
    ) -> List[int]:
        """Validated tile of every core, in the arrays' core order."""
        tile_of = _tile_lookup(cdcg, mapping, self.platform, arrays.cores)
        return list(tile_of.values())

    def _replay(
        self,
        cdcg: CDCG,
        arrays: _CdcgArrays,
        tiles: Sequence[Optional[int]],
        members: Optional[List[int]] = None,
        floors: Optional[TypingMapping[str, float]] = None,
        background: Optional[FrozenOccupations] = None,
        record: Optional[List[Tuple[int, float, List[float]]]] = None,
        bit_energy: Optional[Sequence[float]] = None,
    ) -> ReplayTotals:
        """Replay every packet, or the packets at *members*: the one replay loop.

        Each step grants the ready packet with the earliest injection time
        (ties by declaration order) every resource of its route, in route
        order.  Dependences on packets outside *members* enter only through
        *floors*, by packet name.  A grant yields to the replayed packets'
        ``free_at`` and, when *background* is given, to its frozen
        occupations — resolved by a small fixpoint, since pushing the start
        later can expose yet-later background grants.  With *record*, each
        grant appends ``(packet index, ready time, starts)``: the start of
        its source local link, then of every output along the route.  With
        *bit_energy*, the totals price dynamic energy.  A dependence cycle
        among the replayed packets raises :class:`SchedulingError`.
        """
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time
        serialize_local = params.serialize_local_links
        recording = record is not None
        frozen = background is not None
        pricing = bit_energy is not None
        computation = arrays.computation
        stream_of = arrays.stream
        successors = arrays.successors
        source_core = arrays.source
        target_core = arrays.target
        bits = arrays.bits
        table = self._route_table
        routes = table.link_id_memo
        num_tiles = self._num_tiles

        count = len(computation)
        ready = [0.0] * count
        if members is None:
            member = arrays.everyone
            remaining = list(arrays.predecessors)
            starters = arrays.initial
            expected = count
        else:
            member = [False] * count
            for i in members:
                member[i] = True
            remaining = [0] * count
            packets = arrays.packets
            for i in members:
                ready[i] = floors.get(packets[i].name, 0.0)
                for j in successors[i]:
                    if member[j]:
                        remaining[j] += 1
            starters = members
            expected = len(members)
        # Event-driven processing: always grant next the ready packet with
        # the earliest injection time, which approximates the FCFS
        # arbitration of a real router for independent packets.
        heap = [(ready[i] + computation[i], i) for i in starters if remaining[i] == 0]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush

        num_links = table.num_links
        # Next instant each contention resource is free: inter-router links
        # by link id, local links by tile.
        free = [0.0] * num_links
        local_free = [0.0] * num_tiles
        busy = [0.0] * num_links
        if frozen:
            link_resources, local_resources, _ = self._resource_lists()
        execution_time = 0.0
        dynamic = 0.0
        granted = 0
        while heap:
            i = heappop(heap)[1]
            granted += 1
            ready_at = ready[i]
            injection = ready_at + computation[i]
            stream = stream_of[i]
            source = tiles[source_core[i]]
            target = tiles[target_core[i]]
            link_ids = routes.get(source * num_tiles + target)
            if link_ids is None:
                link_ids = table.link_ids(source, target)

            # Source local link: the core streams the whole packet to its
            # router.
            start = injection
            if serialize_local:
                available = local_free[source]
                if available > start:
                    start = available
                if frozen:
                    resource = local_resources[source]
                    while True:
                        blocked = background.blocking_end(resource, start)
                        if blocked <= start:
                            break
                        start = blocked
                local_free[source] = start + stream
            if recording:
                starts = [start]

            # The header progresses hop by hop; the tail follows
            # (flits - 1) x tl behind it once each output is granted.
            head = start + tl
            for link in link_ids:
                earliest = head + tr
                link_start = earliest
                available = free[link]
                if available > head:
                    # The header waits in this router's input buffer until the
                    # output link is released, then still pays the routing /
                    # arbitration latency tr before streaming out.
                    available += tr
                    if available > earliest:
                        link_start = available
                if frozen:
                    # Each push is strictly later and bounded by the last
                    # background end + tr, so the fixpoint terminates.
                    resource = link_resources[link]
                    while True:
                        blocked = background.blocking_end(resource, link_start)
                        if blocked <= head or blocked + tr <= link_start:
                            break
                        link_start = blocked + tr
                end = link_start + stream
                free[link] = end
                busy[link] += end - link_start
                if recording:
                    starts.append(link_start)
                head = link_start + tl

            # The last output: the target tile's local link.
            earliest = link_start = head + tr
            if serialize_local:
                available = local_free[target]
                if available > head:
                    available += tr
                    if available > earliest:
                        link_start = available
                if frozen:
                    resource = local_resources[target]
                    while True:
                        blocked = background.blocking_end(resource, link_start)
                        if blocked <= head or blocked + tr <= link_start:
                            break
                        link_start = blocked + tr
                local_free[target] = link_start + stream
            delivery = link_start + stream
            if recording:
                starts.append(link_start)
                record.append((i, ready_at, starts))
            if delivery > execution_time:
                execution_time = delivery
            if pricing:
                dynamic += bits[i] * bit_energy[len(link_ids) + 1]

            for j in successors[i]:
                if member[j]:
                    if delivery > ready[j]:
                        ready[j] = delivery
                    remaining[j] -= 1
                    if remaining[j] == 0:
                        heappush(heap, (ready[j] + computation[j], j))

        if granted != expected:
            raise SchedulingError(
                f"only {granted} of {expected} packets could be "
                f"scheduled; the CDCG of {cdcg.name!r} has a dependence cycle"
            )
        return ReplayTotals(execution_time, dynamic, max(busy, default=0.0))

    def _recorded(
        self,
        arrays: _CdcgArrays,
        tiles: Sequence[Optional[int]],
        record: List[Tuple[int, float, List[float]]],
        grants: Optional[List[Tuple[PacketSchedule, List[float], Tuple[int, ...]]]] = None,
        footprints: Optional[Dict[str, List[Tuple[Resource, Occupation]]]] = None,
    ) -> Dict[str, PacketSchedule]:
        """The packet schedules of a recorded replay, in grant order.

        Rebuilds every grant from its recorded starts with the replay's own
        arithmetic.  With *grants*, each packet's schedule, starts and link
        ids are appended: what :meth:`_Grants.occupations` builds the
        cost-variable lists of Figure 3 from.  With *footprints*, each
        packet's list gets its contention-resource records, in route order
        — router records never influence timing, and the repair engine
        prices dynamic energy from hop counts.
        """
        params = self.platform.parameters
        tr = params.routing_time
        tl = params.link_time
        serialize_local = params.serialize_local_links
        if footprints is not None:
            link_resources, local_resources, _ = self._resource_lists()
        table = self._route_table
        routes = table.link_id_memo  # holds every route the replay granted
        num_tiles = self._num_tiles
        packets = arrays.packets
        schedules: Dict[str, PacketSchedule] = {}
        for i, ready, starts in record:
            packet = packets[i]
            name = packet.name
            source = tiles[arrays.source[i]]
            target = tiles[arrays.target[i]]
            link_ids = routes[source * num_tiles + target]
            path = table.path(source, target)
            injection = ready + arrays.computation[i]
            stream = arrays.stream[i]
            footprint = None if footprints is None else footprints[name]

            start = starts[0]
            contention = start - injection
            if footprint is not None and serialize_local:
                occupation = Occupation(
                    name, packet.bits, start, start + stream, contended=start > injection
                )
                footprint.append((local_resources[source], occupation))
            head = start + tl
            for position in range(len(path)):
                link_start = starts[position + 1]
                earliest = head + tr
                contended = link_start > earliest
                if contended:
                    contention += link_start - earliest
                if footprint is not None:
                    if position < len(link_ids):
                        output: Resource = link_resources[link_ids[position]]
                    elif serialize_local:
                        output = local_resources[target]
                    else:
                        break  # an unserialised local link is no contention resource
                    occupation = Occupation(
                        name, packet.bits, link_start, link_start + stream, contended=contended
                    )
                    footprint.append((output, occupation))
                head = link_start + tl

            schedule = schedules[name] = PacketSchedule(
                packet=packet,
                source_tile=source,
                target_tile=target,
                path=path,
                ready_time=ready,
                injection_time=injection,
                delivery_time=link_start + stream,
                contention_delay=contention,
                num_flits=arrays.flits[i],
            )
            if grants is not None:
                grants.append((schedule, starts, link_ids))
        return schedules


def _tile_lookup(
    cdcg: CDCG,
    mapping: "Mapping | TypingMapping[str, int]",
    platform: Platform,
    cores: Optional[List[str]] = None,
) -> Dict[str, int]:
    """Normalise *mapping* into a plain ``core -> tile`` dict and validate it.

    The dict follows the order of *cores*, by default ``cdcg.cores()``.
    """
    if hasattr(mapping, "assignments"):
        assignments = dict(mapping.assignments())  # repro.core.mapping.Mapping
    else:
        assignments = dict(mapping)

    if cores is None:
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
    "ReplayTotals",
    "ScheduleResult",
    "PacketSchedule",
    "SubsetSchedule",
    "FrozenOccupations",
    "contention_resource",
    "contention_index",
]
