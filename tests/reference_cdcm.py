"""An independent CDCM oracle, written from Section 4 of the paper.

The paper evaluates a mapping by executing the CDCG onto the CRG.  A packet
becomes ready when every packet it depends on has been delivered, and is
injected once its source core has computed for ``t_aq`` more.  Its header
then crosses the ``K`` routers of its route: each router spends ``tr`` on
the routing decision and each link ``tl`` per flit (equations 6 to 8, with
``lambda`` folded into ``tr`` and ``tl``).  A link carries one packet at a
time, so a header whose output link is still busy waits in the router and
is routed once the link is released.  Every resource keeps the list of
``(packet, bits, interval)`` entries of Figure 3.

This module shares no code with :mod:`repro.noc.scheduler` or
:mod:`repro.energy`.  It keeps no heap: the next packet to inject is found
by a linear scan over the ready packets, keyed on (injection time,
declaration index).  Routes come from the platform's routing function, not
from a route table.  It derives each packet's contention delay from
equation 8 (delivery minus injection minus the zero-load delay), not from
the waits, and prices energy with equations 2, 4, 5, 9 and 10 written out.
Resources are keyed by tuples: ``("router", tile)``, ``("link", tail,
head)`` and ``("local", tile)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: One Figure-3 cost-variable entry: packet, bits, start, end, contended.
Entry = Tuple[str, int, float, float, bool]


@dataclass
class Grant:
    """How one packet crossed the NoC."""

    name: str
    bits: int
    source_tile: int
    target_tile: int
    path: Tuple[int, ...]
    ready: float
    injection: float
    delivery: float
    contention: float
    flits: int


@dataclass
class Replay:
    """The oracle's replay of one mapping."""

    grants: List[Grant]
    records: Dict[tuple, List[Entry]] = field(default_factory=dict)
    contention_keys: Dict[str, List[tuple]] = field(default_factory=dict)

    @property
    def execution_time(self) -> float:
        return max((grant.delivery for grant in self.grants), default=0.0)

    def dynamic_energy(self, technology, include_local: bool = True) -> float:
        """Equation 4: every packet's bits times the EBit of its route."""
        total = 0.0
        for grant in self.grants:
            hops = len(grant.path)
            # Equation 2: K routers and K - 1 links, plus the two local links.
            ebit = hops * technology.e_rbit + (hops - 1) * technology.e_lbit
            if include_local:
                ebit += 2 * technology.e_cbit
            total += grant.bits * ebit
        return total

    def max_link_busy(self) -> float:
        best = 0.0
        for key, entries in self.records.items():
            if key[0] == "link":
                busy = 0.0
                for _, _, start, end, _ in entries:
                    busy += end - start
                best = max(best, busy)
        return best

    def metric_values(self, platform, include_local: bool = True) -> Tuple[float, ...]:
        """``(ENoC, texec, EDyNoC, EstNoC, max link utilisation)``."""
        technology = platform.technology
        texec = self.execution_time
        dynamic = self.dynamic_energy(technology, include_local)
        # Equations 5 and 9: n routers leak PSRouter each for texec.
        static = platform.num_tiles * technology.router_static_power * texec
        utilisation = self.max_link_busy() / texec if texec > 0 else 0.0
        return (dynamic + static, texec, dynamic, static, utilisation)


def replay(cdcg, platform, placement: Dict[str, int]) -> Replay:
    """Execute *cdcg* onto the CRG of *platform* with cores on *placement*."""
    parameters = platform.parameters
    tr = parameters.routing_cycles * parameters.clock_period
    tl = parameters.link_cycles * parameters.clock_period
    serialize_local = parameters.serialize_local_links
    packets = cdcg.packets
    delivered: Dict[str, float] = {}
    released: Dict[tuple, float] = {}
    result = Replay(grants=[])

    def record(key, entry):
        result.records.setdefault(key, []).append(entry)

    while len(delivered) < len(packets):
        chosen = None
        for position, packet in enumerate(packets):
            if packet.name in delivered:
                continue
            predecessors = cdcg.predecessors(packet.name)
            if any(name not in delivered for name in predecessors):
                continue
            ready = max((delivered[name] for name in predecessors), default=0.0)
            injection = ready + packet.computation_time
            if chosen is None or injection < chosen[0]:
                chosen = (injection, position, ready)
        if chosen is None:
            raise RuntimeError(f"the CDCG of {cdcg.name!r} has a dependence cycle")
        injection, position, ready = chosen
        packet = packets[position]
        name, bits = packet.name, packet.bits
        flits = max(1, -(-bits // parameters.flit_width))
        stream = flits * tl
        source, target = placement[packet.source], placement[packet.target]
        path = tuple(platform.route(source, target))
        keys = result.contention_keys[name] = []

        start = injection
        if serialize_local:
            start = max(injection, released.get(("local", source), 0.0))
            released[("local", source)] = start + stream
            keys.append(("local", source))
        entry = (name, bits, start, start + stream, start > injection)
        record(("local", source), entry)
        head = start + tl
        for position, router in enumerate(path):
            if position == len(path) - 1:
                output, contends = ("local", target), serialize_local
            else:
                output, contends = ("link", router, path[position + 1]), True
            if contends:
                # The header is routed once it is in the router and the
                # output link has been released.
                link_start = max(head, released.get(output, 0.0)) + tr
                released[output] = link_start + stream
                keys.append(output)
            else:
                link_start = head + tr
            waited = link_start > head + tr
            tail_passed = link_start + (flits - 1) * tl
            record(("router", router), (name, bits, head, tail_passed, waited))
            record(output, (name, bits, link_start, link_start + stream, waited))
            head = link_start + tl
        delivery = link_start + stream
        # Equation 8: the zero-load delay of K routers and n flits.
        zero_load = len(path) * (tr + tl) + tl * flits
        delivered[name] = delivery
        result.grants.append(
            Grant(name, bits, source, target, path, ready, injection, delivery,
                  delivery - injection - zero_load, flits)
        )
    return result


def resource_key(resource) -> tuple:
    """The oracle's key of a :mod:`repro.noc.resources` resource."""
    kind = type(resource).__name__
    if kind == "RouterResource":
        return ("router", resource.tile)
    if kind == "LinkResource":
        return ("link", resource.source, resource.target)
    return ("local", resource.tile)
