"""Communication Dependence and Computation Graph (CDCG) — Definition 2.

A CDCG is a directed graph ``<P, D>`` whose vertices are the *packets*
exchanged between cores (plus two special ``Start`` and ``End`` vertices) and
whose edges are the communication dependences between packets.  Each packet is
the 4-tuple ``p_abq = (c_a, c_b, t_aq, w_abq)``: it is the q-th packet sent
from core ``c_a`` to core ``c_b``, carries ``w_abq`` bits, and is injected
after the originating core has computed for ``t_aq`` time units.

The CDCG is the input of the CDCM mapping algorithm: replaying it over a
mapped NoC (see :mod:`repro.noc.scheduler`) yields the application execution
time, per-resource occupation intervals, and contention delays that the CWM
abstraction cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING


from repro.utils.errors import GraphValidationError

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    import networkx as nx

#: Name of the special source vertex.  Every packet with no explicit
#: predecessor depends on ``START``.
START = "__start__"

#: Name of the special sink vertex.  Every packet with no explicit successor
#: leads to ``END``.
END = "__end__"


@dataclass(frozen=True)
class Packet:
    """A CDCG vertex: one packet exchanged between two cores.

    Attributes
    ----------
    name:
        Unique identifier of the packet inside its CDCG (e.g. ``"EA1"`` for
        the first packet from core E to core A, following the paper's
        ``p_EA1`` notation).
    source, target:
        The communicating cores ``c_a`` and ``c_b``.
    computation_time:
        ``t_aq`` — time (in the platform's time unit, nanoseconds by library
        convention) the source core computes before injecting this packet,
        counted from the moment all the packet's dependences are satisfied.
    bits:
        ``w_abq`` — number of bits in the packet.
    """

    name: str
    source: str
    target: str
    computation_time: float
    bits: int

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphValidationError("packet name must be a non-empty string")
        if self.name in (START, END):
            raise GraphValidationError(
                f"packet name {self.name!r} collides with a reserved vertex name"
            )
        if self.source == self.target:
            raise GraphValidationError(
                f"packet {self.name!r}: source and target core are both "
                f"{self.source!r}; self communication is not allowed"
            )
        if self.computation_time < 0:
            raise GraphValidationError(
                f"packet {self.name!r}: computation time must be non-negative, "
                f"got {self.computation_time}"
            )
        if self.bits <= 0:
            raise GraphValidationError(
                f"packet {self.name!r}: bit volume must be positive, got {self.bits}"
            )

    @property
    def flow(self) -> Tuple[str, str]:
        """The ``(source, target)`` core pair of this packet."""
        return (self.source, self.target)


class CDCG:
    """Communication dependence and computation graph of an application.

    The graph always contains the two special vertices :data:`START` and
    :data:`END`.  Packets without explicit predecessors are implicitly
    reachable from ``START`` (see :meth:`initial_packets`) and packets without
    successors implicitly lead to ``END``; :meth:`validate` checks that the
    dependence relation is acyclic so the application always terminates.

    Examples
    --------
    >>> cdcg = CDCG("example")
    >>> p1 = cdcg.add_packet("EA1", "E", "A", computation_time=10, bits=20)
    >>> p2 = cdcg.add_packet("EA2", "E", "A", computation_time=20, bits=15)
    >>> cdcg.add_dependence("EA1", "EA2")
    >>> [p.name for p in cdcg.initial_packets()]
    ['EA1']
    """

    def __init__(self, name: str = "application") -> None:
        self.name = name
        self._packets: Dict[str, Packet] = {}
        self._order: List[str] = []
        # dependences: predecessor name -> set of successor names
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        self._explicit_cores: List[str] = []
        self._revision = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_packet(
        self,
        name: str,
        source: str,
        target: str,
        computation_time: float,
        bits: int,
    ) -> Packet:
        """Create and register a packet vertex.

        Returns the created :class:`Packet`.  Raises if *name* is already used.
        """
        packet = Packet(name, source, target, computation_time, bits)
        if name in self._packets:
            raise GraphValidationError(
                f"packet name {name!r} already exists in CDCG {self.name!r}"
            )
        self._packets[name] = packet
        self._order.append(name)
        self._successors.setdefault(name, set())
        self._predecessors.setdefault(name, set())
        self._revision += 1
        return packet

    def add_dependence(self, predecessor: str, successor: str) -> None:
        """Declare that *successor* can only be injected after *predecessor*
        has been delivered.

        Both arguments are packet names.  ``START``/``END`` must not be passed
        explicitly; they are implied by the absence of predecessors or
        successors.
        """
        if predecessor in (START, END) or successor in (START, END):
            raise GraphValidationError(
                "Start/End vertices are implicit; do not add dependences on them"
            )
        if predecessor not in self._packets:
            raise GraphValidationError(
                f"unknown predecessor packet {predecessor!r} in CDCG {self.name!r}"
            )
        if successor not in self._packets:
            raise GraphValidationError(
                f"unknown successor packet {successor!r} in CDCG {self.name!r}"
            )
        if predecessor == successor:
            raise GraphValidationError(
                f"packet {predecessor!r} cannot depend on itself"
            )
        self._successors[predecessor].add(successor)
        self._predecessors[successor].add(predecessor)
        self._revision += 1

    def add_core(self, core: str) -> None:
        """Register a core that may not appear in any packet.

        Cores that never communicate still occupy a tile; registering them
        ensures :meth:`cores` (and therefore the derived CWG and the mapping
        search space) includes them.
        """
        if not core:
            raise GraphValidationError("core name must be a non-empty string")
        if core not in self._explicit_cores:
            self._explicit_cores.append(core)
            self._revision += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Counter incremented by :meth:`add_packet`, :meth:`add_dependence`
        and :meth:`add_core`.

        Caches derived from a CDCG (the replay scheduler's per-CDCG arrays)
        are keyed on the graph and this counter, so a graph that grows
        between two uses is read afresh.
        """
        return self._revision

    @property
    def packets(self) -> List[Packet]:
        """All packets in insertion order."""
        return [self._packets[name] for name in self._order]

    @property
    def num_packets(self) -> int:
        return len(self._packets)

    @property
    def num_dependences(self) -> int:
        return sum(len(succ) for succ in self._successors.values())

    def packet(self, name: str) -> Packet:
        """Look up a packet by name."""
        try:
            return self._packets[name]
        except KeyError as exc:
            raise GraphValidationError(
                f"no packet named {name!r} in CDCG {self.name!r}"
            ) from exc

    def has_packet(self, name: str) -> bool:
        return name in self._packets

    def cores(self) -> List[str]:
        """All cores referenced by packets (plus explicitly registered ones).

        Order is deterministic: explicit cores first (insertion order), then
        cores discovered from packets in packet insertion order.
        """
        seen: List[str] = []
        seen_set: Set[str] = set()
        for core in self._explicit_cores:
            if core not in seen_set:
                seen.append(core)
                seen_set.add(core)
        for name in self._order:
            packet = self._packets[name]
            for core in (packet.source, packet.target):
                if core not in seen_set:
                    seen.append(core)
                    seen_set.add(core)
        return seen

    @property
    def num_cores(self) -> int:
        return len(self.cores())

    def total_bits(self) -> int:
        """Total bit volume over all packets."""
        return sum(packet.bits for packet in self.packets)

    def successors(self, name: str) -> FrozenSet[str]:
        """Packets that directly depend on *name*."""
        self._require_packet(name)
        return frozenset(self._successors[name])

    def predecessors(self, name: str) -> FrozenSet[str]:
        """Packets that *name* directly depends on."""
        self._require_packet(name)
        return frozenset(self._predecessors[name])

    def initial_packets(self) -> List[Packet]:
        """Packets with no predecessors (implicitly pointed at by ``Start``)."""
        return [
            self._packets[name]
            for name in self._order
            if not self._predecessors[name]
        ]

    def final_packets(self) -> List[Packet]:
        """Packets with no successors (implicitly pointing at ``End``)."""
        return [
            self._packets[name]
            for name in self._order
            if not self._successors[name]
        ]

    def dependences(self) -> Iterator[Tuple[str, str]]:
        """Iterate over ``(predecessor, successor)`` packet-name pairs."""
        for name in self._order:
            for successor in sorted(self._successors[name]):
                yield (name, successor)

    def packets_between(self, source: str, target: str) -> List[Packet]:
        """The set ``P_ab``: all packets from core *source* to core *target*,
        in insertion order."""
        return [
            packet
            for packet in self.packets
            if packet.source == source and packet.target == target
        ]

    def flows(self) -> List[Tuple[str, str]]:
        """Distinct communicating core pairs, in first-appearance order."""
        seen: List[Tuple[str, str]] = []
        seen_set: Set[Tuple[str, str]] = set()
        for packet in self.packets:
            if packet.flow not in seen_set:
                seen.append(packet.flow)
                seen_set.add(packet.flow)
        return seen

    def _require_packet(self, name: str) -> None:
        if name not in self._packets:
            raise GraphValidationError(
                f"no packet named {name!r} in CDCG {self.name!r}"
            )

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Packet]:
        """Packets in a dependence-respecting order (Kahn's algorithm).

        Raises :class:`GraphValidationError` if the dependence relation has a
        cycle (such an application could never execute).
        Ties are broken by insertion order, so the result is deterministic.
        """
        in_degree = {name: len(self._predecessors[name]) for name in self._order}
        ready = [name for name in self._order if in_degree[name] == 0]
        result: List[Packet] = []
        position = {name: idx for idx, name in enumerate(self._order)}
        while ready:
            ready.sort(key=position.__getitem__)
            current = ready.pop(0)
            result.append(self._packets[current])
            for successor in self._successors[current]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(result) != len(self._order):
            raise GraphValidationError(
                f"CDCG {self.name!r} contains a dependence cycle"
            )
        return result

    def critical_path_time(self) -> float:
        """Lower bound on execution time: the longest chain of computation
        times through the dependence graph, ignoring all communication delay.

        Useful as a sanity check on scheduler results — the scheduled
        execution time can never be below this bound.
        """
        longest: Dict[str, float] = {}
        for packet in self.topological_order():
            preds = self._predecessors[packet.name]
            base = max((longest[p] for p in preds), default=0.0)
            longest[packet.name] = base + packet.computation_time
        return max(longest.values(), default=0.0)

    # ------------------------------------------------------------------
    # Validation and conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants of the CDCG.

        A valid CDCG has at least one packet, an acyclic dependence relation,
        and internally consistent adjacency maps.
        """
        if not self._packets:
            raise GraphValidationError(f"CDCG {self.name!r} has no packets")
        for name, successors in self._successors.items():
            if name not in self._packets:
                raise GraphValidationError(f"dangling successor map entry {name!r}")
            for successor in successors:
                if successor not in self._packets:
                    raise GraphValidationError(
                        f"dependence {name!r}->{successor!r} targets unknown packet"
                    )
                if name not in self._predecessors[successor]:
                    raise GraphValidationError(
                        f"inconsistent adjacency for dependence {name!r}->{successor!r}"
                    )
        # topological_order raises on cycles.
        self.topological_order()

    def content_hash(self) -> str:
        """Stable, order-independent digest of the graph's content.

        Keyed on the core list, the packet set (name, source, target,
        computation time, bits — the full 4-tuple of Definition 2 plus the
        identifying name) and the dependence set, all canonically sorted —
        two CDCGs built by inserting the same packets and dependences in any
        order hash equal, while changing a bit volume, a computation time, a
        dependence or a core changes the digest.  The workload half of the
        persistent result-store key (:mod:`repro.service.store`): everything
        a CDCM replay can observe is covered.
        """
        from repro.utils.hashing import stable_digest

        packets = sorted(
            (p.name, p.source, p.target, float(p.computation_time), p.bits)
            for p in self.packets
        )
        dependences = sorted(self.dependences())
        return stable_digest(
            ("cdcg", sorted(self.cores()), packets, dependences)
        )

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` including Start/End vertices.

        Packet vertices carry ``source``, ``target``, ``computation_time`` and
        ``bits`` attributes.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_node(START)
        graph.add_node(END)
        for packet in self.packets:
            graph.add_node(
                packet.name,
                source=packet.source,
                target=packet.target,
                computation_time=packet.computation_time,
                bits=packet.bits,
            )
        for pred, succ in self.dependences():
            graph.add_edge(pred, succ)
        for packet in self.initial_packets():
            graph.add_edge(START, packet.name)
        for packet in self.final_packets():
            graph.add_edge(packet.name, END)
        return graph

    def copy(self) -> "CDCG":
        """Return an independent deep copy."""
        clone = CDCG(self.name)
        for core in self._explicit_cores:
            clone.add_core(core)
        for packet in self.packets:
            clone.add_packet(
                packet.name,
                packet.source,
                packet.target,
                packet.computation_time,
                packet.bits,
            )
        for pred, succ in self.dependences():
            clone.add_dependence(pred, succ)
        return clone

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    def __contains__(self, name: str) -> bool:
        return name in self._packets

    def __repr__(self) -> str:
        return (
            f"CDCG(name={self.name!r}, cores={self.num_cores}, "
            f"packets={self.num_packets}, dependences={self.num_dependences}, "
            f"total_bits={self.total_bits()})"
        )


def chain_dependences(cdcg: CDCG, packet_names: Sequence[str]) -> None:
    """Add dependences forming a chain over *packet_names* in order.

    Convenience helper used by workload generators to express "these packets
    happen one after the other".
    """
    for pred, succ in zip(packet_names, packet_names[1:]):
        cdcg.add_dependence(pred, succ)


__all__ = ["CDCG", "Packet", "START", "END", "chain_dependences"]
