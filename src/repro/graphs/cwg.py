"""Communication Weighted Graph (CWG) — Definition 1 of the paper.

A CWG is a directed graph ``<C, W>`` whose vertices are the application's IP
cores and whose edges carry the total number of bits exchanged between a pair
of cores over the whole application run.  It is the application model used by
communication weighted models (CWM) such as Hu & Marculescu's APCG and
Murali & De Micheli's core graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TYPE_CHECKING


from repro.utils.errors import GraphValidationError

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    import networkx as nx


@dataclass(frozen=True)
class Communication:
    """A single weighted edge of a CWG.

    Attributes
    ----------
    source, target:
        Names of the communicating cores.
    bits:
        Total number of bits sent from *source* to *target* over the whole
        application execution (the paper's ``w_ab``).
    """

    source: str
    target: str
    bits: int

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise GraphValidationError(
                f"self communication {self.source}->{self.target} is not allowed"
            )
        if self.bits <= 0:
            raise GraphValidationError(
                f"communication {self.source}->{self.target} must carry a positive "
                f"number of bits, got {self.bits}"
            )


class CWG:
    """Communication weighted graph of an application.

    Parameters
    ----------
    name:
        Human-readable application name (used in reports and tables).

    Examples
    --------
    >>> cwg = CWG("example")
    >>> cwg.add_core("A")
    >>> cwg.add_core("B")
    >>> cwg.add_communication("A", "B", 15)
    >>> cwg.weight("A", "B")
    15
    """

    def __init__(self, name: str = "application") -> None:
        self.name = name
        self._cores: List[str] = []
        self._core_set: set[str] = set()
        # adjacency: source -> {target: bits}
        self._edges: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_core(self, core: str) -> None:
        """Register a core.  Adding an existing core is a no-op."""
        if not core:
            raise GraphValidationError("core name must be a non-empty string")
        if core in self._core_set:
            return
        self._cores.append(core)
        self._core_set.add(core)
        self._edges.setdefault(core, {})

    def add_communication(self, source: str, target: str, bits: int) -> None:
        """Add (or accumulate onto) the edge ``source -> target``.

        Calling this twice for the same pair accumulates the bit volumes,
        which matches how a CWG is extracted from a packet trace: the edge
        weight is the *total* volume of all packets between the two cores.
        """
        edge = Communication(source, target, bits)
        self.add_core(source)
        self.add_core(target)
        current = self._edges[source].get(target, 0)
        self._edges[source][target] = current + edge.bits

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def cores(self) -> List[str]:
        """Cores in insertion order."""
        return list(self._cores)

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def num_communications(self) -> int:
        return sum(len(targets) for targets in self._edges.values())

    def has_core(self, core: str) -> bool:
        return core in self._core_set

    def has_communication(self, source: str, target: str) -> bool:
        return target in self._edges.get(source, {})

    def weight(self, source: str, target: str) -> int:
        """Bit volume of the edge ``source -> target``.

        Raises :class:`GraphValidationError` if the edge does not exist.
        """
        try:
            return self._edges[source][target]
        except KeyError as exc:
            raise GraphValidationError(
                f"no communication from {source!r} to {target!r} in CWG {self.name!r}"
            ) from exc

    def communications(self) -> Iterator[Communication]:
        """Iterate over all edges as :class:`Communication` records."""
        for source in self._cores:
            for target, bits in self._edges.get(source, {}).items():
                yield Communication(source, target, bits)

    def total_bits(self) -> int:
        """Total communication volume of the application, in bits."""
        return sum(comm.bits for comm in self.communications())

    def out_volume(self, core: str) -> int:
        """Total bits sent by *core*."""
        self._require_core(core)
        return sum(self._edges.get(core, {}).values())

    def in_volume(self, core: str) -> int:
        """Total bits received by *core*."""
        self._require_core(core)
        return sum(
            targets.get(core, 0) for targets in self._edges.values()
        )

    def neighbours(self, core: str) -> List[str]:
        """Cores that *core* communicates with, in either direction."""
        self._require_core(core)
        outgoing = set(self._edges.get(core, {}))
        incoming = {src for src, targets in self._edges.items() if core in targets}
        return sorted(outgoing | incoming)

    def _require_core(self, core: str) -> None:
        if core not in self._core_set:
            raise GraphValidationError(
                f"core {core!r} is not part of CWG {self.name!r}"
            )

    # ------------------------------------------------------------------
    # Validation and conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants, raising :class:`GraphValidationError`.

        A valid CWG has at least one core, every edge endpoint registered as a
        core, and strictly positive edge weights.  Construction already
        enforces most of this; :meth:`validate` exists so that graphs built by
        deserialisation or external code can be checked in one call.
        """
        if not self._cores:
            raise GraphValidationError(f"CWG {self.name!r} has no cores")
        for source, targets in self._edges.items():
            if source not in self._core_set:
                raise GraphValidationError(
                    f"edge source {source!r} is not a registered core"
                )
            for target, bits in targets.items():
                if target not in self._core_set:
                    raise GraphValidationError(
                        f"edge target {target!r} is not a registered core"
                    )
                if source == target:
                    raise GraphValidationError(
                        f"self communication on core {source!r}"
                    )
                if bits <= 0:
                    raise GraphValidationError(
                        f"non-positive weight on {source!r}->{target!r}: {bits}"
                    )

    def content_hash(self) -> str:
        """Stable, order-independent digest of the graph's content.

        Keyed on the core set and the ``(source, target, bits)`` edge set,
        both canonically sorted — two CWGs built by adding the same edges in
        any order (or carrying different display names) hash equal, while
        changing a single bit volume, edge or core changes the digest.  This
        is the workload half of the persistent result-store key
        (:mod:`repro.service.store`): everything that can influence a CWM
        price is covered, nothing that cannot (names, insertion order) is.
        """
        from repro.utils.hashing import stable_digest

        edges = sorted(
            (comm.source, comm.target, comm.bits)
            for comm in self.communications()
        )
        return stable_digest(("cwg", sorted(self._core_set), edges))

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph` with ``bits`` edge attributes."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self._cores)
        for comm in self.communications():
            graph.add_edge(comm.source, comm.target, bits=comm.bits)
        return graph

    def copy(self) -> "CWG":
        """Return an independent deep copy of this graph."""
        clone = CWG(self.name)
        for core in self._cores:
            clone.add_core(core)
        for comm in self.communications():
            clone.add_communication(comm.source, comm.target, comm.bits)
        return clone

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, core: str) -> bool:
        return core in self._core_set

    def __len__(self) -> int:
        return len(self._cores)

    def __repr__(self) -> str:
        return (
            f"CWG(name={self.name!r}, cores={self.num_cores}, "
            f"communications={self.num_communications}, total_bits={self.total_bits()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CWG):
            return NotImplemented
        return (
            set(self._cores) == set(other._cores)
            and {
                (c.source, c.target, c.bits) for c in self.communications()
            }
            == {(c.source, c.target, c.bits) for c in other.communications()}
        )

    def __hash__(self) -> int:  # pragma: no cover - CWGs are mutable
        raise TypeError("CWG objects are mutable and unhashable")


def cwg_from_edges(
    name: str, edges: Iterable[Tuple[str, str, int]], cores: Optional[Iterable[str]] = None
) -> CWG:
    """Convenience constructor building a CWG from ``(source, target, bits)`` triples.

    Parameters
    ----------
    name:
        Application name.
    edges:
        Iterable of ``(source, target, bits)``.
    cores:
        Optional iterable of core names to register even if isolated (a core
        that never communicates still has to be placed on a tile).
    """
    cwg = CWG(name)
    if cores is not None:
        for core in cores:
            cwg.add_core(core)
    for source, target, bits in edges:
        cwg.add_communication(source, target, bits)
    return cwg


__all__ = ["CWG", "Communication", "cwg_from_edges"]
