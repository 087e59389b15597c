"""Turn-model deadlock validation for deterministic routing functions.

Wormhole switching without virtual channels deadlocks whenever the *channel
dependency graph* (CDG) of the routing function contains a cycle (Dally &
Seitz): the CDG has one vertex per directed inter-router link, and an edge
``l1 -> l2`` whenever some route acquires ``l2`` while still holding ``l1``
(i.e. the two links are consecutive on a route).  A cycle means a set of
packets can each hold a link the next one needs — none can advance.

:func:`validate_deadlock_free` builds the CDG induced by a routing function
over a topology (all source/target pairs of the deterministic route set) and
rejects cycles, returning the offending link sequence as a counter-example.
A routing with a next-hop table gets the CDG in closed form from its
per-target trees; any other routing walks every pair's route.
This is the gate irregular and table-backed routings pass **before** any
contention model prices mappings on them:

* XY / YX on a (non-wrapping) mesh are deadlock-free — dimension order
  forbids the cyclic turns;
* the provided turn-model routings
  (:class:`~repro.noc.routing.WestFirstRouting`,
  :class:`~repro.noc.routing.NegativeFirstRouting`) are deadlock-free on
  any non-wrapping grid;
* XY on a torus, and BFS :class:`~repro.noc.routing.TableRouting` on cyclic
  fabrics, generally are **not** — the validator surfaces the wrap/cycle
  dependency loops explicitly instead of letting a schedule silently assume
  them away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.noc.routing import RoutingAlgorithm, next_hop_trees
from repro.noc.topology import Topology
from repro.utils.errors import ConfigurationError

#: A CDG vertex: one directed inter-router link, as a (from, to) tile pair.
Channel = Tuple[int, int]


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of a channel-dependency-graph analysis.

    Attributes
    ----------
    deadlock_free:
        True when the CDG is acyclic.
    num_channels:
        Number of directed links the route set uses (CDG vertices).
    num_dependencies:
        Number of distinct link-to-link dependencies (CDG edges).
    cycle:
        A witness cycle as an ordered link sequence (each link's head tile is
        the next link's tail); empty when the CDG is acyclic.
    """

    deadlock_free: bool
    num_channels: int
    num_dependencies: int
    cycle: Tuple[Channel, ...] = ()

    def __bool__(self) -> bool:
        """Truthiness mirrors :attr:`deadlock_free` (``if report:`` reads well)."""
        return self.deadlock_free

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.deadlock_free:
            return (
                f"deadlock-free: {self.num_channels} channels, "
                f"{self.num_dependencies} dependencies, acyclic CDG"
            )
        chain = " -> ".join(f"{a}->{b}" for a, b in self.cycle)
        return f"DEADLOCK: cyclic channel dependency {chain}"


def channel_dependency_graph(
    topology: Topology, routing: RoutingAlgorithm
) -> Dict[Channel, Set[Channel]]:
    """The CDG induced by *routing* over *topology*.

    Every ``(source, target)`` tile pair's route contributes its links as
    vertices and each consecutive link pair as a dependency edge.

    A routing with a next-hop table (:func:`~repro.noc.routing.next_hop_trees`)
    gets the closed form instead of a route walk per pair: with ``n_t(u)``
    the next hop from tile ``u`` towards target ``t``, the vertices are the
    links ``(u, n_t(u))`` for ``u != t`` and the edges run ``(u, n_t(u)) ->
    (n_t(u), n_t(n_t(u)))`` whenever ``n_t(u) != t`` — the same graph, from
    one lookup per table entry.

    Returns
    -------
    dict
        ``{link: set of links acquired immediately after it}`` — vertices
        with no outgoing dependency map to an empty set.
    """
    rows = next_hop_trees(topology, routing)
    if rows is not None:
        return _tree_dependency_graph(rows)
    graph: Dict[Channel, Set[Channel]] = {}
    for source in topology.tiles():
        for target in topology.tiles():
            if source == target:
                continue
            path = routing.route(topology, source, target)
            hops = list(zip(path, path[1:]))
            for link in hops:
                graph.setdefault(link, set())
            for held, wanted in zip(hops, hops[1:]):
                graph[held].add(wanted)
    return graph


def _tree_dependency_graph(
    rows: Sequence[Sequence[int]],
) -> Dict[Channel, Set[Channel]]:
    """The CDG of next-hop rows that are in-trees rooted at their targets."""
    graph: Dict[Channel, Set[Channel]] = {}
    for target, row in enumerate(rows):
        links = list(enumerate(row))  # links[u] is the link (u, n_t(u))
        for link in links:
            tile, hop = link
            if tile == target:
                continue
            wanted = graph.get(link)
            if wanted is None:
                wanted = graph[link] = set()
            if hop != target:
                wanted.add(links[hop])
    return graph


def find_cycle(graph: Dict[Channel, Set[Channel]]) -> Tuple[Channel, ...]:
    """A witness cycle of a dependency graph, or ``()`` when acyclic.

    Deterministic: vertices and edges are visited in sorted order, so the
    same graph always yields the same witness.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Channel, int] = {vertex: WHITE for vertex in graph}
    for root in sorted(graph):
        if colour[root] != WHITE:
            continue
        # Iterative DFS keeping the grey path on an explicit stack.
        stack: List[Tuple[Channel, List[Channel]]] = [(root, sorted(graph[root]))]
        colour[root] = GREY
        path = [root]
        while stack:
            vertex, pending = stack[-1]
            advanced = False
            while pending:
                successor = pending.pop(0)
                state = colour.get(successor, BLACK)
                if state == GREY:
                    return tuple(path[path.index(successor):])
                if state == WHITE:
                    colour[successor] = GREY
                    path.append(successor)
                    stack.append((successor, sorted(graph[successor])))
                    advanced = True
                    break
            if not advanced:
                colour[vertex] = BLACK
                path.pop()
                stack.pop()
    return ()


def validate_deadlock_free(
    topology: Topology,
    routing: RoutingAlgorithm,
    raise_on_cycle: bool = True,
) -> DeadlockReport:
    """Check that *routing* over *topology* cannot wormhole-deadlock.

    Builds the channel dependency graph of the full deterministic route set
    and searches it for cycles.  Use this as a gate before pricing mappings
    with the contention-aware CDCM scheduler on a new topology/routing
    combination — a cyclic CDG means the modelled network could stall in
    ways the scheduler does not represent.

    Parameters
    ----------
    topology:
        The fabric the routes run over.
    routing:
        The deterministic routing function under test.
    raise_on_cycle:
        Raise :class:`~repro.utils.errors.ConfigurationError` (carrying the
        witness cycle) instead of returning a failing report — the right
        default for construction-time gating; pass ``False`` to inspect the
        report programmatically.

    Returns
    -------
    DeadlockReport
        The analysis outcome (always deadlock-free when *raise_on_cycle* is
        left on, since a cycle raises instead).
    """
    graph = channel_dependency_graph(topology, routing)
    cycle = find_cycle(graph)
    report = DeadlockReport(
        deadlock_free=not cycle,
        num_channels=len(graph),
        num_dependencies=sum(len(edges) for edges in graph.values()),
        cycle=cycle,
    )
    if cycle and raise_on_cycle:
        raise ConfigurationError(
            f"routing {routing.name!r} over {topology} is not deadlock-free: "
            f"{report.describe()}"
        )
    return report


__all__ = [
    "Channel",
    "DeadlockReport",
    "channel_dependency_graph",
    "find_cycle",
    "validate_deadlock_free",
]
