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
The graph stays integer from build to witness: on a ``T``-tile fabric,
channel ``(u, v)`` is the key ``u * T + v``, which sorts exactly like the
tuple.  One builder turns a routing's dependencies into the sorted keys and
a CSR of deduplicated successor ids.  A routing with a next-hop table gets
them in closed form from its per-target trees, in a few whole-array NumPy
passes, reading the rows as one array
(:meth:`~repro.noc.routing.RoutingAlgorithm.next_hop_array`, which a
synthesized routing keeps rather than converts); any other routing walks
every pair's route and feeds the walked links to the same builder.  One
depth-first search over the CSR, roots and successors in key order,
returns the witness.
:func:`channel_dependency_graph` and :func:`find_cycle` are dict-of-tuples
views over the same code.

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
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.noc.routing import RoutingAlgorithm, next_hop_trees, tree_depths
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
    one lookup per table entry.  A walked route that leaves the tiles raises
    :class:`~repro.utils.errors.ConfigurationError` naming its pair.

    Returns
    -------
    dict
        ``{link: set of links acquired immediately after it}`` — vertices
        with no outgoing dependency map to an empty set.  A view of the
        integer graph :func:`validate_deadlock_free` searches.
    """
    tiles, keys, indptr, successors = _dependency_csr(topology, routing)
    channels = [divmod(key, tiles) for key in keys.tolist()]
    bounds = indptr.tolist()
    after = successors.tolist()
    return {
        channel: {channels[vertex] for vertex in after[bounds[i] : bounds[i + 1]]}
        for i, channel in enumerate(channels)
    }


def _dependency_csr(
    topology: Topology, routing: RoutingAlgorithm
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The CDG of *routing* over *topology* as ``(tiles, keys, indptr, successors)``.

    Channel ``(u, v)`` is the key ``u * tiles + v``.  Vertex ``i`` is the
    channel ``keys[i]`` (ascending), and its successors are the vertex ids
    ``successors[indptr[i]:indptr[i + 1]]`` (ascending, each once).
    """
    hops = routing.next_hop_array(topology)
    if hops is None:
        return _walked_cdg(topology, routing)
    if tree_depths(hops) is None:
        next_hop_trees(topology, routing)  # raises the route walk's error
    return _tree_cdg(hops)


def _tree_cdg(hops: np.ndarray) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The CDG of next-hop rows ``hops[t, u]`` that are in-trees rooted at ``t``."""
    tiles = len(hops)
    index = np.arange(tiles, dtype=np.int64)
    targets = index[:, None]
    hops = np.where(index == targets, targets, hops)  # no walk reads the diagonal
    links = index * tiles + hops  # links[t, u]: the key of link (u, n_t(u))
    after = np.take_along_axis(links, hops, axis=1)  # links[t, n_t(u)]
    going = hops != targets  # the link's head is not the target
    return tiles, *_csr(tiles, links[index != targets], links[going], after[going])


def _walked_cdg(
    topology: Topology, routing: RoutingAlgorithm
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The CDG of every pair's walked route, pair by pair in source-major order."""
    tiles = topology.num_tiles
    links: List[int] = []
    held: List[int] = []
    wanted: List[int] = []
    for source in topology.tiles():
        for target in topology.tiles():
            if source == target:
                continue
            path = routing.route(topology, source, target)
            if path and not (0 <= min(path) and max(path) < tiles):
                raise ConfigurationError(
                    f"{routing!r} routes tile {source} to tile {target} along "
                    f"{list(path)}, which leaves the {tiles} tiles of {topology}"
                )
            chain = [tail * tiles + head for tail, head in zip(path, path[1:])]
            links += chain
            held += chain[:-1]
            wanted += chain[1:]
    arrays = (np.array(keys, dtype=np.int64) for keys in (links, held, wanted))
    return tiles, *_csr(tiles, *arrays)


def _csr(
    tiles: int, links: np.ndarray, held: np.ndarray, wanted: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, indptr, successors)`` of channel keys and ``held -> wanted`` edges.

    *links* lists every vertex, repeats allowed; *held* and *wanted* are
    vertices too, and each wanted link leaves the head of its held one.
    Dense marks order and deduplicate both without a sort: ``np.sort``
    and ``np.unique`` (which imports ``numpy.ma``) cost peak memory.
    """
    marked = np.zeros(tiles * tiles, dtype=bool)
    marked[links] = True
    keys = np.flatnonzero(marked)
    vertex = np.zeros(tiles * tiles, dtype=np.int64)
    vertex[keys] = np.arange(keys.size)  # vertex[key] is the key's vertex id
    # Edge (u, v) -> (v, w) is marked at (vertex of (u, v), w).
    marked = np.zeros(keys.size * tiles, dtype=bool)
    marked[vertex[held] * tiles + wanted % tiles] = True
    tails, heads = np.divmod(np.flatnonzero(marked), tiles)
    indptr = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=keys.size), out=indptr[1:])
    return keys, indptr, vertex[keys[tails] % tiles * tiles + heads]


def _first_cycle(indptr: List[int], successors: List[int]) -> List[int]:
    """The vertex ids of the first cycle a DFS meets, or ``[]`` when acyclic.

    Roots, and each vertex's successors, are visited in id order; a
    successor already on the path closes the cycle, which runs from it to
    the path's end.
    """
    state = bytearray(len(indptr) - 1)  # 0 unvisited, 1 on the path, 2 done
    for root in range(len(state)):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        cursors = [indptr[root]]  # the next successor to try, per path vertex
        while path:
            vertex = path[-1]
            cursor, end = cursors[-1], indptr[vertex + 1]
            while cursor < end:
                successor = successors[cursor]
                cursor += 1
                if state[successor] == 1:
                    return path[path.index(successor) :]
                if not state[successor]:
                    break
            else:
                state[vertex] = 2
                path.pop()
                cursors.pop()
                continue
            cursors[-1] = cursor
            state[successor] = 1
            path.append(successor)
            cursors.append(indptr[successor])
    return []


def find_cycle(graph: Dict[Channel, Set[Channel]]) -> Tuple[Channel, ...]:
    """A witness cycle of a dependency graph, or ``()`` when acyclic.

    Deterministic: vertices and edges are visited in sorted order, so the
    same graph always yields the same witness.  Successors that are not
    vertices of *graph* are skipped.
    """
    order = sorted(graph)
    ids = {vertex: i for i, vertex in enumerate(order)}
    indptr = [0]
    successors: List[int] = []
    for vertex in order:
        successors += [ids[then] for then in sorted(graph[vertex]) if then in ids]
        indptr.append(len(successors))
    return tuple(order[i] for i in _first_cycle(indptr, successors))


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
    tiles, keys, indptr, successors = _dependency_csr(topology, routing)
    channels = keys.tolist()
    cycle = tuple(
        divmod(channels[vertex], tiles)
        for vertex in _first_cycle(indptr.tolist(), successors.tolist())
    )
    report = DeadlockReport(
        deadlock_free=not cycle,
        num_channels=len(channels),
        num_dependencies=len(successors),
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
