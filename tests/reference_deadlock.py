"""Reference deadlock gate: the dict-of-tuples CDG build and its DFS, kept as an oracle.

:func:`tree_dependency_graph`, the route walk of
:func:`channel_dependency_graph` and :func:`find_cycle` are copied verbatim
from :mod:`repro.noc.deadlock` as it was before the gate moved onto integer
channel keys and one DFS over a CSR.  Vertices are ``(from, to)`` tile
tuples, edges are Python sets, and the cycle search sorts roots and
successors as tuples.  The module does not import :mod:`repro.noc.deadlock`,
so ``tests/test_deadlock_oracle.py`` can require the library's graphs and
reports to equal these, witness included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.noc.routing import RoutingAlgorithm, next_hop_trees
from repro.noc.topology import Topology

#: A CDG vertex: one directed inter-router link, as a (from, to) tile pair.
Channel = Tuple[int, int]


def channel_dependency_graph(
    topology: Topology, routing: RoutingAlgorithm
) -> Dict[Channel, Set[Channel]]:
    """The CDG of *routing* over *topology*: closed form from trees, else walked."""
    rows = next_hop_trees(topology, routing)
    if rows is not None:
        return tree_dependency_graph(rows)
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


def tree_dependency_graph(
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


def report(topology: Topology, routing: RoutingAlgorithm) -> Tuple:
    """``(deadlock_free, num_channels, num_dependencies, cycle)`` of the reference."""
    graph = channel_dependency_graph(topology, routing)
    cycle = find_cycle(graph)
    return (
        not cycle,
        len(graph),
        sum(len(edges) for edges in graph.values()),
        cycle,
    )
