"""Communication Resource Graph (CRG) — Definition 3 of the paper.

A CRG is a directed graph ``<T, L>`` whose vertices are the tiles (each tile
hosting one router plus one IP core slot) of the target NoC and whose edges
are the physical point-to-point links between routers.  It is equivalent to
Hu & Marculescu's architecture characterisation graph and to Murali &
De Micheli's NoC topology graph.

The CRG is a pure structural description: it knows nothing about routing,
timing or energy.  The mesh constructor, routing functions and resource
reservation machinery live in :mod:`repro.noc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TYPE_CHECKING


from repro.utils.errors import GraphValidationError

if TYPE_CHECKING:  # pragma: no cover - import only used by type checkers
    import networkx as nx


@dataclass(frozen=True)
class Tile:
    """A CRG vertex: one tile of the NoC.

    Attributes
    ----------
    index:
        Dense integer identifier, ``0 .. n-1``.
    x, y:
        Grid coordinates for mesh-like topologies.  Topologies without a
        natural grid embedding may set both to ``index`` and 0.
    """

    index: int
    x: int
    y: int

    @property
    def name(self) -> str:
        """Human-readable tile name, e.g. ``"tau3"`` for tile index 3."""
        return f"tau{self.index}"

    @property
    def position(self) -> Tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Link:
    """A CRG edge: a unidirectional physical link between two routers.

    Attributes
    ----------
    source, target:
        Tile indices of the link endpoints.
    orientation:
        ``"horizontal"`` or ``"vertical"``; used by the energy model to pick
        between ``ELHbit`` and ``ELVbit`` (identical for square tiles, but the
        distinction is kept so rectangular tiles can be modelled).
    """

    source: int
    target: int
    orientation: str = "horizontal"

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise GraphValidationError(
                f"link endpoints must differ, got {self.source}->{self.target}"
            )
        if self.orientation not in ("horizontal", "vertical"):
            raise GraphValidationError(
                f"link orientation must be 'horizontal' or 'vertical', "
                f"got {self.orientation!r}"
            )

    @property
    def key(self) -> Tuple[int, int]:
        return (self.source, self.target)


class CRG:
    """Communication resource graph of a NoC platform.

    Tiles are added with :meth:`add_tile`, links with :meth:`add_link`.  Most
    users never build a CRG by hand; :func:`repro.noc.topology.build_mesh_crg`
    constructs the regular 2D-mesh CRG used throughout the paper.
    """

    def __init__(self, name: str = "noc") -> None:
        self.name = name
        self._tiles: Dict[int, Tile] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._out_links: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tile(self, index: int, x: int, y: int) -> Tile:
        """Register a tile.  Tile indices must be unique."""
        if index < 0:
            raise GraphValidationError(f"tile index must be non-negative, got {index}")
        if index in self._tiles:
            raise GraphValidationError(f"tile index {index} already exists")
        tile = Tile(index, x, y)
        self._tiles[index] = tile
        self._out_links.setdefault(index, [])
        return tile

    def add_link(self, source: int, target: int, orientation: str = "horizontal") -> Link:
        """Register a unidirectional link between two existing tiles."""
        if source not in self._tiles:
            raise GraphValidationError(f"link source tile {source} does not exist")
        if target not in self._tiles:
            raise GraphValidationError(f"link target tile {target} does not exist")
        link = Link(source, target, orientation)
        if link.key in self._links:
            raise GraphValidationError(f"link {source}->{target} already exists")
        self._links[link.key] = link
        self._out_links[source].append(target)
        return link

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def tiles(self) -> List[Tile]:
        """Tiles sorted by index."""
        return [self._tiles[idx] for idx in sorted(self._tiles)]

    @property
    def num_tiles(self) -> int:
        return len(self._tiles)

    @property
    def links(self) -> List[Link]:
        """Links sorted by ``(source, target)``."""
        return [self._links[key] for key in sorted(self._links)]

    @property
    def num_links(self) -> int:
        return len(self._links)

    def tile(self, index: int) -> Tile:
        try:
            return self._tiles[index]
        except KeyError as exc:
            raise GraphValidationError(
                f"no tile with index {index} in CRG {self.name!r}"
            ) from exc

    def has_tile(self, index: int) -> bool:
        return index in self._tiles

    def link(self, source: int, target: int) -> Link:
        try:
            return self._links[(source, target)]
        except KeyError as exc:
            raise GraphValidationError(
                f"no link {source}->{target} in CRG {self.name!r}"
            ) from exc

    def has_link(self, source: int, target: int) -> bool:
        return (source, target) in self._links

    def neighbours(self, index: int) -> List[int]:
        """Tiles reachable from *index* through one link, sorted."""
        if index not in self._tiles:
            raise GraphValidationError(f"no tile with index {index}")
        return sorted(self._out_links[index])

    def tile_at(self, x: int, y: int) -> Tile:
        """Look up a tile by its grid coordinates."""
        for tile in self._tiles.values():
            if tile.x == x and tile.y == y:
                return tile
        raise GraphValidationError(f"no tile at position ({x}, {y})")

    # ------------------------------------------------------------------
    # Validation and conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants.

        A valid CRG has at least one tile, unique tile positions, link
        endpoints that exist, and (when it has more than one tile) weak
        connectivity so every core can reach every other core.
        """
        if not self._tiles:
            raise GraphValidationError(f"CRG {self.name!r} has no tiles")
        positions = [tile.position for tile in self._tiles.values()]
        if len(set(positions)) != len(positions):
            raise GraphValidationError(
                f"CRG {self.name!r} has tiles sharing the same position"
            )
        for (source, target) in self._links:
            if source not in self._tiles or target not in self._tiles:
                raise GraphValidationError(
                    f"link {source}->{target} references a missing tile"
                )
        if self.num_tiles > 1:
            # Breadth-first search over the links taken as undirected.
            neighbours: Dict[int, List[int]] = {index: [] for index in self._tiles}
            for source, target in self._links:
                neighbours[source].append(target)
                neighbours[target].append(source)
            reached = {next(iter(self._tiles))}
            frontier = list(reached)
            while frontier:
                for neighbour in neighbours[frontier.pop()]:
                    if neighbour not in reached:
                        reached.add(neighbour)
                        frontier.append(neighbour)
            if len(reached) != self.num_tiles:
                raise GraphValidationError(
                    f"CRG {self.name!r} is not connected; some tiles are unreachable"
                )

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph`.

        Tile vertices carry ``x``/``y`` attributes; link edges carry their
        ``orientation``.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for tile in self.tiles:
            graph.add_node(tile.index, x=tile.x, y=tile.y)
        for link in self.links:
            graph.add_edge(link.source, link.target, orientation=link.orientation)
        return graph

    def copy(self) -> "CRG":
        clone = CRG(self.name)
        for tile in self.tiles:
            clone.add_tile(tile.index, tile.x, tile.y)
        for link in self.links:
            clone.add_link(link.source, link.target, link.orientation)
        return clone

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tiles)

    def __contains__(self, index: int) -> bool:
        return index in self._tiles

    def __repr__(self) -> str:
        return f"CRG(name={self.name!r}, tiles={self.num_tiles}, links={self.num_links})"


__all__ = ["CRG", "Tile", "Link"]
