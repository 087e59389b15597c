"""NoC topologies — the pluggable :class:`Topology` protocol and its instances.

The paper evaluates mappings on regular 2D-mesh NoCs (Definition 3 fixes the
number of tiles to the product of the two mesh dimensions) but notes that
other topologies "can be equally treated".  This module makes that claim
first-class: every consumer of the platform layer (routing functions, route
tables, schedulers, search engines) talks to a :class:`Topology` — an object
exposing tiles, adjacency, a CRG view, wrap capability flags and a stable
``cache_token`` — instead of assuming a mesh.

Three topologies ship:

* :class:`Mesh` — the paper's ``width x height`` 2D mesh;
* :class:`Torus` — the mesh with wrap-around links (``wraps_x`` /
  ``wraps_y`` both True, which is how the dimension-ordered routings decide
  to take the shorter way around — no ``isinstance`` checks);
* :class:`IrregularTopology` — an arbitrary tile graph built from an edge
  list or an existing :class:`~repro.graphs.crg.CRG`, routed by the
  table-backed :class:`~repro.noc.routing.TableRouting`.

Topologies are also *registry-addressable*: :func:`get_topology` resolves
spec strings like ``"mesh:4x4"`` or ``"torus:3x3"``, and
:func:`register_topology` installs custom factories under new spec names —
the same configuration-by-name pattern as the routing and search registries.

Tile numbering is row-major for the grid topologies: tile
``index = y * width + x``, with ``x`` growing to the right and ``y`` growing
downwards.  For the paper's 2x2 example this puts tiles tau0/tau1 on the top
row and tau2/tau3 on the bottom row, matching Figure 1(c, d).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.graphs.crg import CRG
from repro.utils.errors import ConfigurationError


class Topology(ABC):
    """Protocol every NoC topology implements.

    A topology is a *structural* description: which tiles exist, which tiles
    are linked, and two capability flags the dimension-ordered routings use
    to decide whether an axis wraps around.  Everything dynamic (routing,
    timing, energy) consumes topologies through this interface, so meshes,
    tori and irregular fabrics are interchangeable everywhere a
    :class:`~repro.noc.platform.Platform` is accepted.

    Implementations must be immutable, hashable and picklable — route tables
    are shared process-wide keyed by :attr:`cache_token`, and parallel
    pricing ships topologies (inside platforms) across process boundaries.
    """

    #: Whether the X axis wraps around (torus-like).  The dimension-ordered
    #: routings consult this flag — never ``isinstance`` — so a custom
    #: wrap-capable topology routes correctly without subclassing Torus.
    wraps_x: ClassVar[bool] = False

    #: Whether the Y axis wraps around (torus-like).
    wraps_y: ClassVar[bool] = False

    @property
    @abstractmethod
    def num_tiles(self) -> int:
        """Total number of tiles, ``n``."""

    @abstractmethod
    def neighbours(self, index: int) -> List[int]:
        """Tiles reachable from tile *index* through one link.

        The order is part of the topology's contract: deterministic routing
        tables (:class:`~repro.noc.routing.TableRouting`) break shortest-path
        ties by first match in this list.
        """

    @abstractmethod
    def to_crg(self, name: Optional[str] = None) -> CRG:
        """The communication resource graph of this topology (Definition 3)."""

    @property
    @abstractmethod
    def cache_token(self) -> Tuple:
        """Stable, hashable identity used to key shared route tables.

        Two topology objects with equal tokens must produce identical
        adjacency (and therefore identical routes under any deterministic
        routing), because :func:`repro.eval.route_table.get_route_table`
        shares one table per token.  Tokens embed the concrete class, so a
        subclass that changes behaviour (e.g. a wrapping mesh) never aliases
        its parent's tables.
        """

    def tiles(self) -> Iterator[int]:
        """All tile indices, ``0 .. num_tiles - 1``."""
        return iter(range(self.num_tiles))

    def contains(self, index: int) -> bool:
        """Whether *index* is a valid tile index of this topology."""
        return 0 <= index < self.num_tiles

    def links(self) -> List[Tuple[int, int]]:
        """All directed links as ``(source, target)`` tile pairs, sorted."""
        return sorted(
            (index, neighbour)
            for index in self.tiles()
            for neighbour in self.neighbours(index)
        )


@dataclass(frozen=True)
class Mesh(Topology):
    """A ``width x height`` 2D-mesh NoC.

    Attributes
    ----------
    width:
        Number of tiles along the X axis.
    height:
        Number of tiles along the Y axis.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"mesh dimensions must be positive, got {self.width}x{self.height}"
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Total number of tiles, ``n = width * height``."""
        return self.width * self.height

    def index_of(self, x: int, y: int) -> int:
        """Tile index of grid position ``(x, y)``."""
        self._check_position(x, y)
        return y * self.width + x

    def position_of(self, index: int) -> Tuple[int, int]:
        """Grid position ``(x, y)`` of tile *index*."""
        self._check_index(index)
        return (index % self.width, index // self.width)

    def neighbours(self, index: int) -> List[int]:
        """Indices of the mesh neighbours of tile *index* (2 to 4 tiles).

        X-axis neighbours come first (west, east, then north, south) — the
        tie-break order that makes table-backed shortest-path routing
        reproduce XY routes exactly.
        """
        x, y = self.position_of(index)
        result = []
        if x > 0:
            result.append(self.index_of(x - 1, y))
        if x < self.width - 1:
            result.append(self.index_of(x + 1, y))
        if y > 0:
            result.append(self.index_of(x, y - 1))
        if y < self.height - 1:
            result.append(self.index_of(x, y + 1))
        return result

    def manhattan_distance(self, source: int, target: int) -> int:
        """Hop distance between two tiles along a minimal mesh path."""
        sx, sy = self.position_of(source)
        tx, ty = self.position_of(target)
        return abs(sx - tx) + abs(sy - ty)

    @property
    def cache_token(self) -> Tuple:
        """Class identity + dimensions + wrap flags (see :class:`Topology`)."""
        cls = type(self)
        return (
            cls.__module__,
            cls.__qualname__,
            self.width,
            self.height,
            self.wraps_x,
            self.wraps_y,
        )

    def _check_position(self, x: int, y: int) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigurationError(
                f"position ({x}, {y}) outside {self.width}x{self.height} mesh"
            )

    def _check_index(self, index: int) -> None:
        if not self.contains(index):
            raise ConfigurationError(
                f"tile index {index} outside {self.width}x{self.height} mesh "
                f"(valid range 0..{self.num_tiles - 1})"
            )

    # ------------------------------------------------------------------
    # CRG construction
    # ------------------------------------------------------------------
    def to_crg(self, name: Optional[str] = None) -> CRG:
        """Build the communication resource graph of this mesh.

        Each pair of adjacent tiles is connected by two unidirectional links
        (one per direction), labelled horizontal or vertical.
        """
        crg = CRG(name or f"mesh_{self.width}x{self.height}")
        for index in self.tiles():
            x, y = self.position_of(index)
            crg.add_tile(index, x, y)
        for index in self.tiles():
            x, y = self.position_of(index)
            if x < self.width - 1:
                east = self.index_of(x + 1, y)
                crg.add_link(index, east, "horizontal")
                crg.add_link(east, index, "horizontal")
            if y < self.height - 1:
                south = self.index_of(x, y + 1)
                crg.add_link(index, south, "vertical")
                crg.add_link(south, index, "vertical")
        return crg

    def __str__(self) -> str:
        return f"{self.width}x{self.height} mesh"


@dataclass(frozen=True)
class Torus(Mesh):
    """A 2D torus: a mesh with wrap-around links.

    Declares ``wraps_x = wraps_y = True``, which is all the dimension-ordered
    routings in :mod:`repro.noc.routing` need to take the shorter of the two
    directions along each axis.
    """

    wraps_x: ClassVar[bool] = True
    wraps_y: ClassVar[bool] = True

    def neighbours(self, index: int) -> List[int]:
        """The four wrap-aware neighbours (fewer on 1- or 2-wide axes), sorted."""
        x, y = self.position_of(index)
        result = {
            self.index_of((x - 1) % self.width, y),
            self.index_of((x + 1) % self.width, y),
            self.index_of(x, (y - 1) % self.height),
            self.index_of(x, (y + 1) % self.height),
        }
        result.discard(index)
        return sorted(result)

    def manhattan_distance(self, source: int, target: int) -> int:
        """Wrap-aware hop distance between two tiles."""
        sx, sy = self.position_of(source)
        tx, ty = self.position_of(target)
        dx = abs(sx - tx)
        dy = abs(sy - ty)
        return min(dx, self.width - dx) + min(dy, self.height - dy)

    def to_crg(self, name: Optional[str] = None) -> CRG:
        """Build the torus CRG (mesh links plus the wrap-around links)."""
        crg = CRG(name or f"torus_{self.width}x{self.height}")
        for index in self.tiles():
            x, y = self.position_of(index)
            crg.add_tile(index, x, y)
        seen = set()
        for index in self.tiles():
            for neighbour in self.neighbours(index):
                if (index, neighbour) in seen:
                    continue
                ix, iy = self.position_of(index)
                nx_, ny_ = self.position_of(neighbour)
                orientation = "horizontal" if iy == ny_ else "vertical"
                crg.add_link(index, neighbour, orientation)
                seen.add((index, neighbour))
        return crg

    def __str__(self) -> str:
        return f"{self.width}x{self.height} torus"


class IrregularTopology(Topology):
    """An arbitrary tile graph, built from an edge list or a CRG.

    The general case of the paper's "can be equally treated" remark: any
    connected directed tile graph is a valid NoC substrate once a routing
    function exists for it — which the table-backed
    :class:`~repro.noc.routing.TableRouting` (deterministic BFS shortest
    paths) provides for free.

    Instances are immutable, hashable (by :attr:`cache_token`) and
    picklable, so irregular platforms travel through the process-pool
    pricing backend exactly like meshes.

    Parameters
    ----------
    edges:
        ``(source, target)`` tile pairs.  With ``bidirectional=True`` (the
        default, matching the two-unidirectional-links-per-adjacency
        convention of the mesh CRG) each pair also installs the reverse
        link.
    num_tiles:
        Total tile count; defaults to ``max(endpoint) + 1``.  Tiles not
        named by any edge are rejected by validation (the fabric would be
        disconnected).
    name:
        Label used by ``str()`` and the default CRG name.
    bidirectional:
        Install the reverse of every edge too.
    positions:
        Optional ``{tile: (x, y)}`` grid embedding used for the CRG export
        (purely cosmetic — routing never consults it); tiles default to the
        degenerate embedding ``(index, 0)``.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        num_tiles: Optional[int] = None,
        name: str = "irregular",
        bidirectional: bool = True,
        positions: Optional[Dict[int, Tuple[int, int]]] = None,
    ) -> None:
        directed = set()
        for source, target in edges:
            if source == target:
                raise ConfigurationError(
                    f"irregular topology edge endpoints must differ, "
                    f"got {source}->{target}"
                )
            if source < 0 or target < 0:
                raise ConfigurationError(
                    f"tile indices must be non-negative, got {source}->{target}"
                )
            directed.add((source, target))
            if bidirectional:
                directed.add((target, source))
        if not directed:
            raise ConfigurationError("irregular topology needs at least one edge")
        highest = max(max(source, target) for source, target in directed)
        resolved = highest + 1 if num_tiles is None else num_tiles
        if resolved <= highest:
            raise ConfigurationError(
                f"num_tiles={resolved} but edges reference tile {highest}"
            )
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(directed))
        self._num_tiles = resolved
        self.name = name
        self._positions = dict(positions) if positions else None
        out: Dict[int, List[int]] = {}
        for source, target in self._edges:
            out.setdefault(source, []).append(target)
        self._out = {source: sorted(targets) for source, targets in out.items()}
        self._validate_connected()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_crg(cls, crg: CRG, name: Optional[str] = None) -> "IrregularTopology":
        """Topology over an existing CRG (e.g. one loaded from JSON).

        The CRG's directed links become the topology's edges verbatim
        (``bidirectional=False`` — the CRG already lists both directions
        where they exist) and its tile positions are preserved for the
        round-trip back through :meth:`to_crg`.
        """
        crg.validate()
        indices = [tile.index for tile in crg.tiles]
        if indices != list(range(len(indices))):
            raise ConfigurationError(
                f"CRG {crg.name!r} tile indices must be dense 0..n-1 to serve "
                f"as a topology, got {indices}"
            )
        return cls(
            [(link.source, link.target) for link in crg.links],
            num_tiles=crg.num_tiles,
            name=name or crg.name,
            bidirectional=False,
            positions={tile.index: tile.position for tile in crg.tiles},
        )

    # ------------------------------------------------------------------
    # Topology protocol
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Total number of tiles."""
        return self._num_tiles

    def neighbours(self, index: int) -> List[int]:
        """Out-neighbours of tile *index*, sorted ascending."""
        if not self.contains(index):
            raise ConfigurationError(
                f"tile index {index} outside {self} "
                f"(valid range 0..{self._num_tiles - 1})"
            )
        return list(self._out.get(index, ()))

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All directed edges, sorted (the defining edge set)."""
        return self._edges

    def to_crg(self, name: Optional[str] = None) -> CRG:
        """Export the topology as a CRG (positions preserved when known)."""
        crg = CRG(name or self.name)
        for index in self.tiles():
            if self._positions is not None and index in self._positions:
                x, y = self._positions[index]
            else:
                x, y = index, 0
            crg.add_tile(index, x, y)
        for source, target in self._edges:
            crg.add_link(source, target)
        return crg

    @property
    def cache_token(self) -> Tuple:
        """Class identity + tile count + the sorted directed edge set."""
        cls = type(self)
        return (cls.__module__, cls.__qualname__, self._num_tiles, self._edges)

    # ------------------------------------------------------------------
    def _validate_connected(self) -> None:
        """Strong connectivity: every tile must reach every other tile.

        Checked over the *directed* edges (tile 0 must reach everything and
        everything must reach tile 0 — which composes to any-pair
        reachability), so a one-way fabric whose routes cannot exist fails
        here, at construction, instead of deep inside routing or pricing.
        """
        incoming: Dict[int, set] = {index: set() for index in self.tiles()}
        for source, target in self._edges:
            incoming[target].add(source)

        def reachable(adjacency: Dict[int, List[int]]) -> set:
            seen = {0}
            frontier = [0]
            while frontier:
                tile = frontier.pop()
                for neighbour in adjacency.get(tile, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            return seen

        forward = reachable(self._out)
        if len(forward) != self._num_tiles:
            missing = sorted(set(self.tiles()) - forward)
            raise ConfigurationError(
                f"irregular topology {self.name!r} is not connected; "
                f"tiles {missing} are unreachable from tile 0"
            )
        backward = reachable({tile: sorted(incoming[tile]) for tile in incoming})
        if len(backward) != self._num_tiles:
            missing = sorted(set(self.tiles()) - backward)
            raise ConfigurationError(
                f"irregular topology {self.name!r} is not strongly connected; "
                f"tiles {missing} cannot reach tile 0 over the directed links"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IrregularTopology):
            return NotImplemented
        return self.cache_token == other.cache_token

    def __hash__(self) -> int:
        return hash(self.cache_token)

    def __str__(self) -> str:
        return f"{self._num_tiles}-tile irregular {self.name!r}"

    def __repr__(self) -> str:
        return (
            f"IrregularTopology(name={self.name!r}, tiles={self._num_tiles}, "
            f"edges={len(self._edges)})"
        )


def topology_cache_token(topology: Topology) -> Tuple:
    """The route-table cache token of *topology* (duck-typed fallback).

    Conforming topologies expose :attr:`Topology.cache_token` directly; for
    minimal duck-typed objects (anything with ``num_tiles`` and
    ``neighbours``) the fallback keys on concrete class identity plus tile
    count, which is safe — distinct classes never share tables — if
    coarser than a structural token.
    """
    token = getattr(topology, "cache_token", None)
    if token is not None:
        return token
    cls = type(topology)
    return (cls.__module__, cls.__qualname__, topology.num_tiles)


def noc_label(topology: Topology) -> str:
    """Table-style NoC size label, e.g. ``"3 x 2"``.

    Falls back to ``str(topology)`` for topologies without grid dimensions,
    such as :class:`IrregularTopology`.
    """
    if hasattr(topology, "width"):
        return f"{topology.width} x {topology.height}"
    return str(topology)


def build_mesh_crg(width: int, height: int, name: Optional[str] = None) -> CRG:
    """Convenience wrapper: CRG of a ``width x height`` mesh."""
    return Mesh(width, height).to_crg(name)


# ----------------------------------------------------------------------
# Registry: topologies by spec string
# ----------------------------------------------------------------------
def _parse_dims(argument: str, spec: str) -> Tuple[int, int]:
    try:
        width_text, _, height_text = argument.partition("x")
        return int(width_text), int(height_text)
    except ValueError as exc:
        raise ConfigurationError(
            f"topology spec {spec!r} needs WIDTHxHEIGHT dimensions, "
            f"e.g. 'mesh:4x4'"
        ) from exc


_TOPOLOGY_REGISTRY: Dict[str, Callable[[str], Topology]] = {
    "mesh": lambda argument: Mesh(*_parse_dims(argument, f"mesh:{argument}")),
    "torus": lambda argument: Torus(*_parse_dims(argument, f"torus:{argument}")),
}


def available_topologies() -> List[str]:
    """Spec names accepted by :func:`get_topology`, sorted."""
    return sorted(_TOPOLOGY_REGISTRY)


def register_topology(
    name: str, factory: Callable[[str], Topology], overwrite: bool = False
) -> None:
    """Install a topology factory under a spec name.

    Parameters
    ----------
    name:
        Spec name (the part before the ``:`` in ``"name:argument"``).
    factory:
        Callable receiving the argument string (possibly empty) and
        returning a :class:`Topology`.
    overwrite:
        Allow replacing an existing registration (off by default, so two
        libraries cannot silently steal each other's names).
    """
    key = name.lower()
    if not overwrite and key in _TOPOLOGY_REGISTRY:
        raise ConfigurationError(
            f"topology spec {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _TOPOLOGY_REGISTRY[key] = factory


def get_topology(spec: str) -> Topology:
    """Resolve a topology spec string like ``"mesh:4x4"`` or ``"torus:3x3"``.

    The text before the first ``:`` selects the registered factory, the rest
    is passed to it verbatim (:func:`register_topology` adds new names).
    """
    name, _, argument = spec.partition(":")
    try:
        factory = _TOPOLOGY_REGISTRY[name.lower()]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown topology spec {spec!r}; available: {available_topologies()}"
        ) from exc
    return factory(argument)


__all__ = [
    "Topology",
    "Mesh",
    "Torus",
    "IrregularTopology",
    "topology_cache_token",
    "noc_label",
    "build_mesh_crg",
    "available_topologies",
    "register_topology",
    "get_topology",
]
