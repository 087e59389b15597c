"""Deterministic routing algorithms over pluggable topologies.

The paper fixes deterministic XY routing (route along the X axis first, then
along the Y axis).  :class:`XYRouting` implements it; :class:`YXRouting` is
the symmetric variant, kept for ablation benches.  Both consult the
topology's :attr:`~repro.noc.topology.Topology.wraps_x` /
:attr:`~repro.noc.topology.Topology.wraps_y` capability flags to decide
whether an axis wraps around — any torus-like topology routes correctly
without ``isinstance`` checks.

Beyond the dimension-ordered pair, the module provides:

* :class:`TableRouting` — deterministic BFS shortest-path next-hop tables
  that work on **any** topology (the route for irregular fabrics), with a
  tie-break rule (first match in the topology's ``neighbours()`` order) that
  reproduces XY routes *exactly* on a mesh;
* :class:`WestFirstRouting` / :class:`NegativeFirstRouting` — deterministic
  minimal turn-model routings, the classic deadlock-free alternatives the
  :mod:`repro.noc.deadlock` validator certifies;
* :func:`next_hop_trees` — the checked per-target next-hop rows of a
  routing that routes by one next hop per target
  (:meth:`RoutingAlgorithm.next_hop_table`), from which the channel
  dependency graph and eager route tables are built without walking every
  tile pair's route.  Both read the rows as one int64 array
  (:meth:`RoutingAlgorithm.next_hop_array`), which a synthesized routing
  keeps from its construction.  Every shipped routing has such rows: the
  four grid routings compute theirs from tile coordinates, so only custom
  routings without rows are walked pair by pair;
* :func:`tree_depths` — the hop count of every walk along such rows, by
  pointer doubling over the ``(T, T)`` array, which is also how the rows
  are checked;
* a routing **registry** (:func:`register_routing` / :func:`get_routing`)
  resolving spec strings — ``"xy"``, ``"yx"``, ``"table"``,
  ``"west-first"``, ``"negative-first"`` — so platforms are configurable by
  name end to end.

A routing algorithm maps a ``(source tile, target tile)`` pair to the ordered
list of routers the packet header traverses, source router and target router
included (the quantity ``K`` of equations 2 and 6–8 is the length of that
list).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.topology import Topology, topology_cache_token
from repro.utils.errors import ConfigurationError

#: How many per-topology next-hop tables a TableRouting instance memoises.
_TABLE_MEMO_LIMIT = 8


class RoutingAlgorithm(ABC):
    """Deterministic routing function over a :class:`~repro.noc.topology.Topology`.

    Implementations must be stateless with respect to routing decisions
    (internal memoisation of derived tables is fine): the same
    ``(topology, source, target)`` triple must always yield the same route,
    which is what lets route tables be shared process-wide and parallel
    pricing stay bit-identical to serial.
    """

    #: Short identifier used in configuration files and reports.
    name: str = "abstract"

    @abstractmethod
    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """Return the ordered list of router (tile) indices from *source* to
        *target*, both endpoints included.

        ``route(m, t, t) == [t]`` — a core talking to a core on the same tile
        traverses exactly one router.
        """

    def hop_count(self, topology: Topology, source: int, target: int) -> int:
        """Number of routers traversed (``K`` in the paper's equations)."""
        return len(self.route(topology, source, target))

    def links(
        self, topology: Topology, source: int, target: int
    ) -> List[Tuple[int, int]]:
        """The inter-router links of the route, as ``(from_tile, to_tile)`` pairs."""
        path = self.route(topology, source, target)
        return list(zip(path, path[1:]))

    def next_hop_table(self, topology: Topology) -> Optional[Sequence[Sequence[int]]]:
        """The per-target next-hop rows ``table[target][tile]``, or ``None``.

        A routing that routes by one next hop per target returns its rows
        (read-only), so consumers can build from the trees instead of
        walking :meth:`route` for every tile pair (see
        :func:`next_hop_trees`).  The default, ``None``, keeps them on the
        route walk.
        """
        return None

    def next_hop_array(self, topology: Topology) -> Optional[np.ndarray]:
        """:meth:`next_hop_table` as a read-only ``(T, T)`` int64 array, or ``None``.

        What the deadlock gate and the route-table build read.  The default
        converts :meth:`next_hop_table` once per call; a routing that keeps
        its rows as such an array returns it as is.
        """
        rows = self.next_hop_table(topology)
        if rows is None:
            return None
        array = np.array(rows, dtype=np.int64)
        array.setflags(write=False)
        return array

    @property
    def cache_token(self) -> Tuple:
        """Stable identity used (with the topology's token) to key shared tables.

        The default — concrete class identity — is correct for the stateless
        parameterless routings shipped here; a parameterised custom routing
        should extend the token with its parameters.
        """
        cls = type(self)
        return (cls.__module__, cls.__qualname__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _axis_steps(start: int, end: int, size: int, wrap: bool) -> List[int]:
    """Coordinates visited moving from *start* to *end* along one axis,
    excluding *start* itself."""
    if start == end:
        return []
    if not wrap:
        step = 1 if end > start else -1
        return list(range(start + step, end + step, step))
    forward = (end - start) % size
    backward = (start - end) % size
    step = 1 if forward <= backward else -1
    coords = []
    current = start
    while current != end:
        current = (current + step) % size
        coords.append(current)
    return coords


def _wraps(topology: Topology, axis_flag: str) -> bool:
    """The topology's wrap capability flag (False for duck-typed minimal ones)."""
    return bool(getattr(topology, axis_flag, False))


def _require_grid(topology: Topology, routing_name: str) -> None:
    """Dimension-ordered routings need a grid embedding (width/height/coords)."""
    for attribute in ("width", "height", "position_of", "index_of"):
        if not hasattr(topology, attribute):
            raise ConfigurationError(
                f"{routing_name} routing needs a grid topology exposing "
                f"width/height/position_of/index_of, but {topology} has no "
                f"{attribute!r}; use 'table' routing for irregular fabrics"
            )


def _unit_steps(
    start: np.ndarray, end: np.ndarray, size: int, wrap: bool
) -> np.ndarray:
    """The step (-1, 0 or 1) :func:`_axis_steps` takes from *start* to *end*."""
    if not wrap:
        return np.sign(end - start)
    forward = (end - start) % size
    backward = (start - end) % size
    return np.where(forward == 0, 0, np.where(forward <= backward, 1, -1))


def _grid_next_hops(
    topology: Topology,
    along_x: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> List[List[int]]:
    """Next-hop rows ``[target][tile]`` of a grid routing, from coordinates.

    ``dx[t, u]`` and ``dy[t, u]`` are the steps the route walk from tile
    ``u`` towards target ``t`` takes along each axis (the shorter way round
    a wrapping axis, forward on ties), and ``along_x(dx, dy)`` says where
    the next hop moves along X rather than Y.  The diagonal is ``-1``.
    """
    width, height = topology.width, topology.height
    positions = np.array(
        [topology.position_of(tile) for tile in topology.tiles()], dtype=np.int64
    )
    xs, ys = positions[:, :1], positions[:, 1:]  # (T, 1) columns
    index = np.array(
        [[topology.index_of(x, y) for x in range(width)] for y in range(height)],
        dtype=np.int64,
    )
    wraps_x, wraps_y = _wraps(topology, "wraps_x"), _wraps(topology, "wraps_y")
    # Rows run over targets, columns over the tiles a hop leaves from.
    dx = _unit_steps(xs.T, xs, width, wraps_x)
    dy = _unit_steps(ys.T, ys, height, wraps_y)
    moves_x = along_x(dx, dy)
    next_x = xs.T + np.where(moves_x, dx, 0)
    next_y = ys.T + np.where(moves_x, 0, dy)
    if wraps_x:
        next_x %= width
    if wraps_y:
        next_y %= height
    hops = index[next_y, next_x]
    np.fill_diagonal(hops, -1)
    return hops.tolist()


class XYRouting(RoutingAlgorithm):
    """Dimension-ordered routing: X axis first, then Y axis.

    Wrap-around is taken per axis when the topology declares ``wraps_x`` /
    ``wraps_y`` (shorter direction wins, forward on ties).
    """

    name = "xy"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The XY route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        for x in _axis_steps(sx, tx, topology.width, _wraps(topology, "wraps_x")):
            path.append(topology.index_of(x, sy))
        for y in _axis_steps(sy, ty, topology.height, _wraps(topology, "wraps_y")):
            path.append(topology.index_of(tx, y))
        return path

    def next_hop_table(self, topology: Topology) -> List[List[int]]:
        """The XY next hop of every tile towards every target (X while unaligned)."""
        _require_grid(topology, self.name)
        return _grid_next_hops(topology, lambda dx, dy: dx != 0)


class YXRouting(RoutingAlgorithm):
    """Dimension-ordered routing: Y axis first, then X axis."""

    name = "yx"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The YX route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        for y in _axis_steps(sy, ty, topology.height, _wraps(topology, "wraps_y")):
            path.append(topology.index_of(sx, y))
        for x in _axis_steps(sx, tx, topology.width, _wraps(topology, "wraps_x")):
            path.append(topology.index_of(x, ty))
        return path

    def next_hop_table(self, topology: Topology) -> List[List[int]]:
        """The YX next hop of every tile towards every target (Y while unaligned)."""
        _require_grid(topology, self.name)
        return _grid_next_hops(topology, lambda dx, dy: dy == 0)


class WestFirstRouting(RoutingAlgorithm):
    """Deterministic minimal west-first turn-model routing.

    All westward hops are taken first (X-then-Y when the target lies to the
    west, Y-then-X otherwise), so no packet ever turns *into* the west
    direction — the prohibited turns of the west-first turn model.  Minimal
    and deadlock-free on any non-wrapping grid (certified by
    :func:`repro.noc.deadlock.validate_deadlock_free`).
    """

    name = "west-first"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The west-first route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        if tx < sx:  # west component: take it first, then the Y component
            for x in _axis_steps(sx, tx, topology.width, False):
                path.append(topology.index_of(x, sy))
            for y in _axis_steps(sy, ty, topology.height, False):
                path.append(topology.index_of(tx, y))
        else:  # no west component: Y first, then east
            for y in _axis_steps(sy, ty, topology.height, False):
                path.append(topology.index_of(sx, y))
            for x in _axis_steps(sx, tx, topology.width, False):
                path.append(topology.index_of(x, ty))
        return path

    def next_hop_table(self, topology: Topology) -> List[List[int]]:
        """The west-first next hop of every tile towards every target.

        West while the target lies west, otherwise Y before east.
        """
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        return _grid_next_hops(topology, lambda dx, dy: (dx < 0) | (dy == 0))


class NegativeFirstRouting(RoutingAlgorithm):
    """Deterministic minimal negative-first turn-model routing.

    Both negative components (west, then north — decreasing coordinates) are
    routed before both positive ones (east, then south), so no packet ever
    turns from a positive into a negative direction — the prohibited turns
    of the negative-first turn model.  Minimal and deadlock-free on any
    non-wrapping grid.
    """

    name = "negative-first"

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The negative-first route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        sx, sy = topology.position_of(source)
        tx, ty = topology.position_of(target)
        path = [source]
        cx, cy = sx, sy
        if tx < cx:  # west
            for x in _axis_steps(cx, tx, topology.width, False):
                path.append(topology.index_of(x, cy))
            cx = tx
        if ty < cy:  # north
            for y in _axis_steps(cy, ty, topology.height, False):
                path.append(topology.index_of(cx, y))
            cy = ty
        if tx > cx:  # east
            for x in _axis_steps(cx, tx, topology.width, False):
                path.append(topology.index_of(x, cy))
            cx = tx
        if ty > cy:  # south
            for y in _axis_steps(cy, ty, topology.height, False):
                path.append(topology.index_of(cx, y))
        return path

    def next_hop_table(self, topology: Topology) -> List[List[int]]:
        """The negative-first next hop of every tile towards every target.

        West, then north, then east, then south, each while needed.
        """
        _require_grid(topology, self.name)
        _reject_wrapping(topology, self.name)
        return _grid_next_hops(
            topology, lambda dx, dy: (dx < 0) | ((dx > 0) & (dy >= 0))
        )


class TableRouting(RoutingAlgorithm):
    """Deterministic shortest-path next-hop tables over any topology.

    For each target tile a reverse BFS over the topology's directed links
    yields every tile's distance to the target; the next hop from a tile is
    the **first** neighbour (in the topology's ``neighbours()`` order) that
    is one step closer.  Two consequences:

    * the tables are a pure function of the topology — builds are
      deterministic, so parallel workers rebuild bit-identical tables;
    * on a :class:`~repro.noc.topology.Mesh`, whose neighbour order lists
      the X-axis tiles first, the tie-break reproduces XY routes *exactly*
      (pinned by ``tests/test_topology_api.py``) — table-backed platforms
      price mappings identically to XY platforms on meshes.

    Next-hop tables are memoised per topology (keyed by ``cache_token``)
    and lazily per target; the memo never travels with a pickle (workers
    rebuild it locally).

    Note that shortest-path tables are not automatically deadlock-free on
    topologies with cycles (a torus, most irregular fabrics): gate them
    with :func:`repro.noc.deadlock.validate_deadlock_free` before trusting
    a contention model on them.
    """

    name = "table"

    def __init__(self) -> None:
        # cache_token -> (out-adjacency, in-adjacency, {target: next_hop row})
        self._memo: Dict[Tuple, Tuple[List[List[int]], List[List[int]], Dict[int, List[int]]]] = {}

    def next_hop_table(self, topology: Topology) -> List[List[int]]:
        """The BFS next-hop row of every target (``-1`` where none exists)."""
        return [self._next_hops(topology, target) for target in topology.tiles()]

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The table route from *source* to *target*, endpoints included."""
        _validate_endpoints(topology, source, target)
        if source == target:
            return [source]
        next_hop = self._next_hops(topology, target)
        path = [source]
        current = source
        limit = topology.num_tiles
        while current != target:
            step = next_hop[current]
            if step < 0:
                raise ConfigurationError(
                    f"no route from tile {source} to tile {target} in "
                    f"{topology}; the directed link graph does not reach "
                    f"the target"
                )
            path.append(step)
            current = step
            if len(path) > limit:  # pragma: no cover - BFS tables cannot loop
                raise ConfigurationError(
                    f"routing loop from tile {source} to tile {target} in "
                    f"{topology}"
                )
        return path

    # ------------------------------------------------------------------
    def _adjacency(
        self, topology: Topology
    ) -> Tuple[List[List[int]], List[List[int]], Dict[int, List[int]]]:
        token = topology_cache_token(topology)
        entry = self._memo.get(token)
        if entry is None:
            entry = (*link_adjacency(topology), {})
            while len(self._memo) >= _TABLE_MEMO_LIMIT:
                self._memo.pop(next(iter(self._memo)))
            self._memo[token] = entry
        return entry

    def _next_hops(self, topology: Topology, target: int) -> List[int]:
        out, incoming, tables = self._adjacency(topology)
        table = tables.get(target)
        if table is None:
            table = [
                choices[0] if choices else -1
                for choices in minimal_next_hops(out, incoming, target)
            ]
            tables[target] = table
        return table

    # ------------------------------------------------------------------
    # Pickling: the memo is derived state, workers rebuild it locally
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        del state
        self.__init__()  # type: ignore[misc]  # rebuild = fresh empty memo


def link_adjacency(topology: Topology) -> Tuple[List[List[int]], List[List[int]]]:
    """Every tile's out-neighbours (in ``neighbours()`` order) and in-neighbours."""
    out = [list(topology.neighbours(index)) for index in topology.tiles()]
    incoming: List[List[int]] = [[] for _ in range(topology.num_tiles)]
    for index, neighbours in enumerate(out):
        for neighbour in neighbours:
            incoming[neighbour].append(index)
    return out, incoming


def minimal_next_hops(
    out: Sequence[Sequence[int]],
    incoming: Sequence[Sequence[int]],
    target: int,
) -> List[Tuple[int, ...]]:
    """Per tile, the out-neighbours one shortest-path step closer to *target*.

    A reverse BFS from *target* over the directed links (*incoming*, as
    :func:`link_adjacency` returns it) gives every tile's distance to the
    target; a tile's minimal next hops are its *out* neighbours one step
    closer, in *out* order.  The target itself and tiles that cannot reach
    it get ``()``.  :class:`TableRouting` takes the first choice, the
    co-design table synthesizer draws among all of them.
    """
    n = len(out)
    distance = [-1] * n
    distance[target] = 0
    frontier = [target]
    while frontier:
        next_frontier: List[int] = []
        for tile in frontier:
            for predecessor in incoming[tile]:
                if distance[predecessor] < 0:
                    distance[predecessor] = distance[tile] + 1
                    next_frontier.append(predecessor)
        frontier = next_frontier
    return [
        ()
        if tile == target or distance[tile] < 0
        else tuple(
            neighbour
            for neighbour in out[tile]
            if distance[neighbour] == distance[tile] - 1
        )
        for tile in range(n)
    ]


def next_hop_trees(
    topology: Topology, routing: RoutingAlgorithm
) -> Optional[Sequence[Sequence[int]]]:
    """*routing*'s next-hop rows, checked to be in-trees rooted at their targets.

    Returns ``None`` when the routing has no next-hop table
    (:meth:`RoutingAlgorithm.next_hop_table`); callers then walk
    :meth:`~RoutingAlgorithm.route` per pair.  Otherwise every tile's walk
    along row ``t`` must reach ``t`` (checked by :func:`tree_depths`), which
    makes the route from ``u`` to ``t`` exactly ``u`` followed by the route
    from ``n_t(u)``.  When a walk dead-ends or loops, the first such
    ``(source, target)`` pair in source-major order is routed through
    ``routing.route``, so the caller gets the route walk's own
    :class:`ConfigurationError`.
    """
    rows = routing.next_hop_table(topology)
    if rows is None:
        return None
    if tree_depths(rows) is not None:
        return rows
    first: Optional[Tuple[int, int]] = None
    for target, row in enumerate(rows):
        source = _first_stray(row, target)
        if source is not None and (first is None or (source, target) < first):
            first = (source, target)
    assert first is not None  # tree_depths found a walk that never arrives
    source, target = first
    routing.route(topology, source, target)
    raise ConfigurationError(
        f"{routing!r} routes tile {source} to tile {target}, but its "
        f"next-hop table does not"
    )


def tree_depths(rows: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
    """Links on every walk along next-hop rows, or ``None`` if one never arrives.

    ``depths[t, u]`` is the number of links from tile ``u`` to target ``t``
    along row ``t`` (``0`` on the diagonal, whose entry no walk reads).
    Pointer doubling finds them all in ``ceil(log2(T - 1))`` rounds of two
    gathers over the flat ``(T, T + 1)`` array: each round doubles the steps
    every jump covers and adds the links the jump skips.  Column ``T`` is a
    sink standing in for a dead end, which is any entry outside the tiles:
    negative ones too, which NumPy would read as indices from the end.  A
    walk that dead-ends or loops has not reached its target after ``T - 1``
    steps, and the rows are then not in-trees.
    """
    hops = np.asarray(rows, dtype=np.int64)
    n = len(hops)
    width = n + 1
    tiles = np.arange(n, dtype=np.int64)
    roots = tiles * width + tiles  # flat index of each row's target
    jump = np.full((n, width), n, dtype=np.int64)
    jump[:, :n] = np.where((hops >= 0) & (hops < n), hops, n)
    jump[tiles, tiles] = tiles  # the target, like the sink, stays put
    jump += (tiles * width)[:, None]  # flat: row t's entries live in row t
    jump = jump.ravel()
    # A fixed point (a target, a sink, or an entry naming its own tile,
    # which never arrives anyway) takes no link.
    depth = np.ones(n * width, dtype=np.int64)
    depth[jump == np.arange(n * width)] = 0
    for _ in range(max(n - 2, 0).bit_length()):
        depth += depth[jump]
        jump = jump[jump]
    if not (jump.reshape(n, width)[:, :n] == roots[:, None]).all():
        return None
    return depth.reshape(n, width)[:, :n]


def _first_stray(row: Sequence[int], target: int) -> Optional[int]:
    """The lowest tile whose walk along *row* never reaches *target*."""
    limit = len(row)
    reaches = [False] * limit
    reaches[target] = True
    for tile in range(limit):
        if reaches[tile]:
            continue
        walk = [tile]
        current = row[tile]
        while 0 <= current < limit and not reaches[current]:
            if len(walk) == limit:  # more steps than tiles: a loop
                return tile
            walk.append(current)
            current = row[current]
        if not 0 <= current < limit:  # a dead end
            return tile
        for visited in walk:
            reaches[visited] = True
    return None


def _validate_endpoints(topology: Topology, source: int, target: int) -> None:
    if not topology.contains(source):
        raise ConfigurationError(f"source tile {source} outside {topology}")
    if not topology.contains(target):
        raise ConfigurationError(f"target tile {target} outside {topology}")


def _reject_wrapping(topology: Topology, routing_name: str) -> None:
    if _wraps(topology, "wraps_x") or _wraps(topology, "wraps_y"):
        raise ConfigurationError(
            f"{routing_name} routing is a non-wrapping turn model and is not "
            f"deadlock-free on wrap-around topologies like {topology}; use "
            f"'xy' (with virtual channels) or 'table' instead"
        )


# ----------------------------------------------------------------------
# Registry: routing algorithms by spec string
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], RoutingAlgorithm]] = {
    XYRouting.name: XYRouting,
    YXRouting.name: YXRouting,
    TableRouting.name: TableRouting,
    WestFirstRouting.name: WestFirstRouting,
    NegativeFirstRouting.name: NegativeFirstRouting,
}


def available_routings() -> List[str]:
    """Spec names accepted by :func:`get_routing`, sorted."""
    return sorted(_REGISTRY)


def register_routing(
    name: str,
    factory: Callable[[], RoutingAlgorithm],
    overwrite: bool = False,
) -> None:
    """Install a routing factory under a spec name.

    Parameters
    ----------
    name:
        Spec name, matched case-insensitively by :func:`get_routing`.
    factory:
        Zero-argument callable returning a :class:`RoutingAlgorithm`
        (typically the class itself).
    overwrite:
        Allow replacing an existing registration (off by default).
    """
    key = name.lower()
    if not overwrite and key in _REGISTRY:
        raise ConfigurationError(
            f"routing spec {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _REGISTRY[key] = factory


def get_routing(name: str) -> RoutingAlgorithm:
    """Instantiate a routing algorithm by spec name.

    Shipped specs: ``"xy"``, ``"yx"``, ``"table"``, ``"west-first"``,
    ``"negative-first"``; :func:`register_routing` adds new ones.
    """
    try:
        return _REGISTRY[name.lower()]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown routing algorithm {name!r}; available: {available_routings()}"
        ) from exc


__all__ = [
    "RoutingAlgorithm",
    "XYRouting",
    "YXRouting",
    "WestFirstRouting",
    "NegativeFirstRouting",
    "TableRouting",
    "link_adjacency",
    "minimal_next_hops",
    "next_hop_trees",
    "tree_depths",
    "available_routings",
    "register_routing",
    "get_routing",
]
