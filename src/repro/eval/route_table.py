"""Precomputed route tables — the static half of the evaluation engine.

Pricing a candidate mapping only ever asks four questions about a pair of
tiles: *which routers does a packet traverse* (the path), *which inter-router
links does it cross*, *how many hops is that* (``K`` of equation 2), and *how
much dynamic energy does one bit pay along the way* (``EBit_ij``).  For a
deterministic routing function over a fixed platform, every one of those
answers is a pure function of the ``(source_tile, target_tile)`` pair — yet
the seed code re-derived the XY route edge-by-edge on every objective
evaluation, every scheduler replay and every greedy placement probe.

:class:`RouteTable` computes all four answers once per platform and serves
them as O(1) lookups.  Tables are small (``n**2`` entries for an ``n``-tile
NoC; 4 096 entries for an 8x8 mesh) and are shared process-wide through
:func:`get_route_table`, keyed by the topology's stable
:attr:`~repro.noc.topology.Topology.cache_token`, the routing algorithm's
``cache_token``, the technology and the local-link flag — so the CWM
evaluator, the CDCM scheduler, the greedy constructor and the benchmarks all
price mappings against the same precomputed tables, and meshes, tori and
irregular fabrics (with distinct tokens) can never alias each other's
tables.

For very large NoCs (more than ``_EAGER_PAIR_LIMIT`` pairs) the table turns
into a lazy per-pair memo instead of an eager precomputation, so sweeps over
huge meshes never pay an O(n**2) warm-up for pairs they might not touch.

An eager table over a routing with a next-hop table (every shipped routing
has one) is built from the ``(n, n)`` next-hop array
(:meth:`~repro.noc.routing.RoutingAlgorithm.next_hop_array`): the hop counts
are the trees' depths (:func:`~repro.noc.routing.tree_depths`, which also
checks the rows), the energies follow from the hop counts, and
:meth:`RouteTable.link_csr` gathers link ids straight from the array.  Paths
and links are walked along the checked row the first time a pair is asked
for, and memoised.  Other routings, and lazy tables, walk each pair's route.

:meth:`RouteTable.link_ids` serves a route's links as link ids, memoised per
pair on the table, so every scheduler, evaluator and context bound to one
table shares the memo: a CDCM replay on a fresh scheduler walks only the
routes no earlier replay on that table has walked.

The numeric halves of an eager table (``hops`` and ``energy``) are stored as
dense NumPy arrays rather than Python lists: scalar lookups index the same
allocation the vectorised pricing kernel (:mod:`repro.eval.vector`) gathers
from, exposed as ``(n, n)`` matrices through :meth:`RouteTable.as_arrays`.
Lazy tables can densify those two halves on demand with
:meth:`RouteTable.warm_dense`: from the trees' depths when the routing has
next-hop rows, otherwise by walking only the pairs the per-pair memo lacks.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.energy.bit_energy import bit_energy_route
from repro.noc.routing import next_hop_trees, tree_depths
from repro.noc.topology import topology_cache_token
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.energy.technology import Technology
    from repro.noc.platform import Platform
    from repro.noc.routing import RoutingAlgorithm
    from repro.noc.topology import Topology

#: Above this many (source, target) pairs the table fills lazily on demand.
_EAGER_PAIR_LIMIT = 1 << 16

#: Routes converted per step when building a link-id CSR.
_CSR_BLOCK_ROUTES = 1024


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark *array* read-only (dense halves are shared across evaluators)."""
    array.setflags(write=False)
    return array


def _route_energies(
    technology: "Technology", hops: np.ndarray, include_local: bool
) -> np.ndarray:
    """``EBit`` of every pair, one :func:`bit_energy_route` per hop count."""
    present = np.bincount(hops)
    by_count = np.zeros(present.size, dtype=np.float64)
    for count in np.flatnonzero(present).tolist():
        by_count[count] = bit_energy_route(technology, count, include_local)
    return by_count[hops]


class RouteTable:
    """Per-platform lookup tables for route paths, links, hops and bit energy.

    Parameters
    ----------
    mesh:
        Topology the routes are computed over (mesh, torus or irregular —
        any :class:`~repro.noc.topology.Topology`; the parameter keeps the
        paper's name, aliased as :attr:`topology`).
    routing:
        Deterministic routing algorithm; must be stateless, as all routing
        algorithms in :mod:`repro.noc.routing` are.
    technology:
        Supplies the per-bit energies used to precompute ``EBit_ij``.
    include_local:
        Whether the two local core-router links contribute ``2 x ECbit`` to
        the per-bit route energy (mirrors the evaluator flag).
    precompute:
        Force eager (True) or lazy (False) table construction; by default the
        table is eager up to ``_EAGER_PAIR_LIMIT`` pairs.
    """

    __slots__ = (
        "mesh",
        "routing",
        "technology",
        "include_local",
        "num_tiles",
        "_eager",
        "_next_hops",
        "_rows",
        "_paths",
        "_links",
        "_hops",
        "_energy",
        "_dense_hops",
        "_dense_energy",
        "_link_csr",
        "_link_keys",
        "_link_id_of",
        "_route_link_ids",
    )

    def __init__(
        self,
        mesh: "Topology",
        routing: "RoutingAlgorithm",
        technology: "Technology",
        include_local: bool = True,
        precompute: Optional[bool] = None,
    ) -> None:
        self.mesh = mesh
        self.routing = routing
        self.technology = technology
        self.include_local = include_local
        self.num_tiles = mesh.num_tiles
        pairs = self.num_tiles * self.num_tiles
        self._eager = pairs <= _EAGER_PAIR_LIMIT if precompute is None else precompute
        self._dense_hops: Optional[np.ndarray] = None
        self._dense_energy: Optional[np.ndarray] = None
        self._link_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._link_keys: Optional[np.ndarray] = None
        # Link id by key ``tail * n + head`` (built on the first link_ids()
        # miss) and the link ids of every route asked for, by pair index.
        self._link_id_of: Optional[Dict[int, int]] = None
        self._route_link_ids: Dict[int, Tuple[int, ...]] = {}
        # The checked next-hop array of a table built from one, and its rows
        # as Python ints, each converted on the first walk towards its
        # target; paths and links are then memoised per pair (row-major
        # index) as they are walked, like every pair of a lazy table.
        self._next_hops: Optional[np.ndarray] = None
        self._rows: Optional[List[Optional[List[int]]]] = None
        self._paths: Dict[int, Tuple[int, ...]] = {}
        self._links: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        if not self._eager:
            self._hops: Dict[int, int] = {}
            self._energy: Dict[int, float] = {}
            return
        array = routing.next_hop_array(mesh)
        if array is None:
            tiles = range(self.num_tiles)
            paths = [
                tuple(routing.route(mesh, source, target))
                for source in tiles
                for target in tiles
            ]
            self._paths = dict(enumerate(paths))
            self._links = {
                index: tuple(zip(path, path[1:]))
                for index, path in self._paths.items()
            }
            hops = np.fromiter(map(len, paths), dtype=np.int64, count=pairs)
        else:
            hops = self._tree_hops(array)
            self._next_hops = array
            self._rows = [None] * self.num_tiles
        # Eager numeric halves live in one dense allocation shared by
        # scalar lookups and the vectorised kernel (see as_arrays()).
        self._hops = _freeze(hops)
        self._energy = _freeze(_route_energies(technology, hops, include_local))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_platform(
        cls,
        platform: "Platform",
        include_local: bool = True,
        precompute: Optional[bool] = None,
    ) -> "RouteTable":
        """Table for a :class:`~repro.noc.platform.Platform` (uncached)."""
        return cls(
            platform.mesh,
            platform.routing,
            platform.technology,
            include_local=include_local,
            precompute=precompute,
        )

    def _tree_hops(self, next_hops: np.ndarray) -> np.ndarray:
        """Routers on every pair's walk along the routing's next-hop array.

        *next_hops* is :meth:`~repro.noc.routing.RoutingAlgorithm.next_hop_array`,
        row-major by target; the result is row-major by source.  The trees'
        depths (:func:`~repro.noc.routing.tree_depths`) check the rows too;
        rows that are not in-trees raise the route walk's error.
        """
        depths = tree_depths(next_hops)
        if depths is None:
            next_hop_trees(self.mesh, self.routing)  # raises the route walk's error
        return depths.T.ravel() + 1

    @property
    def is_precomputed(self) -> bool:
        """True when every pair's hops and energy were computed at construction.

        Paths and links of a table built from next-hop rows are walked on
        first use all the same; :meth:`link_csr` covers every pair without
        walking them.
        """
        return self._eager

    @property
    def topology(self) -> "Topology":
        """The topology the routes are computed over (alias of ``mesh``)."""
        return self.mesh

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _index(self, source: int, target: int) -> int:
        n = self.num_tiles
        if not (0 <= source < n and 0 <= target < n):
            raise ConfigurationError(
                f"tile pair ({source}, {target}) outside the {n}-tile {self.mesh}"
            )
        return source * n + target

    def _materialise(self, index: int, source: int, target: int) -> None:
        """Route one pair into the memo (all four halves on a lazy table)."""
        if self._rows is None:
            path = tuple(self.routing.route(self.mesh, source, target))
        else:
            path = self._walk(index)
        self._paths[index] = path
        self._links[index] = tuple(zip(path, path[1:]))
        if not self._eager:
            self._hops[index] = len(path)
            self._energy[index] = bit_energy_route(
                self.technology, len(path), self.include_local
            )

    def _row(self, target: int) -> List[int]:
        """Row *target* of the checked next-hop array, as Python ints (kept)."""
        row = self._rows[target]
        if row is None:
            row = self._rows[target] = self._next_hops[target].tolist()
        return row

    def _walk(self, index: int) -> Tuple[int, ...]:
        """The path of one pair along its target's checked next-hop row."""
        tile, target = divmod(int(index), self.num_tiles)
        row = self._row(target)
        path = [tile]
        while tile != target:
            tile = row[tile]
            path.append(tile)
        return tuple(path)

    def path(self, source: int, target: int) -> Tuple[int, ...]:
        """Router (tile) indices traversed, both endpoints included."""
        index = self._index(source, target)
        if index not in self._paths:
            self._materialise(index, source, target)
        return self._paths[index]

    def links(self, source: int, target: int) -> Tuple[Tuple[int, int], ...]:
        """Inter-router links of the route, as ``(from, to)`` tile pairs."""
        index = self._index(source, target)
        if index not in self._links:
            self._materialise(index, source, target)
        return self._links[index]

    def link_ids(self, source: int, target: int) -> Tuple[int, ...]:
        """Ids of the route's inter-router links, in route order (memoised).

        Ids are Python ints numbered as in :meth:`link_csr`: positions in
        the sorted ``topology.links()`` (see :attr:`link_keys`).  The first
        call for a pair walks its target's checked next-hop row on a table
        built from rows, and maps :meth:`links` otherwise; it stores the ids
        in :attr:`link_id_memo`, which every scheduler bound to the table
        reads.  A route over a link the topology does not list raises
        :class:`~repro.utils.errors.ConfigurationError`.
        """
        index = self._index(source, target)
        ids = self._route_link_ids.get(index)
        if ids is None:
            ids = self._route_link_ids[index] = self._route_ids(source, target)
        return ids

    @property
    def link_id_memo(self) -> Dict[int, Tuple[int, ...]]:
        """The memo of :meth:`link_ids`, keyed ``source * num_tiles + target``.

        Read-only to callers: a replay binds it once and calls
        :meth:`link_ids`, which fills it, only for a pair it lacks.
        """
        return self._route_link_ids

    def _route_ids(self, source: int, target: int) -> Tuple[int, ...]:
        """Link ids of one route, looked up by key ``tail * n + head``."""
        n = self.num_tiles
        id_of = self._link_id_of
        if id_of is None:
            keys = self.link_keys.tolist()
            id_of = self._link_id_of = dict(zip(keys, range(len(keys))))
        ids = []
        if self._rows is None:
            for tail, head in self.links(source, target):
                # A tile outside the table would alias another link's key.
                # The walk along checked rows below visits only tiles.
                inside = 0 <= tail < n and 0 <= head < n
                link = id_of.get(tail * n + head) if inside else None
                if link is None:
                    raise self._unlisted(tail, head)
                ids.append(link)
        else:  # along the checked row, filling neither path nor link memo
            # _walk's loop, mapping each hop as it goes: _walk and a second
            # pass over the path's links cost twice as much per miss.
            row = self._row(target)
            tile = source
            while tile != target:
                hop = row[tile]
                link = id_of.get(tile * n + hop)
                if link is None:
                    raise self._unlisted(tile, hop)
                ids.append(link)
                tile = hop
        return tuple(ids)

    def _unlisted(self, tail: int, head: int) -> ConfigurationError:
        """The error of a route over link ``(tail, head)``, which is unlisted."""
        return ConfigurationError(
            f"{self!r} routes over link {(tail, head)}, which its topology "
            f"does not list"
        )

    def hop_count(self, source: int, target: int) -> int:
        """``K`` — number of routers traversed."""
        index = self._index(source, target)
        if self._eager:
            return int(self._hops[index])
        if self._dense_hops is not None:
            return int(self._dense_hops[index])
        if index not in self._hops:
            self._materialise(index, source, target)
        return self._hops[index]

    def bit_energy(self, source: int, target: int) -> float:
        """``EBit_ij`` of equation (2) for this pair, in pJ per bit."""
        index = self._index(source, target)
        if self._eager:
            return float(self._energy[index])
        if self._dense_energy is not None:
            return float(self._dense_energy[index])
        if index not in self._energy:
            self._materialise(index, source, target)
        return self._energy[index]

    def flat_bit_energy(self) -> Optional[np.ndarray]:
        """Row-major ``EBit`` array (``source * num_tiles + target``).

        Returns the dense per-pair energy vector — the same allocation
        :meth:`as_arrays` reshapes — for eager tables and for lazy tables
        that have been :meth:`warm_dense`-ed; ``None`` for cold lazy tables.
        Hot loops that get the array can index it directly and skip per-call
        method dispatch.
        """
        if self._eager:
            return self._energy
        return self._dense_energy

    # ------------------------------------------------------------------
    # Dense (vectorised) views
    # ------------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        """True when :meth:`as_arrays` can answer without densifying first."""
        return self._eager or self._dense_energy is not None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(n, n)`` matrices ``(energy, hops)`` of the whole table.

        ``energy[i, j]`` is ``bit_energy(i, j)`` (float64) and ``hops[i, j]``
        is ``hop_count(i, j)`` (int64).  The matrices are read-only reshape
        views of the table's own row-major storage — computed once, never
        copied — and are what :class:`repro.eval.vector.VectorizedCwmKernel`
        gathers from.  A cold lazy table raises
        :class:`~repro.utils.errors.ConfigurationError`; call
        :meth:`warm_dense` (which returns the same views) to densify it.
        """
        if self._eager:
            energy, hops = self._energy, self._hops
        elif self._dense_energy is not None:
            energy, hops = self._dense_energy, self._dense_hops
        else:
            raise ConfigurationError(
                f"{self!r} is lazy and has no dense matrices yet; call "
                f"warm_dense() to materialise them"
            )
        n = self.num_tiles
        return energy.reshape(n, n), hops.reshape(n, n)

    def warm_dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """Densify the numeric halves of a lazy table in one pass.

        A routing with next-hop rows gives every pair's hop count from the
        trees' depths, as an eager table does, without calling
        :meth:`~repro.noc.routing.RoutingAlgorithm.route`.  Any other
        routing *reuses* the pairs already in the per-pair memo and walks
        only the missing ones.  Energies follow from the hop counts.  Paths
        and links stay lazy (densifying them would cost the O(n^2) tuple
        storage the lazy mode exists to avoid) — after warming,
        ``hop_count``/``bit_energy`` answer from the dense matrices while
        ``path``/``links`` keep memoising per pair.  Idempotent; eager
        tables are already dense.

        Returns
        -------
        (energy, hops):
            The same read-only ``(n, n)`` views :meth:`as_arrays` returns.
        """
        if not self._eager and self._dense_energy is None:
            array = self.routing.next_hop_array(self.mesh)
            hops = self._walked_hops() if array is None else self._tree_hops(array)
            self._dense_hops = _freeze(hops)
            self._dense_energy = _freeze(
                _route_energies(self.technology, hops, self.include_local)
            )
        return self.as_arrays()

    def _walked_hops(self) -> np.ndarray:
        """Every pair's hop count, row-major: memoised pairs, else the route walk."""
        n = self.num_tiles
        hops = np.empty(n * n, dtype=np.int64)
        memo = self._hops
        mesh, routing = self.mesh, self.routing
        index = 0
        for source in range(n):
            for target in range(n):
                cached = memo.get(index)
                if cached is None:
                    cached = len(routing.route(mesh, source, target))
                hops[index] = cached
                index += 1
        return hops

    @property
    def num_links(self) -> int:
        """Directed links of the topology: link ids run below it."""
        return self.link_keys.size

    def link_csr(
        self, pairs: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route links as link ids, in CSR form.

        Link ids index the sorted ``topology.links()``.  Row ``r`` holds the
        links of one route, in route order, as ``indices[indptr[r]:indptr[r +
        1]]`` — the integer form of :meth:`links`, which the link-load gather
        of :meth:`~repro.eval.vector.VectorizedCwmKernel.link_load_stats`
        reads.

        Parameters
        ----------
        pairs:
            Row-major pair indices (``source * num_tiles + target``).  Row
            ``r`` is then the route of ``pairs[r]``, converted on every call
            from :meth:`links`, so a lazy table routes and memoises only the
            pairs asked for, each once.  Without *pairs* the rows are all
            ``num_tiles ** 2`` pairs in row-major order: an eager table builds
            that CSR on first use (never at construction) and memoises it,
            gathering a table built from next-hop rows straight from their
            array, and a lazy table raises
            :class:`~repro.utils.errors.ConfigurationError` rather than route
            every pair and hold ids for all of them.

        Returns
        -------
        (indptr, indices):
            Read-only int32 arrays of ``rows + 1`` offsets and of link ids.

        Raises
        ------
        ConfigurationError
            If a route crosses a link the topology does not list, as
            :meth:`link_ids` does; a walked tile outside the table names
            its link.
        """
        if pairs is not None:
            n = self.num_tiles
            return self._to_csr(
                [self.links(*divmod(pair, n)) for pair in pairs.tolist()]
            )
        if not self._eager:
            raise ConfigurationError(
                f"{self!r} is lazy; pass the pairs whose links are needed"
            )
        if self._link_csr is None:
            if self._rows is None:
                pairs = range(self.num_tiles * self.num_tiles)
                self._link_csr = self._to_csr([self._links[pair] for pair in pairs])
            else:
                self._link_csr = self._tree_csr()
        return self._link_csr

    @property
    def link_keys(self) -> np.ndarray:
        """``tail * num_tiles + head`` of every topology link, by link id.

        A read-only int64 array of the sorted ``topology.links()``, built on
        first use: the one numbering of :meth:`link_ids`, :meth:`link_csr`
        and :attr:`num_links`.  The keys ascend with the ids, so a binary
        search maps a link to its id without an ``(n, n)`` lookup array.
        """
        if self._link_keys is None:
            self._link_keys = _topology_link_keys(self.mesh)
        return self._link_keys

    def _tree_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Link-id CSR of every pair, gathered along the next-hop array.

        Every tile but the target leads its route on, so the link leaving
        each entry of the array gets its id first (and a link the topology
        does not list raises).  Then all routes
        advance in lockstep: step ``k`` writes the ``k``-th link id of every
        route with more than ``k`` links and moves each on by one hop.
        """
        n = self.num_tiles
        next_hops = self._next_hops  # [target][tile]
        tiles = np.arange(n, dtype=np.int64)
        leads = tiles[:, None] != tiles  # every entry off the diagonal
        link_of = np.zeros((n, n), dtype=np.int32)
        link_of[leads] = self._link_ids((tiles * n + next_hops)[leads])
        link_of, next_hops = link_of.ravel(), next_hops.ravel()
        counts = self._hops - 1
        indptr = np.zeros(n * n + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(counts)
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        routes = np.flatnonzero(counts)
        position = indptr[routes].astype(np.int64)
        tile, target = np.divmod(routes, n)
        while position.size:
            entry = target * n + tile
            indices[position] = link_of[entry]
            tile = next_hops[entry]
            position += 1
            going = tile != target
            tile, target, position = tile[going], target[going], position[going]
        return _freeze(indptr), _freeze(indices)

    def _to_csr(
        self, routes: List[Tuple[Tuple[int, int], ...]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Link-id CSR of *routes*, one row per route."""
        n = self.num_tiles
        counts = np.fromiter(map(len, routes), dtype=np.int64, count=len(routes))
        blocks = [np.empty(0, dtype=np.int32)]
        # Blocks of routes keep the temporaries small.
        for start in range(0, len(routes), _CSR_BLOCK_ROUTES):
            block = routes[start : start + _CSR_BLOCK_ROUTES]
            ends = np.fromiter(
                chain.from_iterable(chain.from_iterable(block)), dtype=np.int64
            )
            # A tile outside the table would alias another link's key.
            outside = np.flatnonzero((ends < 0) | (ends >= n))
            if outside.size:
                tail = int(outside[0]) & ~1  # the tail of the first such link
                raise self._unlisted(int(ends[tail]), int(ends[tail + 1]))
            ids = self._link_ids(ends[0::2] * n + ends[1::2])
            blocks.append(ids.astype(np.int32))
        indptr = np.zeros(len(routes) + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(counts)
        return _freeze(indptr), _freeze(np.concatenate(blocks))

    def _link_ids(self, wanted: np.ndarray) -> np.ndarray:
        """Ids of the links keyed ``tail * num_tiles + head``; unlisted ones raise."""
        keys = self.link_keys
        ids = np.searchsorted(keys, wanted)
        if ids.size and (ids.max() >= keys.size or (keys[ids] != wanted).any()):
            raise ConfigurationError(
                f"{self!r} routes over a link its topology does not list"
            )
        return ids

    def __repr__(self) -> str:
        mode = "precomputed" if self._eager else "lazy"
        return (
            f"RouteTable({self.mesh}, {self.routing.name} routing, "
            f"{self.technology.name}, {mode})"
        )


# ----------------------------------------------------------------------
# Process-wide sharing
# ----------------------------------------------------------------------
_TABLE_CACHE: Dict[Tuple, RouteTable] = {}

#: Upper bound on distinct cached tables (sweeps over many platforms evict
#: the oldest entries instead of growing without bound).
_TABLE_CACHE_LIMIT = 32


_LINK_KEYS_CACHE: Dict[Tuple, np.ndarray] = {}


def _topology_link_keys(mesh: "Topology") -> np.ndarray:
    """The read-only sorted link keys of *mesh*, built once per topology.

    Every table over one topology (co-design builds one per routing) reads
    the same keys.  Topologies are keyed on their ``cache_token`` and the
    cache is bounded like the table cache; one without a token is not
    cached.
    """
    token = getattr(mesh, "cache_token", None)
    keys = _LINK_KEYS_CACHE.get(token) if token is not None else None
    if keys is None:
        n = mesh.num_tiles
        listed = [tail * n + head for tail, head in sorted(mesh.links())]
        keys = _freeze(np.array(listed, dtype=np.int64))
        if token is not None:
            while len(_LINK_KEYS_CACHE) >= _TABLE_CACHE_LIMIT:
                _LINK_KEYS_CACHE.pop(next(iter(_LINK_KEYS_CACHE)))
            _LINK_KEYS_CACHE[token] = keys
    return keys


def _routing_token(routing: "RoutingAlgorithm") -> Tuple:
    token = getattr(routing, "cache_token", None)
    if token is not None:
        return token
    cls = type(routing)
    return (cls.__module__, cls.__qualname__)


def _cache_key(platform: "Platform", include_local: bool) -> Tuple:
    return (
        topology_cache_token(platform.mesh),
        _routing_token(platform.routing),
        platform.technology,
        include_local,
    )


def get_route_table(platform: "Platform", include_local: bool = True) -> RouteTable:
    """Shared :class:`RouteTable` for *platform*.

    Tables are cached by ``(topology cache_token, routing cache_token,
    technology, include_local)``; every evaluator, scheduler and search
    helper bound to the same platform therefore reuses one table, and two
    topology objects share a table exactly when their tokens — which embed
    the concrete class, so wrap-capable subclasses never alias — agree.
    The cache assumes routing algorithms are deterministic and stateless
    (true for all of :mod:`repro.noc.routing`); a stateful custom algorithm
    should build :meth:`RouteTable.for_platform` directly.
    """
    key = _cache_key(platform, include_local)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = RouteTable.for_platform(platform, include_local=include_local)
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        _TABLE_CACHE[key] = table
    return table


def register_route_table(
    platform: "Platform", table: RouteTable, include_local: bool = True
) -> None:
    """Install *table* as the process-wide shared table for *platform*.

    Used by :func:`repro.eval.parallel.warm_route_table`, so that an eager
    table built above the lazy threshold is the one every subsequent
    :func:`get_route_table` call returns — large-NoC sweeps warm up once and
    then price serially (or in a pool) off the shared result.

    Parameters
    ----------
    platform:
        Platform the table was built for.
    table:
        The table to share; must match the platform's tile count.
    include_local:
        The local-link flag the table was built with (part of the cache key).
    """
    if table.num_tiles != platform.num_tiles:
        raise ConfigurationError(
            f"table covers {table.num_tiles} tiles but the platform has "
            f"{platform.num_tiles}"
        )
    key = _cache_key(platform, include_local)
    if key not in _TABLE_CACHE:  # overwriting an entry must not evict others
        while len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table


def is_shared_route_table(
    table: RouteTable, platform: "Platform", include_local: bool = True
) -> bool:
    """Whether *table* is the process-shared table for *platform*.

    Used by the picklable-light contexts to decide what travels across a
    process boundary: the shared table is dropped (workers rebuild an
    identical one via :func:`get_route_table`), while a custom table — e.g.
    one built for a stateful routing algorithm — must ship with the pickle,
    because a worker-side rebuild could resolve different routes and break
    the bit-identity contract of the parallel backend.

    Parameters
    ----------
    table:
        The table a context is bound to.
    platform:
        The context's platform.
    include_local:
        The local-link flag the context was built with.

    Returns
    -------
    bool
        True when *table* is exactly the cached shared instance.
    """
    return _TABLE_CACHE.get(_cache_key(platform, include_local)) is table


def clear_route_table_cache() -> None:
    """Drop all cached tables and link keys (used by tests and long-running sweeps)."""
    _TABLE_CACHE.clear()
    _LINK_KEYS_CACHE.clear()


__all__ = [
    "RouteTable",
    "get_route_table",
    "register_route_table",
    "is_shared_route_table",
    "clear_route_table_cache",
]
