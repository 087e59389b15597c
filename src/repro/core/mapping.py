"""Core-to-tile mappings.

A :class:`Mapping` is an injective assignment of application cores to NoC
tiles — one of the ``n!`` candidate solutions of the mapping problem stated in
Section 1 of the paper.  Mappings are immutable; the transformation methods
(:meth:`Mapping.swap_cores`, :meth:`Mapping.move_core`, ...) return new
objects, which keeps search-engine bookkeeping (best-so-far, history, tabu
lists) trivially correct.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.errors import MappingError
from repro.utils.rng import RandomSource, ensure_rng


class Mapping:
    """Immutable injective assignment of cores to tile indices.

    Parameters
    ----------
    assignments:
        Mapping from core name to tile index.
    num_tiles:
        Optional size of the target NoC; when given, every tile index is
        checked against it and the free-tile helpers become available.
    """

    __slots__ = ("_core_to_tile", "_tile_to_core", "_num_tiles", "_hash", "_key")

    def __init__(
        self,
        assignments: Dict[str, int] | Iterable[Tuple[str, int]],
        num_tiles: Optional[int] = None,
    ) -> None:
        core_to_tile = dict(assignments)
        tile_to_core: Dict[int, str] = {}
        for core, tile in core_to_tile.items():
            if not isinstance(tile, (int,)) or isinstance(tile, bool):
                raise MappingError(
                    f"tile index for core {core!r} must be an int, got {tile!r}"
                )
            if tile < 0:
                raise MappingError(
                    f"core {core!r} mapped to negative tile index {tile}"
                )
            if num_tiles is not None and tile >= num_tiles:
                raise MappingError(
                    f"core {core!r} mapped to tile {tile}, but the NoC only has "
                    f"{num_tiles} tiles"
                )
            if tile in tile_to_core:
                raise MappingError(
                    f"cores {tile_to_core[tile]!r} and {core!r} are both mapped "
                    f"to tile {tile}"
                )
            tile_to_core[tile] = core
        if num_tiles is not None and len(core_to_tile) > num_tiles:
            raise MappingError(
                f"{len(core_to_tile)} cores cannot be placed on {num_tiles} tiles"
            )
        self._core_to_tile = core_to_tile
        self._tile_to_core = tile_to_core
        self._num_tiles = num_tiles
        self._hash: Optional[int] = None
        # (core order, key row bytes) as an evaluation context last packed
        # them; cached like the hash, since contexts key every candidate.
        self._key: Optional[Tuple[Tuple[str, ...], bytes]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_trusted(
        cls,
        core_to_tile: Dict[str, int],
        tile_to_core: Dict[int, str],
        num_tiles: Optional[int],
    ) -> "Mapping":
        """Build a mapping from already-validated lookup tables.

        Internal fast path for the transformation methods: a swap or move of a
        valid mapping stays valid, so re-running the injectivity and range
        checks of ``__init__`` on every search move would only burn the hot
        path.  Callers must guarantee both dicts are consistent.
        """
        mapping = object.__new__(cls)
        mapping._core_to_tile = core_to_tile
        mapping._tile_to_core = tile_to_core
        mapping._num_tiles = num_tiles
        mapping._hash = None
        mapping._key = None
        return mapping

    @classmethod
    def random(
        cls,
        cores: Sequence[str],
        num_tiles: int,
        rng: RandomSource = None,
    ) -> "Mapping":
        """Uniformly random injective mapping of *cores* onto *num_tiles* tiles.

        This is the paper's initial condition: "Initially, all cores of C are
        randomly mapped onto the set of tiles".
        """
        cores = list(cores)
        if len(cores) > num_tiles:
            raise MappingError(
                f"{len(cores)} cores cannot be placed on {num_tiles} tiles"
            )
        generator = ensure_rng(rng)
        tiles = generator.permutation(num_tiles)[: len(cores)]
        return cls(
            {core: int(tile) for core, tile in zip(cores, tiles)},
            num_tiles=num_tiles,
        )

    @classmethod
    def identity(cls, cores: Sequence[str], num_tiles: Optional[int] = None) -> "Mapping":
        """Map the i-th core to tile i (a convenient deterministic baseline)."""
        cores = list(cores)
        total = num_tiles if num_tiles is not None else len(cores)
        return cls({core: idx for idx, core in enumerate(cores)}, num_tiles=total)

    @classmethod
    def from_index_array(
        cls,
        cores: Sequence[str],
        tiles: "np.ndarray | Sequence[int]",
        num_tiles: Optional[int] = None,
    ) -> "Mapping":
        """Rebuild a mapping from a tile-index row (:meth:`to_index_array` inverse).

        ``tiles[i]`` is the tile hosting ``cores[i]``; the two sequences must
        have equal length.  The usual constructor validation applies
        (injectivity, range when *num_tiles* is given), so
        ``Mapping.from_index_array(m.cores, m.to_index_array(), m.num_tiles)``
        round-trips to an equal mapping for any core order — though the
        *pinned* contract used by array populations everywhere is the default
        :meth:`to_index_array` order: the sorted core names of the bound CWG.

        Parameters
        ----------
        cores:
            Core names, positionally matching *tiles*.
        tiles:
            Integer tile indices (any integer dtype; one per core).
        num_tiles:
            Optional NoC size forwarded to the constructor.
        """
        cores = list(cores)
        if len(cores) != len(tiles):
            raise MappingError(
                f"{len(cores)} cores but {len(tiles)} tile indices"
            )
        return cls(
            {core: int(tile) for core, tile in zip(cores, tiles)},
            num_tiles=num_tiles,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> Optional[int]:
        return self._num_tiles

    @property
    def cores(self) -> List[str]:
        """Mapped cores, sorted for determinism."""
        return sorted(self._core_to_tile)

    @property
    def num_cores(self) -> int:
        return len(self._core_to_tile)

    def tile_of(self, core: str) -> int:
        """Tile index hosting *core*."""
        try:
            return self._core_to_tile[core]
        except KeyError as exc:
            raise MappingError(f"core {core!r} is not mapped") from exc

    def core_at(self, tile: int) -> Optional[str]:
        """Core hosted by *tile*, or ``None`` when the tile is empty."""
        return self._tile_to_core.get(tile)

    def assignments(self) -> Dict[str, int]:
        """Copy of the core -> tile dictionary."""
        return dict(self._core_to_tile)

    def to_index_array(self, cores: Optional[Sequence[str]] = None) -> np.ndarray:
        """Tile indices as an int64 row, one entry per core.

        This is the ``Mapping`` half of the array-population protocol used by
        the vectorised pricing kernel (:mod:`repro.eval.vector`): a population
        is a ``(pop, cores)`` int array whose row *r*, column *c* holds the
        tile of the *c*-th core.  The **pinned core-order contract** is the
        default ``cores=None`` order — :attr:`cores`, i.e. the sorted core
        names of the bound CWG — so arrays produced by different call sites
        always agree column-for-column.  Pass an explicit *cores* sequence
        only when interoperating with a kernel bound to a custom order.

        Raises
        ------
        MappingError
            If a requested core is not placed by this mapping.
        """
        order = self.cores if cores is None else cores
        lookup = self._core_to_tile
        row = np.empty(len(order), dtype=np.int64)
        for column, core in enumerate(order):
            try:
                row[column] = lookup[core]
            except KeyError as exc:
                raise MappingError(f"core {core!r} is not mapped") from exc
        return row

    def used_tiles(self) -> List[int]:
        """Tiles hosting a core, sorted."""
        return sorted(self._tile_to_core)

    def free_tiles(self) -> List[int]:
        """Tiles not hosting any core (requires ``num_tiles``)."""
        if self._num_tiles is None:
            raise MappingError(
                "free_tiles() requires the mapping to know the NoC size"
            )
        used = set(self._tile_to_core)
        return [tile for tile in range(self._num_tiles) if tile not in used]

    def has_core(self, core: str) -> bool:
        return core in self._core_to_tile

    # ------------------------------------------------------------------
    # Transformations (all return new Mapping objects)
    # ------------------------------------------------------------------
    def swap_cores(self, core_a: str, core_b: str) -> "Mapping":
        """Exchange the tiles of two cores."""
        tile_a = self.tile_of(core_a)
        tile_b = self.tile_of(core_b)
        core_to_tile = dict(self._core_to_tile)
        core_to_tile[core_a] = tile_b
        core_to_tile[core_b] = tile_a
        tile_to_core = dict(self._tile_to_core)
        tile_to_core[tile_a] = core_b
        tile_to_core[tile_b] = core_a
        return Mapping._from_trusted(core_to_tile, tile_to_core, self._num_tiles)

    def swap_tiles(self, tile_a: int, tile_b: int) -> "Mapping":
        """Exchange the contents of two tiles (either may be empty)."""
        if self._num_tiles is not None:
            for tile in (tile_a, tile_b):
                if not 0 <= tile < self._num_tiles:
                    raise MappingError(
                        f"tile {tile} outside the {self._num_tiles}-tile NoC"
                    )
        core_a = self._tile_to_core.get(tile_a)
        core_b = self._tile_to_core.get(tile_b)
        core_to_tile = dict(self._core_to_tile)
        tile_to_core = dict(self._tile_to_core)
        tile_to_core.pop(tile_a, None)
        tile_to_core.pop(tile_b, None)
        if core_a is not None:
            core_to_tile[core_a] = tile_b
            tile_to_core[tile_b] = core_a
        if core_b is not None:
            core_to_tile[core_b] = tile_a
            tile_to_core[tile_a] = core_b
        return Mapping._from_trusted(core_to_tile, tile_to_core, self._num_tiles)

    def move_core(self, core: str, tile: int) -> "Mapping":
        """Move *core* to *tile*; if the tile is occupied the occupant swaps back."""
        current = self.tile_of(core)
        occupant = self.core_at(tile)
        assignments = self.assignments()
        assignments[core] = tile
        if occupant is not None and occupant != core:
            assignments[occupant] = current
        return Mapping(assignments, self._num_tiles)

    def relabel_tiles(self, permutation: Dict[int, int]) -> "Mapping":
        """Apply a tile permutation (used by symmetry-reduction utilities)."""
        assignments = {
            core: permutation.get(tile, tile)
            for core, tile in self._core_to_tile.items()
        }
        return Mapping(assignments, self._num_tiles)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._core_to_tile.items()))

    def __len__(self) -> int:
        return len(self._core_to_tile)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._core_to_tile == other._core_to_tile

    def __hash__(self) -> int:
        # Mappings are immutable, so the hash is computed once and cached.
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._core_to_tile.items())))
        return self._hash

    def __getstate__(self) -> Tuple[Dict[str, int], Dict[int, str], Optional[int]]:
        # The caches stay behind: string hashes are salted per process, so a
        # hash cached in one would not match an equal mapping's in another.
        return self._core_to_tile, self._tile_to_core, self._num_tiles

    def __setstate__(
        self, state: Tuple[Dict[str, int], Dict[int, str], Optional[int]]
    ) -> None:
        self._core_to_tile, self._tile_to_core, self._num_tiles = state
        self._hash = None
        self._key = None

    def __repr__(self) -> str:
        body = ", ".join(f"{core}->tau{tile}" for core, tile in self)
        return f"Mapping({body})"


__all__ = ["Mapping"]
