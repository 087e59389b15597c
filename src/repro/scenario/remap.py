"""Incremental region remapping: re-search only what an event touched.

When the fabric degrades (or an application arrives), re-searching every
placement from scratch throws away all the optimisation work that survived
the event.  This module implements the alternative the scenario engine
defaults to:

* :func:`affected_cores` computes the *remap scope* of a fabric change —
  cores sitting on dead tiles, plus the endpoints of every flow whose route
  differs between the old and the new fabric (covers failures *and*
  repairs: a repaired link changes routes back);
* :class:`RegionObjective` exposes a restricted placement sub-problem
  ("place these movable cores on this allowed tile set, everything else
  pinned") through the standard objective protocol, so **any** engine from
  the search registry (:func:`~repro.search.registry.get_searcher`) can
  drive the re-search: the engine works in a compact virtual index space
  over the allowed tiles while every candidate is priced as a *full*
  mapping through the application's real
  :class:`~repro.eval.context.EvaluationContext` (memo, vectorised kernel
  and batch backends included via ``supports_batch``);
* :func:`remap_region` runs one such search deterministically and returns
  the movable cores' new tiles.

Tile indices at this layer are *local* to the current
:class:`~repro.scenario.fabric.FabricView`; the runner owns the base↔local
translation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import EvaluationContext
from repro.scenario.fabric import FabricView
from repro.search.base import Searcher
from repro.utils.errors import ConfigurationError, MappingError


def affected_cores(
    flows: Iterable[Tuple[str, str]],
    placement: Dict[str, int],
    old_view: FabricView,
    new_view: FabricView,
) -> Set[str]:
    """Cores of one application whose placement a fabric change invalidates.

    A core is affected when it sits on a tile that died, or when it is an
    endpoint of a flow whose deterministic route differs between *old_view*
    and *new_view* (computed in base tile indices, so the comparison is
    meaningful across the two compactions).  Everything else keeps both its
    tile and its routes, and may be pinned.

    Parameters
    ----------
    flows:
        ``(source_core, target_core)`` pairs of the application.
    placement:
        Current placement in base tile indices.
    old_view, new_view:
        Fabric views before and after the event.
    """
    affected: Set[str] = {
        core
        for core, tile in placement.items()
        if tile not in new_view.to_local
    }
    for source, target in flows:
        source_tile = placement[source]
        target_tile = placement[target]
        if source_tile == target_tile:
            continue
        if source in affected or target in affected:
            continue
        if (
            source_tile not in new_view.to_local
            or target_tile not in new_view.to_local
        ):
            affected.update((source, target))
            continue
        if old_view.route_base(source_tile, target_tile) != new_view.route_base(
            source_tile, target_tile
        ):
            affected.update((source, target))
    return affected


class RegionObjective:
    """A pinned-region placement sub-problem behind the objective protocol.

    Engines see a virtual mapping problem over ``len(allowed_tiles)`` tiles
    (virtual tile ``j`` *is* ``allowed_tiles[j]``); every candidate is
    completed with the pinned placement and priced as a full mapping
    through the wrapped context — so region searches share the context's
    memo and, through ``supports_batch`` / ``evaluate_batch``, its
    vectorised kernel and batch backends.  Swap-delta pricing is
    deliberately not advertised (a virtual swap is not a full-mapping swap),
    which makes delta-aware engines fall back to full pricing — correct for
    any engine the registry can produce.

    Parameters
    ----------
    context:
        The application's evaluation context on the current fabric (local
        tile space).
    pinned:
        ``{core: local_tile}`` for every core *not* being re-searched.
    movable:
        Cores being re-searched, in a fixed order.
    allowed_tiles:
        Local tiles the movable cores may occupy (must not intersect the
        pinned tiles and must hold all movable cores).
    """

    #: Capability flags probed by the search engines.
    supports_delta = False
    supports_batch = True
    supports_rows = True

    def __init__(
        self,
        context: EvaluationContext,
        pinned: Dict[str, int],
        movable: Sequence[str],
        allowed_tiles: Sequence[int],
    ) -> None:
        if len(set(allowed_tiles)) != len(allowed_tiles):
            raise ConfigurationError("allowed_tiles must be distinct")
        if len(allowed_tiles) < len(movable):
            raise ConfigurationError(
                f"{len(movable)} movable cores cannot fit on "
                f"{len(allowed_tiles)} allowed tiles"
            )
        overlap = set(allowed_tiles) & set(pinned.values())
        if overlap:
            raise ConfigurationError(
                f"allowed tiles {sorted(overlap)} are already pinned"
            )
        self._context = context
        self._pinned = dict(pinned)
        self._movable = tuple(movable)
        self._allowed = tuple(allowed_tiles)
        self._num_local = context.platform.num_tiles

    # NOTE: deliberately no ``context`` attribute — result-breakdown probes
    # (``objective_metrics``) prefer a bound context over the objective, and
    # the wrapped context speaks local tile space, not the virtual space the
    # engine's mappings live in.  The probes fall back to :meth:`metrics`,
    # which translates.

    @property
    def allowed_tiles(self) -> Tuple[int, ...]:
        """The local tiles the movable cores are searched over."""
        return self._allowed

    @property
    def movable(self) -> Tuple[str, ...]:
        """The cores being re-searched, in virtual-problem order."""
        return self._movable

    def initial_mapping(self, current: Optional[Dict[str, int]] = None) -> Mapping:
        """Deterministic virtual starting point for the search.

        Movable cores that currently sit on an allowed tile keep it; the
        rest take the lowest unused allowed slots in order — so an
        unperturbed region prices identically to the incumbent placement on
        the first evaluation.
        """
        current = current or {}
        tile_to_virtual = {tile: index for index, tile in enumerate(self._allowed)}
        taken: Set[int] = set()
        assignment: Dict[str, int] = {}
        for core in self._movable:
            virtual = tile_to_virtual.get(current.get(core, -1))
            if virtual is not None and virtual not in taken:
                assignment[core] = virtual
                taken.add(virtual)
        free = [index for index in range(len(self._allowed)) if index not in taken]
        for core in self._movable:
            if core not in assignment:
                assignment[core] = free.pop(0)
        return Mapping(assignment, num_tiles=len(self._allowed))

    def translate(self, virtual: Mapping) -> Mapping:
        """Complete a virtual candidate into a full local-space mapping."""
        assignment = dict(self._pinned)
        for core in self._movable:
            assignment[core] = self._allowed[virtual.tile_of(core)]
        return Mapping(assignment, num_tiles=self._num_local)

    def placement(self, virtual: Mapping) -> Dict[str, int]:
        """Local tiles chosen for the movable cores by a virtual candidate."""
        return {
            core: self._allowed[virtual.tile_of(core)] for core in self._movable
        }

    def __call__(self, virtual: Mapping) -> float:
        """Full-mapping cost of a virtual candidate (the engine contract)."""
        return self._context.cost(self.translate(virtual))

    def translate_rows(
        self, virtuals, cores: Sequence[str]
    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """Complete virtual tile rows into local rows, and their core order.

        *virtuals* is a ``(pop, len(cores))`` array of virtual tiles, column
        *c* holding core ``cores[c]``; the local rows list the pinned cores
        first, then the movable ones, each movable core on
        ``allowed_tiles[virtual tile]`` — :meth:`translate`, row by row.

        Raises
        ------
        MappingError
            When a movable core has no column, or a virtual tile is outside
            the region.
        """
        rows = np.asarray(virtuals)
        if rows.ndim != 2 or rows.shape[1] != len(cores):
            raise MappingError(
                f"expected a (pop, {len(cores)}) tile array for {len(cores)} "
                f"cores, got shape {rows.shape}"
            )
        position = {core: column for column, core in enumerate(cores)}
        missing = [core for core in self._movable if core not in position]
        if missing:
            raise MappingError(f"core {missing[0]!r} is not mapped")
        moved = rows[:, [position[core] for core in self._movable]]
        if moved.size and (moved.min() < 0 or moved.max() >= len(self._allowed)):
            raise MappingError(
                f"virtual tile outside the {len(self._allowed)}-tile region"
            )
        local = np.empty((len(rows), len(self._pinned) + len(self._movable)), np.int64)
        local[:, : len(self._pinned)] = list(self._pinned.values())
        local[:, len(self._pinned) :] = np.asarray(self._allowed, np.int64)[moved]
        return local, tuple(self._pinned) + self._movable

    def evaluate_batch(self, virtuals, backend=None, cores=None) -> List[float]:
        """Bulk pricing of virtual candidates through the context's batch seam.

        Takes :class:`~repro.core.mapping.Mapping` objects, or a virtual
        tile array with its *cores* (see :meth:`translate_rows`).
        """
        if cores is not None:
            local, order = self.translate_rows(virtuals, cores)
            return self._context.evaluate_batch(local, backend=backend, cores=order)
        return self._context.evaluate_batch(
            [self.translate(virtual) for virtual in virtuals], backend=backend
        )

    def metrics(self, virtual: Mapping) -> MetricVector:
        """Full-mapping component vector of a virtual candidate."""
        return self._context.metrics(self.translate(virtual))

    def evaluate_metrics_batch(
        self, virtuals, backend=None, cores=None
    ) -> Union[List[MetricVector], np.ndarray]:
        """Bulk component vectors of virtual candidates (vector engines).

        A virtual tile array with its *cores* returns a ``(pop, k)`` array
        (see :meth:`translate_rows`).
        """
        if cores is not None:
            local, order = self.translate_rows(virtuals, cores)
            return self._context.evaluate_metrics_batch(
                local, backend=backend, cores=order
            )
        return self._context.evaluate_metrics_batch(
            [self.translate(virtual) for virtual in virtuals], backend=backend
        )

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Component names of the wrapped context."""
        return self._context.metric_names

    @property
    def weights(self) -> Dict[str, float]:
        """Scalarisation weights of the wrapped context."""
        return self._context.weights

    def __repr__(self) -> str:
        return (
            f"RegionObjective({len(self._movable)} movable over "
            f"{len(self._allowed)} tiles, {len(self._pinned)} pinned)"
        )


def remap_region(
    context: EvaluationContext,
    placement: Dict[str, int],
    movable: Sequence[str],
    allowed_tiles: Sequence[int],
    engine: Searcher,
    rng,
) -> Dict[str, int]:
    """Re-search *movable* cores over *allowed_tiles* with *engine*.

    Parameters
    ----------
    context:
        The application's evaluation context on the current fabric.
    placement:
        Current full placement in local tile indices (movable cores whose
        tile survived seed the search; pinned cores keep theirs).
    movable:
        Cores to re-place (deterministic order).
    allowed_tiles:
        Local tiles the movable cores may use.
    engine:
        Any :class:`~repro.search.base.Searcher` (registry engines
        included).
    rng:
        Seeded randomness source for the engine.

    Returns
    -------
    dict
        ``{core: local_tile}`` for the movable cores only.
    """
    movable = tuple(movable)
    if not movable:
        return {}
    pinned = {
        core: tile for core, tile in placement.items() if core not in movable
    }
    objective = RegionObjective(context, pinned, movable, allowed_tiles)
    initial = objective.initial_mapping(placement)
    if len(movable) == len(allowed_tiles) == 1:
        # Nothing to search: one core, one slot.
        return objective.placement(initial)
    result = engine.search(objective, initial, rng=rng)
    return objective.placement(result.best_mapping)


__all__ = [
    "affected_cores",
    "RegionObjective",
    "remap_region",
]
