"""Array pricing kernel — NumPy batch evaluation of whole populations.

The CWM objective (equation 3) is a sum over CWG edges of
``bits x EBit(tile_source, tile_target)`` — a pure gather over the per-pair
energy table of :class:`~repro.eval.route_table.RouteTable`.  This module
prices an entire population with a handful of NumPy gathers and reductions
instead of one Python loop per candidate:

* a population is a ``(pop, cores)`` int64 array of tile indices whose
  column order is the **pinned core-order contract** — the sorted core names
  of the bound CWG (see :meth:`repro.core.mapping.Mapping.to_index_array`);
* :class:`VectorizedCwmKernel` binds one application as flat edge arrays
  (``src_idx``, ``tgt_idx``, ``bits``) plus the dense route-table matrices
  (:meth:`~repro.eval.route_table.RouteTable.as_arrays`) and prices the whole
  array at once;
* :func:`population_to_array` stacks :class:`~repro.core.mapping.Mapping`
  objects (or assignment dicts) into such an array.

**Bit-identity.**  The kernel is not merely approximately equal to the scalar
path — it is bit-identical, the same way inline and pooled pricing are.  The
scalar accumulator adds per-edge contributions left to right in CWG edge
order; a matmul or ``np.sum`` would use pairwise summation and round
differently, so the kernel reduces each row with ``np.add.accumulate`` (a
strictly sequential cumulative sum) over the same edge order.  This is what
lets the vector path be default-on without perturbing a single
accept/reject decision, and what the property tests in
``tests/test_vector.py`` pin.

:class:`~repro.eval.context.CwmEvaluationContext` prices every batch chunk
through the kernel by default (:data:`DEFAULT_VECTORIZE`); a context built
with ``vectorize=False`` keeps the scalar loop as the reference the kernel
is checked against.  The population engines never build the array from
mappings: they breed tile rows and hand the context a ``(pop, cores)``
array (``evaluate_metrics_batch(tiles, cores=...)``), whose misses reach
:meth:`VectorizedCwmKernel.price` with no per-candidate objects on the way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.core.mapping import Mapping
from repro.utils.errors import ConfigurationError, MappingError

if TYPE_CHECKING:  # pragma: no cover - imports only used by type checkers
    from repro.eval.route_table import RouteTable
    from repro.graphs.cwg import CWG

#: Default state of the ``vectorize`` gate on contexts that support it.
DEFAULT_VECTORIZE = True

#: Upper bound on the number of gathered elements a single pricing block may
#: materialise; larger populations are priced in row blocks.  The bound is
#: sized for cache, not only for memory: a link-load block's
#: (candidate, edge, route position) stream and its int64 and float64
#: temporaries stay within one core's L2, where a whole 128-row batch of
#: the 8x8 NSGA-II shape (an ~80k-element stream) did not.  Of 2**15, 2**16
#: and 2**17, 2**15 priced that shape fastest in alternating benchmark runs.
_MAX_GATHER_ELEMENTS = 1 << 15


def _block_rows(pop: int, row_elements: int) -> int:
    """Rows per pricing block of *pop* (at least 1) rows, shared out evenly.

    Each block holds at most :data:`_MAX_GATHER_ELEMENTS` elements at
    *row_elements* per row (but at least one row); the rows are shared out
    evenly over the fewest such blocks, so no block is a short remainder.
    """
    most = max(1, _MAX_GATHER_ELEMENTS // row_elements)
    blocks = -(-pop // most)
    return -(-pop // blocks)


def population_to_array(
    mappings: Iterable[Union[Mapping, Dict[str, int]]],
    cores: Sequence[str],
    num_tiles: Optional[int] = None,
) -> np.ndarray:
    """Stack candidates into a ``(pop, len(cores))`` int64 tile array.

    Column *c* of every row holds the tile of ``cores[c]`` — pass the pinned
    order (the sorted core names of the bound CWG, i.e.
    :attr:`Mapping.cores` / a kernel's
    :attr:`VectorizedCwmKernel.core_order`) so arrays from different call
    sites agree column-for-column.  Accepts both :class:`Mapping` objects and
    plain assignment dicts.

    Parameters
    ----------
    mappings:
        Candidates to convert.
    cores:
        Column order; every candidate must place each of these cores.
    num_tiles:
        Optional NoC size; when given, tile indices are range-checked.

    Raises
    ------
    MappingError
        If a candidate misses one of *cores*, or a tile is out of range.
    """
    order = list(cores)
    items = list(mappings)
    out = np.empty((len(items), len(order)), dtype=np.int64)
    for row, mapping in enumerate(items):
        if isinstance(mapping, Mapping):
            out[row] = mapping.to_index_array(order)
        else:
            try:
                for column, core in enumerate(order):
                    out[row, column] = mapping[core]
            except KeyError as exc:
                raise MappingError(
                    f"mapping does not place core {exc.args[0]!r}"
                ) from exc
    if num_tiles is not None and out.size:
        low, high = int(out.min()), int(out.max())
        if low < 0 or high >= num_tiles:
            bad = low if low < 0 else high
            raise MappingError(
                f"tile index {bad} outside the {num_tiles}-tile NoC"
            )
    return out


class VectorizedCwmKernel:
    """One application bound as flat edge arrays over a dense route table.

    The kernel snapshots the application's communications as three flat
    arrays — ``src_idx``/``tgt_idx`` (column positions of each edge's
    endpoints in :attr:`core_order`) and ``bits`` — plus the dense
    ``(n, n)`` energy and hops matrices of the route table, and prices a
    whole ``(pop, cores)`` population per call.  Per-edge contributions are
    reduced left to right in the application's edge order with
    ``np.add.accumulate``, so every priced value is bit-identical to the
    scalar accumulator of
    :meth:`~repro.eval.context.CwmEvaluationContext._compute_metrics`.

    Build kernels with :meth:`from_cwg` (CWM, equation 3) or
    :meth:`from_edges` (an explicit edge snapshot).

    Parameters
    ----------
    edges:
        ``(source_core, target_core, bits)`` triples, in accumulation order.
    route_table:
        Table supplying the dense matrices; lazy tables are densified via
        :meth:`~repro.eval.route_table.RouteTable.warm_dense` (pairs already
        memoised are reused, not re-routed).
    core_order:
        Column order of the populations this kernel prices.  The pinned
        contract is the sorted core names of the bound application; pass it
        explicitly only to interoperate with arrays built in a custom order.
    name:
        Optional label used in ``repr``.
    """

    __slots__ = (
        "core_order",
        "num_tiles",
        "name",
        "_src_idx",
        "_tgt_idx",
        "_bits",
        "_required",
        "_energy",
        "_hops",
        "_route_table",
    )

    def __init__(
        self,
        edges: Sequence[Tuple[str, str, int]],
        route_table: "RouteTable",
        core_order: Sequence[str],
        name: str = "cwm-kernel",
    ) -> None:
        self.core_order: Tuple[str, ...] = tuple(core_order)
        self.num_tiles = route_table.num_tiles
        self.name = name
        column = {core: index for index, core in enumerate(self.core_order)}
        if len(column) != len(self.core_order):
            raise ConfigurationError(
                f"core_order contains duplicate names: {self.core_order!r}"
            )
        edge_list = list(edges)
        src = np.empty(len(edge_list), dtype=np.int64)
        tgt = np.empty(len(edge_list), dtype=np.int64)
        bits = np.empty(len(edge_list), dtype=np.float64)
        for index, (source, target, volume) in enumerate(edge_list):
            try:
                src[index] = column[source]
                tgt[index] = column[target]
            except KeyError as exc:
                raise ConfigurationError(
                    f"edge core {exc.args[0]!r} missing from core_order"
                ) from exc
            bits[index] = volume
        self._src_idx = src
        self._tgt_idx = tgt
        self._bits = bits
        self._required = frozenset(
            core for source, target, _ in edge_list for core in (source, target)
        )
        self._energy, self._hops = route_table.warm_dense()
        self._route_table = route_table

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Tuple[str, str, int]],
        route_table: "RouteTable",
        core_order: Sequence[str],
        name: str = "cwm-kernel",
    ) -> "VectorizedCwmKernel":
        """Kernel over an explicit ``(source, target, bits)`` edge snapshot.

        This is what :class:`~repro.eval.context.CwmEvaluationContext` uses:
        the context snapshots its edges at construction, and building the
        kernel from the same snapshot guarantees the two paths accumulate in
        the same order even if the live CWG is mutated afterwards.
        """
        return cls(edges, route_table, core_order, name=name)

    @classmethod
    def from_cwg(
        cls,
        cwg: "CWG",
        route_table: "RouteTable",
        core_order: Optional[Sequence[str]] = None,
    ) -> "VectorizedCwmKernel":
        """Kernel pricing equation (3) for *cwg* over *route_table*.

        Edges bind in ``cwg.communications()`` order (the scalar
        accumulation order); *core_order* defaults to the pinned contract,
        the sorted core names of the CWG.
        """
        order = sorted(cwg.cores) if core_order is None else core_order
        edges = [
            (comm.source, comm.target, comm.bits)
            for comm in cwg.communications()
        ]
        return cls(edges, route_table, order, name=f"cwm-kernel({cwg.name})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of bound communications (rows of the flat edge arrays)."""
        return int(self._src_idx.size)

    @property
    def required_cores(self) -> frozenset:
        """Cores referenced by at least one edge.

        Only these columns are ever gathered; candidates may leave the other
        (isolated) cores unplaced, exactly as the scalar path allows.
        """
        return self._required

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def _validate(self, tiles: np.ndarray) -> np.ndarray:
        array = np.asarray(tiles, dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != len(self.core_order):
            raise MappingError(
                f"expected a (pop, {len(self.core_order)}) tile array for "
                f"{self.name}, got shape {np.shape(tiles)}"
            )
        if array.size:
            low, high = int(array.min()), int(array.max())
            if low < 0 or high >= self.num_tiles:
                bad = low if low < 0 else high
                raise MappingError(
                    f"tile index {bad} outside the {self.num_tiles}-tile NoC"
                )
        return array

    def price(self, tiles: np.ndarray) -> np.ndarray:
        """Dynamic energy of every candidate row, bit-identical to scalar.

        Gathers ``EBit`` for each edge's ``(source_tile, target_tile)`` pair,
        multiplies by the edge's bit volume, and reduces each row with a
        strictly sequential cumulative sum — the float-for-float twin of the
        scalar left-to-right accumulator.  Large populations are priced in
        cache-sized row blocks (:data:`_MAX_GATHER_ELEMENTS`).

        Parameters
        ----------
        tiles:
            ``(pop, cores)`` integer array in :attr:`core_order` column
            order.

        Returns
        -------
        numpy.ndarray
            ``(pop,)`` float64 energies (zeros when the application has no
            communications; empty for an empty population).
        """
        array = self._validate(tiles)
        pop = array.shape[0]
        out = np.empty(pop, dtype=np.float64)
        if pop == 0:
            return out
        if self._src_idx.size == 0:
            out.fill(0.0)
            return out
        block = _block_rows(pop, self._src_idx.size)
        for start in range(0, pop, block):
            rows = array[start : start + block]
            contrib = self._bits * self._energy[
                rows[:, self._src_idx], rows[:, self._tgt_idx]
            ]
            np.add.accumulate(contrib, axis=1, out=contrib)
            out[start : start + block] = contrib[:, -1]
        return out

    def link_load_stats(self, tiles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Hottest-link load and total link load of every candidate row.

        Every edge's volume is pushed onto each link of its route, read from
        the route table's :meth:`~repro.eval.route_table.RouteTable.link_csr`.
        ``np.bincount`` over the flattened (candidate, edge, route position)
        stream adds each link's load in the order of the scalar loop of
        :class:`~repro.codesign.load.LoadAwareCwmContext`, so every load is
        bit-identical to it.  The total adds the loads in link-id (sorted
        link) order with ``np.add.accumulate``, the order
        :func:`~repro.codesign.load.link_load_spread` sums in.  Rows are
        priced in cache-sized blocks: a block's stream holds at most
        :data:`_MAX_GATHER_ELEMENTS` elements were every route the longest,
        and each row's loads come from its own stream in the scalar order,
        so the blocking moves no value.  An eager table serves one
        memoised CSR of all pairs; a lazy table converts only each block's
        distinct pairs, routing and memoising each pair once, as the scalar
        loop does.

        Parameters
        ----------
        tiles:
            ``(pop, cores)`` integer array in :attr:`core_order` column
            order.

        Returns
        -------
        (peaks, totals):
            ``(pop,)`` float64 arrays: the hottest link's load and the sum
            of all link loads (zeros when nothing crosses a link).
        """
        array = self._validate(tiles)
        pop = array.shape[0]
        peaks = np.zeros(pop, dtype=np.float64)
        totals = np.zeros(pop, dtype=np.float64)
        table = self._route_table
        num_links = table.num_links
        edges = self._src_idx.size
        if pop == 0 or edges == 0 or num_links == 0:
            return peaks, totals
        if table.is_precomputed:
            indptr, indices = table.link_csr()
        # A route crosses one link fewer than the routers it visits.
        longest = int(self._hops.max()) - 1
        block = _block_rows(pop, max(edges * longest, num_links))
        for start in range(0, pop, block):
            rows = array[start : start + block]
            count = rows.shape[0]
            pairs = rows[:, self._src_idx] * self.num_tiles + rows[:, self._tgt_idx]
            if not table.is_precomputed:
                distinct, inverse = np.unique(pairs.ravel(), return_inverse=True)
                indptr, indices = table.link_csr(distinct)
                pairs = inverse.reshape(pairs.shape)
            first = indptr[pairs]
            lengths = indptr[pairs + 1] - first
            # Position in `indices` of every (candidate, edge, route position).
            flat = lengths.ravel()
            offsets = np.cumsum(flat) - flat
            stream = np.repeat(first.ravel() - offsets, flat) + np.arange(flat.sum())
            slots = indices[stream] + np.repeat(
                np.arange(count) * num_links, lengths.sum(axis=1)
            )
            loads = np.bincount(
                slots,
                weights=np.repeat(np.tile(self._bits, count), flat),
                minlength=count * num_links,
            ).reshape(count, num_links)
            peaks[start : start + count] = loads.max(axis=1)
            np.add.accumulate(loads, axis=1, out=loads)
            totals[start : start + count] = loads[:, -1]
        return peaks, totals

    def __repr__(self) -> str:
        return (
            f"VectorizedCwmKernel({self.name}, {self.num_edges} edges, "
            f"{len(self.core_order)} cores, {self.num_tiles} tiles)"
        )


__all__ = [
    "DEFAULT_VECTORIZE",
    "VectorizedCwmKernel",
    "population_to_array",
]
