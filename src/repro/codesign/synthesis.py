"""Deadlock-free next-hop table synthesis — routing as a searchable genome.

PR 5 turned routing into data: :class:`~repro.noc.routing.TableRouting`
derives deterministic per-target next-hop tables, and
:func:`~repro.noc.deadlock.validate_deadlock_free` makes deadlock freedom a
checkable predicate.  This module closes the loop and makes tables
*synthesisable*:

* :class:`SynthesizedRouting` — an immutable
  :class:`~repro.noc.routing.RoutingAlgorithm` wrapping an explicit
  ``next_hops[target][tile]`` table, whose :attr:`cache_token` embeds a
  content digest so every distinct table keys its own shared
  :class:`~repro.eval.route_table.RouteTable` (and pooled pricing rebuilds
  bit-identical tables from the pickled contents);
* :class:`TableSynthesizer` — generators and mutation operators over such
  tables that preserve reachability **by construction**: every entry is a
  *minimal* next hop (one step closer to the target by BFS distance), so
  every route strictly decreases the distance and terminates at the target;
* :meth:`TableSynthesizer.certify` — the deadlock gate every table passes
  before anything prices mappings on it, with a repair-or-reject policy:
  ``"reject"`` surfaces the witness cycle of the channel dependency graph,
  ``"repair"`` reverts the entries feeding the witness cycle's links to a
  certified fallback table (BFS/XY on meshes) until the CDG is acyclic.

Synthesized routings are addressable through the routing registry via
:func:`register_synthesized`, so a winning table can be installed as a named
platform spec (``Platform(mesh, routing="my-table")``) like any shipped
routing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noc.deadlock import Channel, DeadlockReport, validate_deadlock_free
from repro.noc.routing import (
    RoutingAlgorithm,
    available_routings,
    get_routing,
    link_adjacency,
    minimal_next_hops,
    next_hop_trees,
    register_routing,
)
from repro.noc.topology import Topology
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng

#: A per-target next-hop table: ``table[target][tile]`` is the tile the
#: header steps to next on its way to ``target`` (``-1`` on the diagonal and
#: for unreachable pairs).
NextHopTable = Tuple[Tuple[int, ...], ...]

#: Registry specs the synthesizer seeds its initial tables from, in order.
DEFAULT_SEED_SPECS: Tuple[str, ...] = (
    "xy",
    "yx",
    "west-first",
    "negative-first",
    "table",
)

#: Default certification policy (see :meth:`TableSynthesizer.certify`).
DEFAULT_POLICY = "repair"

_POLICIES = ("reject", "repair")

#: How many witness-guided revert rounds a repair attempts before falling
#: back to the certified seed table wholesale.
_MAX_REPAIR_ROUNDS = 8


#: Entries below int64's range saturate here: like any negative entry,
#: they mark no route.
_INT64_MIN = int(np.iinfo(np.int64).min)


def _square_integer_array(next_hops: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
    """*next_hops* as a read-only int64 copy, when one NumPy pass accepts it.

    A non-empty square array of an integer dtype, every entry below its
    size, is a valid table (negative entries mark no route).  Anything
    else — ragged or empty rows, other dtypes, entries past the table —
    gives ``None``.
    """
    try:
        array = np.asarray(next_hops)
    except ValueError:  # ragged rows
        return None
    if array.ndim != 2 or array.dtype.kind not in "iu":
        return None
    size, width = array.shape
    if size == 0 or width != size or array.max() >= size:
        return None
    array = array.astype(np.int64)
    array.setflags(write=False)
    return array


class SynthesizedRouting(RoutingAlgorithm):
    """A routing algorithm defined by an explicit per-target next-hop table.

    Parameters
    ----------
    next_hops:
        ``next_hops[target][tile]`` — the next tile on the route from
        ``tile`` to ``target`` (``-1`` marks the diagonal and unreachable
        pairs).  Rows are copied into immutable tuples of Python ints, and
        the table into the read-only int64 array
        :meth:`next_hop_array` returns.  A square table of an integer dtype
        is checked in one NumPy pass; any other input entry by entry, which
        raises for an empty table, a row of the wrong length or an entry
        past the table.

    Notes
    -----
    Instances are stateless and deterministic, so they satisfy the
    :class:`~repro.noc.routing.RoutingAlgorithm` contract and can share
    process-wide route tables.  The :attr:`cache_token` embeds a SHA-256
    digest of the table contents — two instances route identically exactly
    when their tokens agree, which is what lets the co-design engine key
    evaluation contexts (and the route-table cache) per table.
    """

    name = "synthesized"

    def __init__(self, next_hops: Sequence[Sequence[int]]) -> None:
        array = _square_integer_array(next_hops)
        if array is not None:
            table = tuple(map(tuple, array.tolist()))
        else:  # checked entry by entry, which raises every error
            table = tuple(tuple(int(hop) for hop in row) for row in next_hops)
            if not table:
                raise ConfigurationError("next-hop table must not be empty")
            size = len(table)
            for target, row in enumerate(table):
                if len(row) != size:
                    raise ConfigurationError(
                        f"next-hop row for target {target} has {len(row)} "
                        f"entries; expected one per tile ({size})"
                    )
                for tile, hop in enumerate(row):
                    if hop >= size:
                        raise ConfigurationError(
                            f"next hop {hop} of tile {tile} towards target "
                            f"{target} is outside the {size}-tile table"
                        )
            array = np.array(
                [[max(hop, _INT64_MIN) for hop in row] for row in table],
                dtype=np.int64,
            )
            array.setflags(write=False)
        self._array = array
        self._next_hops: Optional[NextHopTable] = table
        self._digest: Optional[str] = None

    @classmethod
    def _from_array(cls, array: np.ndarray) -> "SynthesizedRouting":
        """A routing over an array already validated as a table's (no checks).

        For the repair rounds of :meth:`TableSynthesizer.certify`, whose
        candidates only mix entries of two validated tables of one size:
        *array* must be a read-only square int64 array with no entry past
        the table.  Its tuple rows are made when first read.
        """
        routing = object.__new__(cls)
        routing._array = array
        routing._next_hops = None
        routing._digest = None
        return routing

    @property
    def next_hops(self) -> NextHopTable:
        """The immutable ``[target][tile]`` next-hop table."""
        if self._next_hops is None:
            self._next_hops = tuple(map(tuple, self._array.tolist()))
        return self._next_hops

    @property
    def num_tiles(self) -> int:
        """Number of tiles the table covers."""
        return len(self._array)

    @property
    def digest(self) -> str:
        """Content digest identifying the table (hex, 16 chars).

        The SHA-256 of the table's ``repr``, computed on first use: the
        repair rounds of :meth:`TableSynthesizer.certify` build routings
        that are never priced.
        """
        if self._digest is None:
            digest = hashlib.sha256(repr(self.next_hops).encode("ascii"))
            self._digest = digest.hexdigest()[:16]
        return self._digest

    @property
    def cache_token(self) -> Tuple:
        """Content-addressed identity: equal tables share route caches."""
        return (type(self).__module__, type(self).__qualname__, self.digest)

    def next_hop_table(self, topology: Topology) -> NextHopTable:
        """The table itself, once *topology* has as many tiles as it covers."""
        self._require_size(topology)
        return self.next_hops

    def next_hop_array(self, topology: Topology) -> np.ndarray:
        """The table as the read-only int64 array it was checked as (kept)."""
        self._require_size(topology)
        return self._array

    def route(self, topology: Topology, source: int, target: int) -> List[int]:
        """The table route from *source* to *target*, endpoints included."""
        self._require_size(topology)
        for tile in (source, target):
            if not topology.contains(tile):
                raise ConfigurationError(f"tile {tile} outside {topology}")
        if source == target:
            return [source]
        row = self.next_hops[target]
        path = [source]
        current = source
        limit = len(row)
        while current != target:
            step = row[current]
            if step < 0:
                raise ConfigurationError(
                    f"no route from tile {source} to tile {target} in the "
                    f"synthesized table {self.digest}"
                )
            path.append(step)
            current = step
            if len(path) > limit:
                raise ConfigurationError(
                    f"routing loop from tile {source} to tile {target} in "
                    f"the synthesized table {self.digest}"
                )
        return path

    def _require_size(self, topology: Topology) -> None:
        if topology.num_tiles != self.num_tiles:
            raise ConfigurationError(
                f"next-hop table covers {self.num_tiles} tiles but "
                f"{topology} has {topology.num_tiles}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SynthesizedRouting):
            return NotImplemented
        return self.next_hops == other.next_hops

    def __hash__(self) -> int:
        return hash(self.next_hops)

    def __reduce__(self):
        # Pickled as its rows; unpickling checks them into a fresh array.
        return type(self), (self.next_hops,)

    def __repr__(self) -> str:
        return f"SynthesizedRouting(digest={self.digest!r})"


def register_synthesized(
    name: str, routing: SynthesizedRouting, overwrite: bool = False
) -> None:
    """Install a synthesized table in the routing registry under *name*.

    The registered factory returns the (immutable) instance itself, so
    ``Platform(mesh, routing=name)`` resolves to the exact table —
    addressable end to end like the shipped specs.
    """
    register_routing(name, lambda: routing, overwrite=overwrite)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of gating one table through the deadlock validator.

    Attributes
    ----------
    routing:
        The certified routing — ``None`` exactly when :attr:`certified` is
        False (the table was rejected).
    report:
        The final :class:`~repro.noc.deadlock.DeadlockReport` (of the
        certified table, or of the rejected one).
    certified:
        Whether a deadlock-free routing came out of the gate.
    repaired:
        Whether the certified table differs from the submitted one (repair
        policy reverted entries).
    witness:
        The first witness cycle encountered (empty when the submitted table
        was already deadlock-free) — the closed channel-dependency loop the
        validator found, surfaced for diagnostics and property tests.
    """

    routing: Optional[SynthesizedRouting]
    report: DeadlockReport
    certified: bool
    repaired: bool
    witness: Tuple[Channel, ...] = ()


class TableSynthesizer:
    """Generator and mutator of reachability-preserving next-hop tables.

    Parameters
    ----------
    topology:
        The fabric tables are synthesised for (any
        :class:`~repro.noc.topology.Topology`).
    seed_specs:
        Routing-registry specs the seed tables are materialised from;
        specs that do not apply to the topology (e.g. turn models on a
        torus) or fail the deadlock gate are skipped.  At least one seed
        must certify — it becomes the repair fallback.

    Notes
    -----
    All generated and mutated entries are *minimal*: a next hop is only ever
    a neighbour one BFS step closer to the target, so synthesized tables
    route every reachable pair by construction (distance strictly decreases
    along every route).  Deadlock freedom is **not** guaranteed by
    minimality — arbitrary minimal tables mix turns freely — which is
    exactly what :meth:`certify` gates.
    """

    def __init__(
        self,
        topology: Topology,
        seed_specs: Sequence[str] = DEFAULT_SEED_SPECS,
    ) -> None:
        self.topology = topology
        n = topology.num_tiles
        out, incoming = link_adjacency(topology)
        # The per-(target, tile) minimal next-hop choices, in the topology's
        # neighbour order (the tie-break contract that makes choice 0
        # reproduce BFS TableRouting).
        self._choices: List[List[Tuple[int, ...]]] = [
            minimal_next_hops(out, incoming, target) for target in range(n)
        ]
        self._mutable: Tuple[Tuple[int, int], ...] = tuple(
            (target, tile)
            for target in range(n)
            for tile in range(n)
            if len(self._choices[target][tile]) > 1
        )
        # The entries random tables draw, in (target, tile) order: their flat
        # indices, choice counts, and choices laid end to end.
        drawn = [
            (target * n + tile, choices)
            for target, per_tile in enumerate(self._choices)
            for tile, choices in enumerate(per_tile)
            if choices
        ]
        self._drawn = np.array([entry for entry, _ in drawn], dtype=np.int64)
        self._counts = np.array([len(choices) for _, choices in drawn], dtype=np.int64)
        self._first_choice = np.cumsum(self._counts) - self._counts
        self._flat_choices = np.array(
            [hop for _, choices in drawn for hop in choices], dtype=np.int64
        )
        self._seeds: Dict[str, SynthesizedRouting] = {}
        self._fallback: Optional[CertificationResult] = None
        for spec in seed_specs:
            if spec not in available_routings():
                continue
            try:
                table = self.materialise(get_routing(spec))
                result = self.certify(table, policy="reject")
            except ConfigurationError:
                continue
            if not result.certified:
                continue
            self._seeds[spec] = result.routing
            if self._fallback is None:
                # Kept whole: a repair that falls back returns it as is.
                self._fallback = result
        if self._fallback is None:
            raise ConfigurationError(
                f"no seed routing of {tuple(seed_specs)} certifies "
                f"deadlock-free on {topology}; cannot synthesise tables "
                f"without a repair fallback"
            )

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    def materialise(self, routing: RoutingAlgorithm) -> NextHopTable:
        """The next-hop table of an existing routing over the topology.

        A routing with next-hop rows is read from its checked rows
        (:func:`~repro.noc.routing.next_hop_trees`); any other routing gives
        each entry from its route walk.  Entries outside the minimal choice
        set (a non-minimal routing) are clamped to the first minimal next
        hop, preserving the synthesizer's reachability-by-construction
        invariant.
        """
        topology = self.topology
        rows = next_hop_trees(topology, routing)
        n = topology.num_tiles
        table: List[List[int]] = [[-1] * n for _ in range(n)]
        for target in range(n):
            for tile in range(n):
                if tile == target:
                    continue
                choices = self._choices[target][tile]
                if not choices:
                    continue
                if rows is None:
                    hop = routing.route(topology, tile, target)[1]
                else:
                    hop = rows[target][tile]
                table[target][tile] = hop if hop in choices else choices[0]
        return tuple(tuple(row) for row in table)

    def seed_tables(self) -> Dict[str, NextHopTable]:
        """The certified seed tables, keyed by their registry spec."""
        return {spec: routing.next_hops for spec, routing in self._seeds.items()}

    def seed_routings(self) -> Dict[str, SynthesizedRouting]:
        """The certified seed routings, keyed by their registry spec.

        They were certified at construction, so a search can seed its
        population from them without sending them through :meth:`certify`
        again.
        """
        return dict(self._seeds)

    def random_table(self, rng: RandomSource = None) -> NextHopTable:
        """A uniformly random minimal table (reachable by construction).

        One ``generator.integers`` call draws every entry's choice, over the
        entries' choice counts in ``(target, tile)`` order.  NumPy draws such
        broadcast bounds one element at a time, so the generator advances
        exactly as one scalar ``integers(len(choices))`` call per entry
        would advance it.
        """
        generator = ensure_rng(rng)
        n = self.topology.num_tiles
        table = np.full(n * n, -1, dtype=np.int64)
        picks = generator.integers(self._counts)
        table[self._drawn] = self._flat_choices[self._first_choice + picks]
        return tuple(map(tuple, table.reshape(n, n).tolist()))

    def mutate(
        self,
        table: NextHopTable,
        rng: RandomSource = None,
        mutations: int = 1,
    ) -> NextHopTable:
        """Re-point up to *mutations* entries at alternative minimal hops.

        Each mutation picks a ``(target, tile)`` pair with more than one
        minimal next hop and switches the entry to a different one, so the
        result stays reachability-preserving.  Topologies with no such pair
        (a 1×n chain) return the table unchanged.
        """
        if mutations < 1:
            raise ConfigurationError(
                f"mutations must be positive, got {mutations}"
            )
        if not self._mutable:
            return table
        generator = ensure_rng(rng)
        rows = [list(row) for row in table]
        for _ in range(mutations):
            target, tile = self._mutable[
                int(generator.integers(len(self._mutable)))
            ]
            choices = self._choices[target][tile]
            alternatives = tuple(
                choice for choice in choices if choice != rows[target][tile]
            )
            rows[target][tile] = alternatives[
                int(generator.integers(len(alternatives)))
            ]
        return tuple(tuple(row) for row in rows)

    # ------------------------------------------------------------------
    # The deadlock gate
    # ------------------------------------------------------------------
    def certify(
        self, table: NextHopTable, policy: str = DEFAULT_POLICY
    ) -> CertificationResult:
        """Gate *table* through the deadlock validator before any pricing.

        Parameters
        ----------
        table:
            The candidate next-hop table.
        policy:
            ``"reject"`` — a cyclic channel dependency graph rejects the
            table, surfacing the witness cycle; ``"repair"`` — entries
            feeding the witness cycle's links are reverted to the certified
            fallback table round by round, on a copy of the table's
            next-hop array, and the repaired table re-enters the gate.  When
            no entry reverts or :data:`_MAX_REPAIR_ROUNDS` rounds are
            exhausted, the repair falls back wholesale and returns the
            fallback's certification from construction (its routing and
            report, with this table's witness).  Repair therefore always
            certifies, unless a round's mix of the two tables no longer
            routes every pair, which raises the route walk's error.

        Returns
        -------
        CertificationResult
            Always carries the final :class:`~repro.noc.deadlock.DeadlockReport`;
            ``routing`` is set exactly when the gate passed.
        """
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown certification policy {policy!r}; "
                f"expected one of {_POLICIES}"
            )
        routing = SynthesizedRouting(table)
        report = validate_deadlock_free(
            self.topology, routing, raise_on_cycle=False
        )
        if report.deadlock_free:
            return CertificationResult(
                routing=routing, report=report, certified=True, repaired=False
            )
        first_witness = report.cycle
        if policy == "reject":
            return CertificationResult(
                routing=None,
                report=report,
                certified=False,
                repaired=False,
                witness=first_witness,
            )
        fallback = self._fallback
        assert fallback is not None  # constructor guarantees a fallback
        topology = self.topology
        # Repair rounds only mix entries of two validated tables: the
        # submitted one as its routing normalised it, and the fallback.
        hops = routing.next_hop_array(topology).copy()
        original = fallback.routing.next_hop_array(topology)
        tiles = len(hops)
        width = tiles + 1
        # Entry (t, u) reads link (u, hops[t, u]) of a (T, T + 1) witness
        # mask, whose last column stands in for every negative entry.
        leaving = np.arange(tiles, dtype=np.int64) * width
        for _ in range(_MAX_REPAIR_ROUNDS):
            # An entry feeds a witness link (u, v) when it sends tile u to v;
            # only such entries that differ from the fallback revert.
            cycle = np.array(report.cycle, dtype=np.int64)
            witness = np.zeros(tiles * width, dtype=bool)
            witness[cycle[:, 0] * width + cycle[:, 1]] = True
            feeds = witness[leaving + np.where(hops < 0, tiles, hops)]
            revert = feeds & (hops != original)
            if not revert.any():
                break  # the witness survives on fallback entries alone
            hops[revert] = original[revert]
            candidate = hops.copy()
            candidate.setflags(write=False)
            routing = SynthesizedRouting._from_array(candidate)
            report = validate_deadlock_free(topology, routing, raise_on_cycle=False)
            if report.deadlock_free:
                return CertificationResult(
                    routing=routing,
                    report=report,
                    certified=True,
                    repaired=True,
                    witness=first_witness,
                )
        # Witness-guided reverts are monotone (entries only ever move toward
        # the fallback) but a large mesh can surface more distinct cycles
        # than there are rounds.  When the rounds run out, or no entry
        # reverts, only the full fallback clears the witness: it was
        # certified at construction, so that certification is returned.
        return CertificationResult(
            routing=fallback.routing,
            report=fallback.report,
            certified=True,
            repaired=True,
            witness=first_witness,
        )


__all__ = [
    "NextHopTable",
    "DEFAULT_SEED_SPECS",
    "DEFAULT_POLICY",
    "SynthesizedRouting",
    "register_synthesized",
    "CertificationResult",
    "TableSynthesizer",
]
