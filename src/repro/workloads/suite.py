"""The benchmark suite of Table 1: 18 applications on 8 NoC sizes.

Table 1 characterises every benchmark by four aggregates: the NoC size, the
number of cores, the number of packets and the total bit volume.  The suite
below regenerates a benchmark for each row with *exactly* those aggregates
using the TGFF-like generator (the paper's own benchmarks were produced by a
proprietary TGFF-like system and are not published — see DESIGN.md).  Seeds
are fixed per entry so the suite is identical from run to run.

The three large NoCs (8x8, 10x10, 12x10) are included with their paper-exact
packet counts; because a single CDCM evaluation replays every packet, the
benchmark harness lets callers scale down the number of search iterations —
not the applications themselves — when a quick run is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scenario.events import ScenarioScript

from repro.graphs.cdcg import CDCG
from repro.noc.topology import Mesh, noc_label
from repro.utils.errors import ConfigurationError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec


@dataclass(frozen=True)
class SuiteEntry:
    """One row of Table 1.

    Attributes
    ----------
    name:
        Benchmark identifier, e.g. ``"3x2-a"``.
    mesh:
        NoC size the benchmark is mapped onto.
    num_cores, num_packets, total_bits:
        The aggregates reported in Table 1.
    seed:
        Generation seed (fixed, so the suite is reproducible).
    group:
        ``"small"`` for the NoC sizes the paper also solves with exhaustive
        search, ``"large"`` for the simulated-annealing-only sizes.
    """

    name: str
    mesh: Mesh
    num_cores: int
    num_packets: int
    total_bits: int
    seed: int
    group: str = "small"

    @property
    def topology(self):
        """The entry's NoC topology (alias of ``mesh`` — any
        :class:`~repro.noc.topology.Topology` works for custom entries; the
        Table 1 rows are all meshes)."""
        return self.mesh

    @property
    def noc_label(self) -> str:
        """Table-style NoC size label, e.g. ``"3 x 2"`` (see :func:`noc_label`)."""
        return noc_label(self.mesh)

    def content_hash(self) -> str:
        """Stable digest of everything that determines this entry's benchmark.

        Covers the generation inputs — name, topology identity
        (:func:`~repro.noc.topology.topology_cache_token`), the Table-1
        aggregates and the fixed seed — so two runs (or two processes) agree
        on the digest of the same row, and any edit to a row changes it.
        Note the generated CDCG also depends on the ``computation_scale``
        argument of :meth:`build`; when scaling it away from the default,
        key result-store entries on the built graph's
        :meth:`~repro.graphs.cdcg.CDCG.content_hash` instead (the service
        layer does exactly that).
        """
        from repro.noc.topology import topology_cache_token
        from repro.utils.hashing import stable_digest

        return stable_digest(
            (
                "suite-entry",
                self.name,
                topology_cache_token(self.mesh),
                self.num_cores,
                self.num_packets,
                self.total_bits,
                self.seed,
                self.group,
            )
        )

    def build(self, computation_scale: float = 0.5) -> CDCG:
        """Generate the benchmark CDCG for this entry.

        The default ``computation_scale`` of 0.5 makes the benchmarks
        communication-dominated (computation phases are on average half as
        long as the serialisation of an average packet), which is the regime
        in which packet contention — the effect CDCM models and CWM cannot —
        has a visible impact on execution time.
        """
        spec = TgffSpec(
            name=self.name,
            num_cores=self.num_cores,
            num_packets=self.num_packets,
            total_bits=self.total_bits,
            computation_scale=computation_scale,
        )
        return TgffLikeGenerator(self.seed).generate(spec)


# ---------------------------------------------------------------------------
# Table 1 rows.  Cores / packets / bit volumes are copied verbatim from the
# paper; seeds are arbitrary but fixed.
# ---------------------------------------------------------------------------
_TABLE1_ROWS: Tuple[Tuple[str, Tuple[int, int], int, int, int, str], ...] = (
    ("3x2-a", (3, 2), 5, 43, 78_817, "small"),
    ("3x2-b", (3, 2), 6, 17, 174, "small"),
    ("3x2-c", (3, 2), 6, 43, 49_003, "small"),
    ("2x4-a", (2, 4), 5, 16, 1_600, "small"),
    ("2x4-b", (2, 4), 7, 33, 23_235, "small"),
    ("2x4-c", (2, 4), 8, 18, 5_930, "small"),
    ("3x3-a", (3, 3), 7, 16, 1_600, "small"),
    ("3x3-b", (3, 3), 9, 18, 1_860, "small"),
    ("3x3-c", (3, 3), 9, 32, 43_120, "small"),
    ("2x5-a", (2, 5), 8, 24, 2_215, "small"),
    ("2x5-b", (2, 5), 9, 51, 23_244, "small"),
    ("2x5-c", (2, 5), 10, 22, 322_221, "small"),
    ("3x4-a", (3, 4), 10, 15, 3_100, "small"),
    ("3x4-b", (3, 4), 12, 25, 2_578_920, "small"),
    # The paper's Table 1 lists 14 cores for this benchmark, which cannot be
    # mapped injectively onto a 12-tile 3x4 NoC (almost certainly a typo in
    # the original table); the entry is clamped to 12 cores.  See DESIGN.md.
    ("3x4-c", (3, 4), 12, 88, 115_778, "small"),
    ("8x8", (8, 8), 62, 344, 9_799_200, "large"),
    ("10x10", (10, 10), 93, 415, 562_565_990, "large"),
    ("12x10", (12, 10), 99, 446, 680_006_120, "large"),
)


def table1_suite(
    groups: Optional[Tuple[str, ...]] = None,
    max_noc_tiles: Optional[int] = None,
) -> List[SuiteEntry]:
    """Build the 18-entry suite (or a filtered subset of it).

    Parameters
    ----------
    groups:
        Restrict to the given groups (``("small",)``, ``("large",)`` or both).
    max_noc_tiles:
        Drop entries whose NoC has more tiles than this bound (handy for the
        quick versions of the Table 2 bench).
    """
    entries: List[SuiteEntry] = []
    for index, (name, (width, height), cores, packets, bits, group) in enumerate(
        _TABLE1_ROWS
    ):
        mesh = Mesh(width, height)
        if groups is not None and group not in groups:
            continue
        if max_noc_tiles is not None and mesh.num_tiles > max_noc_tiles:
            continue
        entries.append(
            SuiteEntry(
                name=name,
                mesh=mesh,
                num_cores=cores,
                num_packets=packets,
                total_bits=bits,
                seed=1_000 + index,
                group=group,
            )
        )
    return entries


def suite_entry_by_name(name: str) -> SuiteEntry:
    """Look up a single suite entry by its name."""
    for entry in table1_suite():
        if entry.name == name:
            return entry
    raise ConfigurationError(
        f"no suite entry named {name!r}; available: "
        f"{[e.name for e in table1_suite()]}"
    )


def suite_by_noc_size() -> Dict[str, List[SuiteEntry]]:
    """Suite entries grouped by their Table-1 NoC-size label, in table order."""
    grouped: Dict[str, List[SuiteEntry]] = {}
    for entry in table1_suite():
        grouped.setdefault(entry.noc_label, []).append(entry)
    return grouped


def _notched_mesh():
    """A 3x3 mesh with the (0, 1) link removed, as an irregular topology.

    The canonical irregular-but-certifiable fabric of the scenario suite:
    table routing on it stays deadlock-free (unlike rings and tori), yet it
    exercises the :class:`~repro.noc.topology.IrregularTopology` code paths
    end to end.
    """
    from repro.graphs.crg import CRG
    from repro.noc.topology import IrregularTopology, Mesh

    base = Mesh(3, 3).to_crg()
    crg = CRG("notched-3x3")
    for tile in base.tiles:
        crg.add_tile(tile.index, *tile.position)
    for link in base.links:
        if {link.source, link.target} == {0, 1}:
            continue
        crg.add_link(link.source, link.target)
    return IrregularTopology.from_crg(crg)


def scenario_suite() -> List["ScenarioScript"]:
    """The scenario families of the dynamic-scenario engine, as fixed scripts.

    Each entry is a deterministic
    :class:`~repro.scenario.events.ScenarioScript` exercising one family of
    dynamic behaviour; CI runs the whole engine matrix (models, engines,
    remap modes, backends) over these through the conformance harness:

    * ``mesh-link-storm`` — a burst of link failures and a repair on a 4x4
      mesh under a live application;
    * ``mesh-churn`` — application arrivals and departures on a 3x3 mesh
      with a fault in between;
    * ``router-outage`` — a router failure (tile compaction path) on a 4x4
      mesh;
    * ``torus-fault`` — a fault on a 3x3 torus, pinning the
      rejected-certification path (table routing on tori is not
      deadlock-free);
    * ``irregular-fault`` — a fault on an irregular (notched-mesh) fabric.
    """
    from repro.scenario.events import (
        ApplicationArrival,
        ApplicationDeparture,
        LinkFailure,
        LinkRepair,
        RouterFailure,
        ScenarioScript,
    )

    return [
        ScenarioScript(
            name="mesh-link-storm",
            topology="mesh:4x4",
            seed=41,
            events=(
                ApplicationArrival("storm-app", 5, 12, 6_000, seed=7),
                LinkFailure(0, 1),
                LinkFailure(12, 13),
                LinkFailure(3, 7),
                LinkRepair(12, 13),
            ),
        ),
        ScenarioScript(
            name="mesh-churn",
            topology="mesh:3x3",
            seed=42,
            events=(
                ApplicationArrival("churn-a", 3, 8, 2_000, seed=11),
                ApplicationArrival("churn-b", 3, 8, 3_000, seed=13),
                LinkFailure(3, 6),
                ApplicationDeparture("churn-a"),
                ApplicationArrival("churn-c", 2, 6, 1_500, seed=17),
                LinkRepair(3, 6),
            ),
        ),
        ScenarioScript(
            name="router-outage",
            topology="mesh:4x4",
            seed=43,
            events=(
                ApplicationArrival("outage-app", 4, 10, 4_000, seed=19),
                RouterFailure(0),
                LinkFailure(14, 15),
            ),
        ),
        ScenarioScript(
            name="torus-fault",
            topology="torus:3x3",
            seed=44,
            events=(
                ApplicationArrival("torus-app", 3, 8, 2_500, seed=23),
                LinkFailure(0, 1),
                LinkFailure(4, 5),
            ),
        ),
        ScenarioScript(
            name="irregular-fault",
            topology=_notched_mesh(),
            seed=45,
            events=(
                ApplicationArrival("irr-app", 3, 8, 2_200, seed=29),
                LinkFailure(7, 8),
                LinkRepair(7, 8),
            ),
        ),
    ]


__all__ = [
    "SuiteEntry",
    "table1_suite",
    "suite_entry_by_name",
    "suite_by_noc_size",
    "scenario_suite",
]
