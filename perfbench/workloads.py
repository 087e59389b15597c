"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Each workload is built from the benchmark seed, then :meth:`setup` builds
everything the operation shares (applications, platforms, route tables,
engines) and :meth:`run` performs one full workload run: the searches,
followed by the output checks.  Every call of :meth:`run` on a set-up from
the same seed does identical work, so repeated runs must return identical
simulated results; the runner compares their :attr:`OpResult.fingerprint`.
Each run takes a lap timestamp (its ``mark`` argument) just before and just
after every search, so the runner can time the searches alone.

The applications are fixed (generated with :data:`APP_SEED`); the seed
decides the search inputs: initial mappings (fixed for ``cdcm-repair-sa``)
and search random streams.
"""

from __future__ import annotations

import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, ContextManager, Dict, List, Tuple

from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.codesign import CodesignParameters, CodesignSearch
from repro.codesign.load import LoadAwareCwmContext
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective
from repro.energy.technology import TECH_0_07UM, TECH_0_35UM
from repro.eval.context import CdcmEvaluationContext
from repro.eval.repair import CdcmRepairEngine, RepairPolicy
from repro.eval.route_table import clear_route_table_cache, get_route_table
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.deadlock import validate_deadlock_free
from repro.noc.platform import NocParameters, Platform
from repro.noc.routing import XYRouting
from repro.noc.topology import Mesh
from repro.search.annealing import AnnealingSchedule, SimulatedAnnealing
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.utils.rng import spawn_seeds
from repro.workloads.suite import table1_suite
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

#: Default benchmark seed (DATE 2005); the golden Table 2 rows are for it.
DEFAULT_SEED = 20050307

#: Generator seed of every fixed TGFF application below.
APP_SEED = 20050307

GOLDEN_TABLE2 = Path(__file__).resolve().parent / "golden" / "paper-table2.json"

#: A factory of context managers the checks run under (the tracer pauses
#: inside them; untraced runs pass :func:`contextlib.nullcontext`).
Checking = Callable[[], ContextManager]

#: Takes a lap timestamp and returns its index (:meth:`laps.Laps.mark`).
Mark = Callable[[], int]


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


@dataclass
class OpResult:
    """Outcome of one workload run.

    ``texec_ns`` and ``energy_pj`` are simulated CDCM execution time and
    eq.-10 energy of the result mapping(s), re-priced by a fresh evaluator.
    ``search_spans`` holds the (first, last) lap timestamp indices around
    each search.
    """

    evaluations: int = 0
    search_spans: List[Tuple[int, int]] = field(default_factory=list)
    texec_ns: float = 0.0
    energy_pj: float = 0.0
    attempted: int = 0
    failed: int = 0
    fingerprint: Tuple = ()
    counters: Dict[str, int] = field(default_factory=dict)


def _report_failure(what: str) -> None:
    print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


def _starts(seed: int, count: int, cdcg, platform) -> List[Tuple[Mapping, int]]:
    """*count* (initial mapping, search seed) pairs derived from *seed*."""
    seeds = spawn_seeds(seed, 2 * count)
    return [
        (Mapping.random(cdcg.cores(), platform.num_tiles, rng=seeds[2 * i]), seeds[2 * i + 1])
        for i in range(count)
    ]


def _lowest_energy(reports):
    """The report with the lowest eq.-10 energy (first one on ties)."""
    return min(reports, key=lambda report: report.total_energy)


class PaperTable2:
    """The paper's Table 2 experiment on the 15 small-NoC rows."""

    name = "paper-table2"
    schedule = AnnealingSchedule(
        cooling_factor=0.92, max_evaluations=4_000, stall_plateaus=10
    )

    def __init__(self, seed: int, check_golden: bool = True) -> None:
        self.seed = seed
        self.golden = None
        if check_golden and seed == DEFAULT_SEED:
            self.golden = json.loads(GOLDEN_TABLE2.read_text())["rows"]

    def setup(self):
        entries = table1_suite(groups=("small",))
        rows = []
        for entry, entry_seed in zip(entries, spawn_seeds(self.seed, len(entries))):
            platform = Platform(
                mesh=entry.mesh,
                routing=XYRouting(),
                parameters=NocParameters(),
                technology=TECH_0_07UM,
            )
            get_route_table(platform)
            rows.append((entry.name, entry.build(), platform, entry_seed))
        return rows

    def run(self, rows, checking: Checking, mark: Mark) -> OpResult:
        config = ComparisonConfig(annealing_schedule=self.schedule)
        result = OpResult()
        lines: List[str] = []
        for index, (name, cdcg, platform, entry_seed) in enumerate(rows):
            result.attempted += 1
            try:
                first = mark()
                comparison = compare_models(cdcg, platform, config, seed=entry_seed)
                span = (first, mark())
                with checking():
                    report = self._check_row(cdcg, platform, comparison, config)
                    line = self.row_line(name, comparison)
                    if self.golden is not None and line != self.golden[index]:
                        raise CheckFailed(
                            f"row differs from the golden row:\n  {line}\n  "
                            f"{self.golden[index]}"
                        )
            except Exception:  # one failed row must not hide the others
                _report_failure(f"{self.name} row {name}")
                result.failed += 1
                continue
            lines.append(line)
            for outcome in (comparison.cwm_outcome, comparison.cdcm_outcome):
                result.evaluations += outcome.search.evaluations
            result.search_spans.append(span)
            result.texec_ns += report.execution_time
            result.energy_pj += report.total_energy
        result.fingerprint = (tuple(lines), result.texec_ns, result.energy_pj)
        return result

    @staticmethod
    def row_line(name: str, comparison) -> str:
        """The row's ETR and ECS values with every digit."""
        return (
            f"{name} ETR={comparison.execution_time_reduction!r} "
            f"ECS0.35={comparison.energy_saving(TECH_0_35UM.name)!r} "
            f"ECS0.07={comparison.energy_saving(TECH_0_07UM.name)!r}"
        )

    @staticmethod
    def _check_row(cdcg, platform, comparison, config):
        """Re-price both mappings with a fresh evaluator; the row must agree."""
        evaluator = CdcmEvaluator(platform)
        cwm = evaluator.evaluate(cdcg, comparison.cwm_mapping)
        cdcm = evaluator.evaluate(cdcg, comparison.cdcm_mapping)
        if (cwm.execution_time, cdcm.execution_time) != (
            comparison.cwm_mapping_time,
            comparison.cdcm_mapping_time,
        ):
            raise CheckFailed("execution times differ from a fresh replay")
        for technology, row in zip(config.technologies, comparison.technology_results):
            energies = (
                evaluator.reprice(cwm, technology).total_energy,
                evaluator.reprice(cdcm, technology).total_energy,
            )
            if energies != (row.cwm_mapping_energy, row.cdcm_mapping_energy):
                raise CheckFailed(f"{technology.name} energies differ from a fresh replay")
        return cdcm


class _SearchWorkload:
    """A workload whose run is :attr:`searches` independent, checked searches.

    Subclasses build ``state`` in :meth:`setup` (with a ``starts`` list of
    (initial mapping, search seed) pairs), run one search in :meth:`_search`
    and check it in :meth:`_check`, which returns the fresh CDCM reports of
    the result mappings and the search's simulated fingerprint.
    """

    name = ""
    searches = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self, state, checking: Checking, mark: Mark) -> OpResult:
        result = OpResult()
        reports = []
        fingerprint = []
        for initial, search_seed in state.starts:
            result.attempted += 1
            try:
                first = mark()
                found = self._search(state, initial, search_seed)
                span = (first, mark())
                with checking():
                    found_reports, found_fingerprint = self._check(
                        state, found, search_seed
                    )
            except Exception:  # one failed search must not hide the others
                _report_failure(f"{self.name} search seed {search_seed}")
                result.failed += 1
                continue
            result.evaluations += found.evaluations
            result.search_spans.append(span)
            reports.extend(found_reports)
            fingerprint.append(found_fingerprint)
            for key, value in self._counters(found).items():
                result.counters[key] = result.counters.get(key, 0) + value
        if reports:
            best = _lowest_energy(reports)
            result.texec_ns, result.energy_pj = best.execution_time, best.total_energy
        result.fingerprint = tuple(fingerprint)
        return result

    def _counters(self, found) -> Dict[str, int]:
        return {}


class CdcmRepairSa(_SearchWorkload):
    """Annealing with bounded-repair CDCM swap deltas on a 16x16 mesh."""

    name = "cdcm-repair-sa"
    spec = TgffSpec(
        name="repair-16x16",
        num_cores=96,
        num_packets=128,
        total_bits=128 * 4_096,
        levels=8,
        computation_scale=16.0,
    )
    policy = RepairPolicy(closure_depth=0, max_drift=1.0, resync_every=128)
    schedule = AnnealingSchedule(max_evaluations=40, moves_per_temperature=128)
    #: Search cost depends on the trajectory (a full replay before each new
    #: best), so one run averages over several short searches.
    searches = 4

    def setup(self):
        cdcg = TgffLikeGenerator(APP_SEED).generate(self.spec)
        platform = Platform(mesh=Mesh(16, 16))
        get_route_table(platform)
        # The initial mappings are part of the fixed problem and the seed
        # decides only the annealing streams: how good a random start is sets
        # how often the annealer replays in full for a new best, which spread
        # the cost of an evaluation by 18 % between random starts, against
        # 8 % between streams from one start.
        initials = _starts(APP_SEED, self.searches, cdcg, platform)
        streams = spawn_seeds(self.seed, self.searches)
        starts = [(initial, stream) for (initial, _), stream in zip(initials, streams)]
        return SimpleNamespace(cdcg=cdcg, platform=platform, starts=starts)

    def _search(self, state, initial, search_seed):
        context = CdcmEvaluationContext(
            state.cdcg, state.platform, repair=True, repair_policy=self.policy
        )
        objective = cdcm_objective(state.cdcg, state.platform, context=context)
        searcher = SimulatedAnnealing(self.schedule, use_delta=True)
        return searcher.search(objective, initial, rng=search_seed)

    def _check(self, state, found, search_seed):
        """The best cost is a full replay's; the first search also walks swaps.

        The walk is the costly check, so one search per run makes it: from its
        best mapping, random swaps through a fresh repair engine, where at
        every resync the tracked cost must equal a full replay.
        """
        cdcg, platform = state.cdcg, state.platform
        truth = cdcm_objective(cdcg, platform)(found.best_mapping)
        if not math.isclose(found.best_cost, truth, rel_tol=1e-9):
            raise CheckFailed(
                f"best cost {found.best_cost!r} differs from a full replay {truth!r}"
            )
        evaluator = CdcmEvaluator(platform)
        if search_seed == state.starts[0][1]:
            self._walk(cdcg, platform, evaluator, found.best_mapping, search_seed)
        report = evaluator.evaluate(cdcg, found.best_mapping)
        return [report], (report.execution_time, report.total_energy)

    @staticmethod
    def _walk(cdcg, platform, evaluator, mapping, search_seed):
        engine = CdcmRepairEngine(
            cdcg,
            platform,
            policy=RepairPolicy(closure_depth=0, max_drift=1.0, resync_every=8),
        )
        rng = random.Random(search_seed)
        tracked = evaluator.metrics(cdcg, mapping)["energy"]
        resyncs = 0
        for _ in range(48):
            a = rng.randrange(platform.num_tiles)
            b = rng.randrange(platform.num_tiles)
            tracked += engine.metric_delta(mapping, a, b)["energy"]
            mapping = mapping.swap_tiles(a, b)
            if engine.last_outcome.resynced:
                resyncs += 1
                truth = evaluator.metrics(cdcg, mapping)["energy"]
                if not math.isclose(tracked, truth, rel_tol=1e-9):
                    raise CheckFailed(
                        f"resync identity violated: tracked {tracked!r} vs full "
                        f"replay {truth!r}"
                    )
        if resyncs < 2:
            raise CheckFailed("walk too short to reach two resyncs")


class CwmNsga2(_SearchWorkload):
    """NSGA-II over load-aware CWM pricing on an 8x8 mesh."""

    name = "cwm-nsga2"
    spec = TgffSpec(
        name="cwm-48", num_cores=48, num_packets=120, total_bits=120 * 2_000
    )
    parameters = Nsga2Parameters(population_size=128, generations=20)
    keys = ("dynamic_energy", "max_link_load")

    def setup(self):
        cdcg = TgffLikeGenerator(APP_SEED).generate(self.spec)
        platform = Platform(mesh=Mesh(8, 8))
        get_route_table(platform)
        return SimpleNamespace(
            cdcg=cdcg,
            cwg=cdcg_to_cwg(cdcg),
            platform=platform,
            starts=_starts(self.seed, self.searches, cdcg, platform),
        )

    def _search(self, state, initial, search_seed):
        context = LoadAwareCwmContext(state.cwg, state.platform)
        searcher = NSGA2Search(self.parameters, keys=self.keys)
        return searcher.search(context, initial, rng=search_seed)

    def _check(self, state, found, search_seed):
        """Front vectors equal a scalar (``vectorize=False``) re-price."""
        scalar = LoadAwareCwmContext(state.cwg, state.platform, vectorize=False)
        for point in found.front:
            if scalar.metrics(point.mapping) != point.metrics:
                raise CheckFailed("front vector differs from the scalar re-price")
        evaluator = CdcmEvaluator(state.platform)
        reports = [evaluator.evaluate(state.cdcg, p.mapping) for p in found.front]
        return reports, tuple(point.metrics for point in found.front)


class CodesignNsga3(_SearchWorkload):
    """Routing x mapping co-design (NSGA-III, repair certification) on 6x6."""

    name = "codesign-nsga3"
    spec = TgffSpec(
        name="codesign-30", num_cores=30, num_packets=120, total_bits=120 * 4_096
    )
    parameters = CodesignParameters(population_size=16, generations=4)

    def setup(self):
        cdcg = TgffLikeGenerator(APP_SEED).generate(self.spec)
        platform = Platform(mesh=Mesh(6, 6))
        engine = CodesignSearch(
            cdcg, platform, self.parameters, certification_policy="repair"
        )
        starts = _starts(self.seed, self.searches, cdcg, platform)
        return SimpleNamespace(cdcg=cdcg, platform=platform, engine=engine, starts=starts)

    def run(self, state, checking: Checking, mark: Mark) -> OpResult:
        # Every run synthesises its route tables afresh, as a search in a new
        # process would.
        clear_route_table_cache()
        return super().run(state, checking, mark)

    def _search(self, state, initial, search_seed):
        return state.engine.search(initial=initial, rng=search_seed)

    def _check(self, state, found, search_seed):
        """Front routings are deadlock-free and front points re-price exactly."""
        reports = []
        for point, routing in zip(found.front, found.front_routings):
            if not validate_deadlock_free(
                state.platform.mesh, routing, raise_on_cycle=False
            ).deadlock_free:
                raise CheckFailed(f"front routing {routing!r} can deadlock")
            routed = state.platform.with_routing(routing)
            fresh = CdcmEvaluationContext(state.cdcg, routed)
            if fresh.metrics(point.mapping) != point.metrics:
                raise CheckFailed("front vector differs from a fresh re-price")
            reports.append(CdcmEvaluator(routed).evaluate(state.cdcg, point.mapping))
        fingerprint = tuple(
            (routing.digest, point.metrics)
            for point, routing in zip(found.front, found.front_routings)
        )
        return reports, fingerprint

    def _counters(self, found) -> Dict[str, int]:
        return {
            "tables_certified": found.tables_certified,
            "tables_repaired": found.tables_repaired,
            "tables_rejected": found.tables_rejected,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (PaperTable2, CdcmRepairSa, CwmNsga2, CodesignNsga3)
}

__all__ = ["DEFAULT_SEED", "WORKLOADS", "OpResult", "CheckFailed"]
