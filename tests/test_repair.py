"""Bounded-repair CDCM deltas (repro.eval.repair): conformance and wiring.

The contract under test has three layers:

* **subset identity** — ``CdcmScheduler.schedule_subset`` over the whole
  application with no floors and no background must be bit-identical to
  ``schedule`` (same grant order, same arithmetic): the partial replay is a
  restriction of the full one, not a second scheduler; and the repair
  engine's base footprints must equal that replay's, in route order;
* **delta conformance** — walking random swap sequences, the running sum
  ``cost0 + sum(deltas)`` must match a full recompute exactly at every
  resync point and whenever the engine claims a step exact, and stay within
  the policy's drift bound in between (the shared harness of
  ``tests/delta_harness.py``, fuzzed over 100+ seeded sequences and over
  mesh / torus / irregular fabrics);
* **gating** — the paper-reproduction comparison pipeline must never enter
  the repair path (mirroring the never-vectorises and never-pools
  regressions), and the ``repair`` gate plus policy must survive a context
  pickle round trip into ``ProcessPoolBackend`` workers.
"""

from __future__ import annotations

import pickle
import random

import pytest

from delta_harness import check_delta_conformance, random_swaps
from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective
from repro.eval.context import CdcmEvaluationContext
from repro.eval.repair import (
    DEFAULT_REPAIR,
    CdcmRepairEngine,
    RepairPolicy,
)
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler, contention_index
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.search.annealing import AnnealingSchedule, SimulatedAnnealing
from repro.utils.errors import ConfigurationError, MappingError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec


def _fabric8() -> IrregularTopology:
    """An 8-tile irregular fabric: a 4-ring with a 4-tile spur mesh."""
    return IrregularTopology(
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (1, 4),
            (4, 5),
            (5, 2),
            (4, 6),
            (6, 7),
            (7, 5),
        ],
        name="repair-fabric8",
    )


#: The three fabric families the conformance sweep covers.
FABRICS = {
    "mesh": lambda: Platform(mesh=Mesh(4, 4)),
    "torus": lambda: Platform(mesh=Torus(4, 4)),
    "irregular": lambda: Platform(mesh=_fabric8(), routing="table"),
}


def _workload(num_cores: int, num_packets: int, seed: int = 7):
    spec = TgffSpec(
        name=f"repair-{num_cores}c{num_packets}p",
        num_cores=num_cores,
        num_packets=num_packets,
        total_bits=num_packets * 2_048,
    )
    return TgffLikeGenerator(seed).generate(spec)


def _identity_mapping(cdcg, platform: Platform) -> Mapping:
    cores = sorted(cdcg.cores())
    return Mapping(
        {core: tile for tile, core in enumerate(cores)}, platform.num_tiles
    )


# ---------------------------------------------------------------------------
# Subset replay identity
# ---------------------------------------------------------------------------
class TestSubsetReplayIdentity:
    @pytest.mark.parametrize("fabric", sorted(FABRICS), ids=sorted(FABRICS))
    def test_full_subset_is_bit_identical_to_schedule(self, fabric):
        platform = FABRICS[fabric]()
        cdcg = _workload(num_cores=6, num_packets=20)
        mapping = _identity_mapping(cdcg, platform)
        scheduler = CdcmScheduler(platform)
        full = scheduler.schedule(cdcg, mapping)
        tile_of = {core: mapping.tile_of(core) for core in cdcg.cores()}
        sub = scheduler.schedule_subset(
            cdcg, tile_of, [p.name for p in cdcg.packets]
        )
        assert set(sub.schedules) == set(full.packet_schedules)
        for name, schedule in sub.schedules.items():
            reference = full.packet_schedules[name]
            assert schedule.ready_time == reference.ready_time
            assert schedule.injection_time == reference.injection_time
            assert schedule.delivery_time == reference.delivery_time
            assert schedule.contention_delay == reference.contention_delay
            assert schedule.path == reference.path
        # Footprints must reproduce the full replay's contention index.
        serialize_local = platform.parameters.serialize_local_links
        index = contention_index(full, serialize_local)
        rebuilt = {}
        for name, footprint in sub.footprints.items():
            for resource, occupation in footprint:
                rebuilt.setdefault(resource, []).append(occupation)
        for resource, occupations in rebuilt.items():
            occupations.sort(key=lambda o: o.start)
        assert rebuilt == index


class TestBaseFootprints:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("fabric", sorted(FABRICS), ids=sorted(FABRICS))
    def test_base_footprints_match_the_full_subset_in_route_order(
        self, fabric, seed
    ):
        # Candidates compare footprints position by position, so a base
        # footprint out of route order marks an unmoved packet as changed.
        platform = FABRICS[fabric]()
        cdcg = _workload(num_cores=6, num_packets=20)
        mapping = Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed)
        engine = CdcmRepairEngine(cdcg, platform)
        base = engine._full_state(mapping)
        sub = engine.scheduler.schedule_subset(
            cdcg, base.tile_of, [p.name for p in cdcg.packets]
        )
        assert base.footprints == sub.footprints


# ---------------------------------------------------------------------------
# Policy validation and basic engine behaviour
# ---------------------------------------------------------------------------
class TestRepairPolicy:
    def test_defaults_are_valid(self):
        policy = RepairPolicy()
        assert policy.resync_every >= 1
        assert policy.max_drift >= 0
        assert DEFAULT_REPAIR is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resync_every": 0},
            {"resync_every": -3},
            {"max_drift": -0.1},
            {"closure_depth": -1},
            {"max_replay_fraction": -0.01},
            {"max_replay_fraction": 1.5},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            RepairPolicy(**kwargs)


class TestRepairEngine:
    @pytest.fixture
    def setup(self):
        platform = Platform(mesh=Mesh(4, 4))
        cdcg = _workload(num_cores=8, num_packets=24)
        engine = CdcmRepairEngine(cdcg, platform)
        mapping = _identity_mapping(cdcg, platform)
        return cdcg, platform, engine, mapping

    def test_same_tile_swap_prices_zero(self, setup):
        _, _, engine, mapping = setup
        delta = engine.metric_delta(mapping, 2, 2)
        assert tuple(delta.values) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert engine.last_outcome.exact

    def test_empty_empty_swap_prices_zero(self, setup):
        cdcg, platform, engine, mapping = setup
        occupied = {mapping.tile_of(core) for core in cdcg.cores()}
        empty = sorted(set(range(platform.num_tiles)) - occupied)
        assert len(empty) >= 2
        delta = engine.metric_delta(mapping, empty[0], empty[1])
        assert tuple(delta.values) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_out_of_range_tile_raises(self, setup):
        _, _, engine, mapping = setup
        with pytest.raises(MappingError):
            engine.metric_delta(mapping, 0, 99)

    def test_first_delta_anchors_then_promotes(self, setup):
        cdcg, platform, engine, mapping = setup
        evaluator = CdcmEvaluator(platform)
        delta = engine.metric_delta(mapping, 0, 5)
        assert engine.stats.anchors == 1
        swapped = mapping.swap_tiles(0, 5)
        truth = evaluator.metrics(cdcg, swapped)
        base = evaluator.metrics(cdcg, mapping)
        if engine.last_outcome.exact:
            assert delta["energy"] == pytest.approx(
                truth["energy"] - base["energy"], rel=1e-9
            )
        # Accept-and-continue: the next delta against the swapped mapping
        # splices the candidate instead of re-anchoring.
        engine.metric_delta(swapped, 1, 2)
        assert engine.stats.anchors == 1
        assert engine.stats.promotions == 1

    def test_tracked_metrics_follow_accepted_swaps(self, setup):
        _, _, engine, mapping = setup
        assert engine.tracked_metrics() is None
        engine.metric_delta(mapping, 0, 5)
        engine.metric_delta(mapping.swap_tiles(0, 5), 1, 2)
        tracked = engine.tracked_metrics()
        assert tracked is not None and tracked["energy"] > 0


# ---------------------------------------------------------------------------
# Delta conformance: fabrics sweep + seeded fuzz
# ---------------------------------------------------------------------------
class TestRepairConformance:
    @pytest.mark.parametrize("fabric", sorted(FABRICS), ids=sorted(FABRICS))
    def test_conformance_across_fabrics(self, fabric):
        platform = FABRICS[fabric]()
        cdcg = _workload(num_cores=6, num_packets=20)
        evaluator = CdcmEvaluator(platform)
        policy = RepairPolicy(resync_every=8, max_drift=0.05)
        engine = CdcmRepairEngine(cdcg, platform, policy=policy)
        report = check_delta_conformance(
            cost=lambda m: evaluator.metrics(cdcg, m)["energy"],
            delta=lambda m, a, b: engine.metric_delta(m, a, b)["energy"],
            initial=_identity_mapping(cdcg, platform),
            swaps=random_swaps(platform.num_tiles, 48, random.Random(13)),
            exact_rel=1e-9,
            bounded_rel=0.3,
            outcome=lambda: engine.last_outcome,
            label=f"cdcm-repair[{fabric}]",
        )
        assert report.steps == 48
        # resync_every=8 over 48 accepted swaps forces several resyncs, so
        # the exact regime must actually be exercised (the resync guarantee).
        assert engine.stats.resyncs + engine.stats.forced_resyncs >= 3
        assert report.exact_steps > 0

    def test_fuzz_100_seeded_swap_sequences(self):
        # The acceptance-criteria fuzz: >= 100 seeded random swap sequences
        # with zero bound violations (check_delta_conformance asserts).
        platform = Platform(mesh=Mesh(4, 4))
        cdcg = _workload(num_cores=8, num_packets=24)
        evaluator = CdcmEvaluator(platform)
        truth_cache: dict = {}

        def truth(mapping):
            key = tuple(sorted(mapping.assignments().items()))
            if key not in truth_cache:
                truth_cache[key] = evaluator.metrics(cdcg, mapping)["energy"]
            return truth_cache[key]

        initial = _identity_mapping(cdcg, platform)
        for seed in range(100):
            engine = CdcmRepairEngine(
                cdcg,
                platform,
                policy=RepairPolicy(resync_every=6, max_drift=0.1),
            )
            check_delta_conformance(
                cost=truth,
                delta=lambda m, a, b: engine.metric_delta(m, a, b)["energy"],
                initial=initial,
                swaps=random_swaps(
                    platform.num_tiles, 10, random.Random(1000 + seed)
                ),
                exact_rel=1e-9,
                bounded_rel=0.3,
                outcome=lambda: engine.last_outcome,
                label=f"fuzz[{seed}]",
            )


@pytest.mark.slow
class TestRepairAnnealingFuzz:
    """Nightly-style sweep: repair-path annealing vs full-replay annealing."""

    @pytest.mark.parametrize("fabric", sorted(FABRICS), ids=sorted(FABRICS))
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_final_costs_agree_within_drift(self, fabric, seed):
        platform = FABRICS[fabric]()
        cdcg = _workload(num_cores=6, num_packets=20, seed=seed)
        schedule = AnnealingSchedule(
            max_evaluations=1_500, moves_per_temperature=64
        )
        initial = _identity_mapping(cdcg, platform)
        results = {}
        for repair in (False, True):
            context = CdcmEvaluationContext(cdcg, platform, repair=repair)
            objective = cdcm_objective(cdcg, platform, context=context)
            searcher = SimulatedAnnealing(schedule, use_delta=True)
            results[repair] = searcher.search(objective, initial, rng=seed)
        full_cost = results[False].best_cost
        repair_cost = results[True].best_cost
        # Different walks (bounded deltas can flip borderline accepts), but
        # the two searches must land in the same cost neighbourhood, and
        # every reported best must be a true full-replay cost.
        evaluator = CdcmEvaluator(platform)
        for repair, result in results.items():
            recomputed = evaluator.metrics(cdcg, result.best_mapping)["energy"]
            assert result.best_cost == pytest.approx(recomputed, rel=1e-6)
        assert repair_cost <= full_cost * 1.25
        assert full_cost <= repair_cost * 1.25


# ---------------------------------------------------------------------------
# Gating: the comparison pipeline and pickling
# ---------------------------------------------------------------------------
class TestComparisonNeverRepairs:
    def test_comparison_config_pins_gate_off(self):
        assert ComparisonConfig().repair is False

    def test_comparison_paths_never_enter_repair(
        self, monkeypatch, example_cdcg, example_platform
    ):
        """The Table 1/2 reproduction pipeline must never price via repair.

        Poisoning the engine's entry points proves no comparison code path
        constructs or consults one — the rows stay full-replay priced and
        byte-identical to the pre-repair pipeline (mirrors
        ``TestComparisonNeverVectorises``).
        """

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ComparisonConfig engaged CdcmRepairEngine")

        monkeypatch.setattr(CdcmRepairEngine, "__init__", forbidden)
        monkeypatch.setattr(CdcmRepairEngine, "metric_delta", forbidden)
        config = ComparisonConfig(
            annealing_schedule=AnnealingSchedule(
                max_evaluations=60, moves_per_temperature=10
            )
        )
        comparison = compare_models(
            example_cdcg, example_platform, config, seed=3
        )
        assert comparison.cdcm_outcome.cost > 0

    def test_repair_config_engages_engine(
        self, example_cdcg, example_platform
    ):
        # The inverse guard: flipping the knob on really changes the path.
        config = ComparisonConfig(
            use_delta=True,
            repair=True,
            annealing_schedule=AnnealingSchedule(
                max_evaluations=60, moves_per_temperature=10
            ),
        )
        comparison = compare_models(
            example_cdcg, example_platform, config, seed=3
        )
        assert comparison.cdcm_outcome.cost > 0


class TestRepairPickling:
    def test_gate_and_policy_survive_round_trip(self):
        platform = Platform(mesh=Mesh(4, 4))
        cdcg = _workload(num_cores=8, num_packets=24)
        policy = RepairPolicy(resync_every=5, max_drift=0.2, closure_depth=1)
        context = CdcmEvaluationContext(
            cdcg, platform, repair=True, repair_policy=policy
        )
        mapping = _identity_mapping(cdcg, platform)
        first = context.metric_delta(mapping, 0, 5)
        assert context._repair_engine is not None  # engine state exists...
        clone = pickle.loads(pickle.dumps(context))
        # ...the gate and policy travel, the engine state does not.
        assert clone.repair is True
        assert clone.repair_policy == policy
        assert clone._repair_engine is None
        assert clone.supports_metric_delta
        # An unpickled worker re-anchors and prices the same swap the same.
        assert tuple(clone.metric_delta(mapping, 0, 5).values) == tuple(
            first.values
        )
        assert clone._repair_engine.policy == policy

    def test_pinned_off_clone_stays_off(self):
        platform = Platform(mesh=Mesh(4, 4))
        cdcg = _workload(num_cores=8, num_packets=24)
        context = CdcmEvaluationContext(cdcg, platform, repair=False)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.repair is False
        assert not clone.supports_delta
        with pytest.raises(NotImplementedError):
            clone.delta(_identity_mapping(cdcg, platform), 0, 1)
