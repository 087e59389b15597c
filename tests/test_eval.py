"""The evaluation engine (repro.eval): route tables, contexts, deltas."""

import numpy as np
import pytest

from repro.core.cwm import CwmEvaluator
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.core.objective import CountingObjective, cdcm_objective, cwm_objective
from repro.eval.context import (
    CdcmEvaluationContext,
    CwmEvaluationContext,
    EvaluationContext,
)
from repro.eval.route_table import (
    RouteTable,
    clear_route_table_cache,
    get_route_table,
)
from repro.graphs.convert import cdcg_to_cwg
from repro.graphs.cwg import CWG, cwg_from_edges
from repro.noc.platform import Platform
from repro.noc.routing import XYRouting, YXRouting
from repro.noc.topology import Mesh, Torus
from repro.search.annealing import FAST_SCHEDULE, SimulatedAnnealing
from repro.search.base import delta_callable
from repro.search.greedy import GreedyConstructive
from repro.utils.errors import ConfigurationError, MappingError


def _random_cwg(rng: np.random.Generator, num_cores: int) -> CWG:
    """A random connected-ish CWG over ``c0..c{n-1}`` with integer volumes."""
    cores = [f"c{i}" for i in range(num_cores)]
    edges = []
    for source in range(num_cores):
        for target in range(num_cores):
            if source != target and rng.random() < 0.4:
                edges.append(
                    (cores[source], cores[target], int(rng.integers(1, 5000)))
                )
    if not edges:  # guarantee at least one communication
        edges.append((cores[0], cores[-1], int(rng.integers(1, 5000))))
    return cwg_from_edges("random", edges, cores=cores)


class TestRouteTable:
    @pytest.mark.parametrize("mesh", [Mesh(2, 2), Mesh(4, 3), Torus(3, 3)])
    @pytest.mark.parametrize("routing", [XYRouting(), YXRouting()])
    def test_matches_live_routing(self, mesh, routing):
        platform = Platform(mesh=mesh, routing=routing)
        table = RouteTable.for_platform(platform)
        for source in range(mesh.num_tiles):
            for target in range(mesh.num_tiles):
                path = routing.route(mesh, source, target)
                assert list(table.path(source, target)) == path
                assert table.hop_count(source, target) == len(path)
                assert list(table.links(source, target)) == list(
                    zip(path, path[1:])
                )

    def test_bit_energy_matches_equation_2(self):
        from repro.energy.bit_energy import bit_energy_route

        platform = Platform(mesh=Mesh(3, 3))
        for include_local in (True, False):
            table = RouteTable.for_platform(platform, include_local=include_local)
            for source in range(9):
                for target in range(9):
                    hops = table.hop_count(source, target)
                    assert table.bit_energy(source, target) == bit_energy_route(
                        platform.technology, hops, include_local
                    )

    def test_rejects_out_of_range_pairs(self):
        table = RouteTable.for_platform(Platform(mesh=Mesh(2, 2)))
        with pytest.raises(ConfigurationError):
            table.path(0, 4)
        with pytest.raises(ConfigurationError):
            table.hop_count(-1, 0)

    def test_lazy_table_agrees_with_eager(self):
        platform = Platform(mesh=Mesh(3, 4))
        eager = RouteTable.for_platform(platform, precompute=True)
        lazy = RouteTable.for_platform(platform, precompute=False)
        assert eager.is_precomputed and not lazy.is_precomputed
        assert lazy.flat_bit_energy() is None
        for source in range(12):
            for target in range(12):
                assert lazy.path(source, target) == eager.path(source, target)
                assert lazy.bit_energy(source, target) == eager.bit_energy(
                    source, target
                )

    def test_shared_cache_reuses_tables(self):
        clear_route_table_cache()
        platform = Platform(mesh=Mesh(3, 3))
        table = get_route_table(platform)
        assert get_route_table(platform) is table
        # Same mesh, different include_local -> distinct table.
        assert get_route_table(platform, include_local=False) is not table
        # A different routing class must not alias.
        other = get_route_table(platform.with_routing(YXRouting()))
        assert other is not table

    def test_flat_energy_is_row_major(self):
        platform = Platform(mesh=Mesh(2, 3))
        table = get_route_table(platform)
        flat = table.flat_bit_energy()
        n = table.num_tiles
        for source in range(n):
            for target in range(n):
                assert flat[source * n + target] == table.bit_energy(source, target)


class TestCwmEvaluationContext:
    @pytest.fixture
    def context(self, example_cdcg, example_platform):
        return CwmEvaluationContext(cdcg_to_cwg(example_cdcg), example_platform)

    def test_cost_matches_evaluator(self, example_cdcg, example_platform, context):
        evaluator = CwmEvaluator(example_platform)
        cwg = cdcg_to_cwg(example_cdcg)
        for seed in range(10):
            mapping = Mapping.random(example_cdcg.cores(), 4, rng=seed)
            assert context.cost(mapping) == evaluator.cost(cwg, mapping)

    def test_cost_accepts_plain_dicts(self, context, example_mappings):
        mapping = example_mappings["c"]
        assert context.cost(mapping.assignments()) == context.cost(mapping)

    def test_cost_rejects_unplaced_core(self, context):
        with pytest.raises(MappingError):
            context.cost({"A": 0, "B": 1})

    def test_cost_rejects_out_of_range_tile(self, context):
        with pytest.raises(MappingError):
            context.cost({"A": 0, "B": 1, "E": 2, "F": 99})

    def test_memo_hits(self, context, example_mappings):
        mapping = example_mappings["c"]
        context.cost(mapping)
        before = context.cache_info()
        context.cost(mapping)
        after = context.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        context.clear_cache()
        assert context.cache_info().hits == 0

    def test_cache_can_be_disabled(self, example_cdcg, example_platform):
        context = CwmEvaluationContext(
            cdcg_to_cwg(example_cdcg), example_platform, cache_size=0
        )
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=0)
        context.cost(mapping)
        context.cost(mapping)
        info = context.cache_info()
        assert info.hits == 0 and info.misses == 2 and info.currsize == 0

    def test_evaluate_batch(self, context, example_cdcg):
        mappings = [Mapping.random(example_cdcg.cores(), 4, rng=s) for s in range(4)]
        assert context.evaluate_batch(mappings) == [
            context.cost(m) for m in mappings
        ]


class TestCwmDelta:
    """The tentpole property: cost(m.swap_tiles(a, b)) == cost(m) + delta."""

    @pytest.mark.parametrize("trial", range(20))
    def test_delta_is_exact_on_random_instances(self, trial):
        rng = np.random.default_rng(1000 + trial)
        width = int(rng.integers(2, 5))
        height = int(rng.integers(2, 5))
        platform = Platform(mesh=Mesh(width, height))
        num_tiles = platform.num_tiles
        # Leave some tiles empty so empty-tile swaps are exercised too.
        num_cores = int(rng.integers(2, num_tiles + 1))
        cwg = _random_cwg(rng, num_cores)
        context = CwmEvaluationContext(cwg, platform)
        mapping = Mapping.random(cwg.cores, num_tiles, rng=rng)
        cost = context.cost(mapping)
        for _ in range(25):
            tile_a = int(rng.integers(num_tiles))
            tile_b = int(rng.integers(num_tiles))
            delta = context.delta(mapping, tile_a, tile_b)
            swapped = mapping.swap_tiles(tile_a, tile_b)
            assert context.cost(swapped) == pytest.approx(
                cost + delta, rel=1e-12, abs=1e-9
            )
            mapping, cost = swapped, cost + delta

    @pytest.mark.parametrize(
        "topology", [Mesh(3, 3), Torus(3, 3)], ids=["mesh", "torus"]
    )
    def test_delta_conformance_harness(self, topology):
        # Re-pin the CWM delta through the shared conformance harness (the
        # same one that bounds CDCM bounded repair in test_repair.py): the
        # CWM delta claims exactness on every step, so no outcome stream
        # and no drift bound.
        import random

        from delta_harness import check_delta_conformance, random_swaps

        rng = np.random.default_rng(42)
        platform = Platform(mesh=topology)
        cwg = _random_cwg(rng, 6)
        context = CwmEvaluationContext(cwg, platform)
        initial = Mapping.random(cwg.cores, platform.num_tiles, rng=rng)
        report = check_delta_conformance(
            cost=context.cost,
            delta=context.delta,
            initial=initial,
            swaps=random_swaps(platform.num_tiles, 60, random.Random(7)),
            exact_rel=1e-9,
            label=f"cwm-delta[{topology}]",
        )
        assert report.steps == report.exact_steps == 60

    def test_empty_empty_swap_is_zero(self, example_platform):
        cwg = cwg_from_edges("two", [("a", "b", 10)])
        context = CwmEvaluationContext(cwg, example_platform)
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        assert context.delta(mapping, 2, 3) == 0.0

    def test_same_tile_swap_is_zero(self, example_platform):
        cwg = cwg_from_edges("two", [("a", "b", 10)])
        context = CwmEvaluationContext(cwg, example_platform)
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        assert context.delta(mapping, 1, 1) == 0.0

    def test_empty_occupied_swap(self, example_platform):
        cwg = cwg_from_edges("two", [("a", "b", 10)])
        context = CwmEvaluationContext(cwg, example_platform)
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        delta = context.delta(mapping, 0, 2)  # move "a" diagonally away from "b"
        moved = mapping.swap_tiles(0, 2)
        assert context.cost(moved) == pytest.approx(context.cost(mapping) + delta)
        assert delta > 0  # route got longer, energy strictly grows

    def test_swap_between_communicating_cores(self, example_platform):
        # Both endpoints of an edge move at once: the edge must be priced once.
        cwg = cwg_from_edges("pair", [("a", "b", 100), ("b", "a", 50)])
        context = CwmEvaluationContext(cwg, example_platform)
        mapping = Mapping({"a": 0, "b": 3}, num_tiles=4)
        delta = context.delta(mapping, 0, 3)
        swapped = mapping.swap_tiles(0, 3)
        assert context.cost(swapped) == pytest.approx(
            context.cost(mapping) + delta
        )

    def test_delta_rejects_bad_tiles(self, example_platform):
        cwg = cwg_from_edges("two", [("a", "b", 10)])
        context = CwmEvaluationContext(cwg, example_platform)
        mapping = Mapping({"a": 0, "b": 1}, num_tiles=4)
        with pytest.raises(MappingError):
            context.delta(mapping, 0, 4)


class TestCdcmEvaluationContext:
    def test_cost_matches_evaluator(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        evaluator = CdcmEvaluator(example_platform)
        for seed in range(5):
            mapping = Mapping.random(example_cdcg.cores(), 4, rng=seed)
            assert context.cost(mapping) == evaluator.cost(example_cdcg, mapping)

    def test_repair_gate_controls_delta_support(
        self, example_cdcg, example_platform, example_mappings
    ):
        # Default-on: swap deltas are priced by the bounded-repair engine.
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        assert context.supports_delta
        assert context.supports_metric_delta
        # Pinned off (the ComparisonConfig setting): no delta path at all.
        pinned = CdcmEvaluationContext(
            example_cdcg, example_platform, repair=False
        )
        assert not pinned.supports_delta
        with pytest.raises(NotImplementedError):
            pinned.delta(example_mappings["c"], 0, 1)

    def test_memoises_replays(self, example_cdcg, example_platform, example_mappings):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        first = context.cost(example_mappings["d"])
        second = context.cost(example_mappings["d"])
        assert first == second == pytest.approx(399.0)
        assert context.cache_info().hits == 1

    def test_batch_duplicate_is_one_miss_and_no_hit(
        self, example_cdcg, example_platform, example_mappings
    ):
        # One batch path for every context: a cold [A, B, A, dict] batch
        # prices A once; the dict holds A's key row, so it is a repeat too.
        a, b = example_mappings["c"], example_mappings["d"]
        batch = [a, b, a, a.assignments()]
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        reference = CdcmEvaluationContext(example_cdcg, example_platform)
        assert context.evaluate_metrics_batch(batch) == [
            reference.metrics(mapping) for mapping in batch
        ]
        info = context.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)

    def test_report_passthrough(self, example_cdcg, example_platform, example_mappings):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        report = context.evaluate(example_mappings["c"])
        assert report.execution_time == pytest.approx(100.0)


class TestObjectiveIntegration:
    def test_cwm_objective_advertises_delta(self, example_cdcg, example_platform):
        objective = cwm_objective(cdcg_to_cwg(example_cdcg), example_platform)
        assert objective.supports_delta
        assert delta_callable(objective) is not None

    def test_cdcm_objective_delta_follows_repair_gate(
        self, example_cdcg, example_platform
    ):
        objective = cdcm_objective(example_cdcg, example_platform)
        assert objective.supports_delta
        assert delta_callable(objective) is not None
        pinned = cdcm_objective(example_cdcg, example_platform, repair=False)
        assert not pinned.supports_delta
        assert delta_callable(pinned) is None

    def test_plain_callable_has_no_delta(self):
        objective = CountingObjective(lambda m: 0.0)
        assert not objective.supports_delta
        assert delta_callable(objective) is None
        with pytest.raises(NotImplementedError):
            objective.delta(Mapping({"a": 0}), 0, 1)

    def test_delta_calls_are_counted(self, example_cdcg, example_platform):
        objective = cwm_objective(cdcg_to_cwg(example_cdcg), example_platform)
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=1)
        objective.delta(mapping, 0, 1)
        objective.delta(mapping, 1, 2)
        assert objective.delta_evaluations == 2
        assert objective.evaluations == 0
        objective.reset()
        assert objective.delta_evaluations == 0

    def test_cache_info_exposed(self, example_cdcg, example_platform):
        objective = cwm_objective(cdcg_to_cwg(example_cdcg), example_platform)
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=1)
        objective(mapping)
        objective(mapping)
        info = objective.cache_info()
        assert info is not None and info.hits == 1
        assert CountingObjective(lambda m: 0.0).cache_info() is None


class TestDeltaAwareSearch:
    def test_annealing_delta_matches_full_walk(self, example_cdcg, example_platform):
        """Delta-priced annealing takes the same walk as full re-evaluation."""
        cwg = cdcg_to_cwg(example_cdcg)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=11)
        fast = SimulatedAnnealing(FAST_SCHEDULE, use_delta=True).search(
            cwm_objective(cwg, example_platform), initial, rng=9
        )
        full = SimulatedAnnealing(FAST_SCHEDULE, use_delta=False).search(
            cwm_objective(cwg, example_platform), initial, rng=9
        )
        assert fast.best_mapping == full.best_mapping
        assert fast.best_cost == pytest.approx(full.best_cost, rel=1e-12)
        assert fast.accepted_moves == full.accepted_moves

    def test_annealing_uses_delta_evaluations(self, example_cdcg, example_platform):
        objective = cwm_objective(cdcg_to_cwg(example_cdcg), example_platform)
        SimulatedAnnealing(FAST_SCHEDULE).search(
            objective, Mapping.random(example_cdcg.cores(), 4, rng=2), rng=5
        )
        assert objective.delta_evaluations > 0
        # Full evaluations only happen at the start and on new bests.
        assert objective.evaluations < objective.delta_evaluations

    def test_annealing_deterministic_with_seed_in_delta_mode(
        self, example_cdcg, example_platform
    ):
        cwg = cdcg_to_cwg(example_cdcg)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=11)
        a = SimulatedAnnealing(FAST_SCHEDULE).search(
            cwm_objective(cwg, example_platform), initial, rng=9
        )
        b = SimulatedAnnealing(FAST_SCHEDULE).search(
            cwm_objective(cwg, example_platform), initial, rng=9
        )
        assert a.best_mapping == b.best_mapping
        assert a.best_cost == b.best_cost

    def test_greedy_refinement_never_hurts(self, example_cdcg, example_platform):
        cwg = cdcg_to_cwg(example_cdcg)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=3)
        refined = GreedyConstructive(cwg, example_platform).search(
            cwm_objective(cwg, example_platform), initial
        )
        plain = GreedyConstructive(cwg, example_platform, refine=False).search(
            cwm_objective(cwg, example_platform), initial
        )
        assert refined.best_cost <= plain.best_cost + 1e-9

    def test_greedy_refined_cost_is_exact(self):
        rng = np.random.default_rng(77)
        cwg = _random_cwg(rng, 7)
        platform = Platform(mesh=Mesh(3, 3))
        objective = cwm_objective(cwg, platform)
        initial = Mapping.random(cwg.cores, 9, rng=5)
        result = GreedyConstructive(cwg, platform).search(objective, initial)
        context = CwmEvaluationContext(cwg, platform)
        assert result.best_cost == pytest.approx(
            context.cost(result.best_mapping), rel=1e-12
        )


class TestEvaluationContextBase:
    def test_rejects_negative_cache_size(self, example_cdcg, example_platform):
        with pytest.raises(ConfigurationError):
            CwmEvaluationContext(
                cdcg_to_cwg(example_cdcg), example_platform, cache_size=-1
            )

    def test_lru_eviction(self, example_cdcg, example_platform):
        context = CwmEvaluationContext(
            cdcg_to_cwg(example_cdcg), example_platform, cache_size=2
        )
        mappings = [Mapping.random(example_cdcg.cores(), 4, rng=s) for s in range(3)]
        for mapping in mappings:
            context.cost(mapping)
        assert context.cache_info().currsize == 2
        context.cost(mappings[0])  # evicted -> miss
        assert context.cache_info().hits == 0

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            EvaluationContext()  # type: ignore[abstract]
