"""Tests for the NSGA-II population-front search engine.

Covers the acceptance properties of the population-front redesign:

* the returned front is mutually non-dominated (and sorted/deduplicated like
  every :func:`repro.analysis.pareto.non_dominated` front);
* seeded runs are deterministic, and bit-identical between inline pricing
  (``backend=None``) and :class:`~repro.eval.parallel.ProcessPoolBackend`;
* on the paper's worked example the NSGA-II front matches the exhaustive
  front exactly, and on the image-encoder workload it is at least as good as
  a budget-matched :func:`~repro.analysis.pareto.weight_sweep_front`
  (hypervolume under a shared reference, plus a per-point dominance check);
* the engine-building machinery (registry, objective specs, scalar
  reporting) behaves like every other engine.

Worker count for the pool tests comes from ``REPRO_TEST_N_WORKERS``
(default 2), mirroring ``tests/test_parallel.py``.
"""

from __future__ import annotations

import os
from itertools import permutations

import pytest

from repro.analysis.pareto import (
    hypervolume,
    non_dominated,
    pareto_front,
    weight_sweep_front,
)
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search import available_searchers, get_searcher
from repro.search.nsga2 import (
    NSGA2Search,
    Nsga2Parameters,
    crowding_distances,
    fast_non_dominated_sort,
)
from repro.utils.errors import ConfigurationError
from repro.workloads.embedded import image_encoder

N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))

SEED = 20050307
KEYS = ("dynamic_energy", "time")
PARAMS = Nsga2Parameters(population_size=16, generations=8)


@pytest.fixture(scope="module")
def encoder_workload():
    """The image-encoder CDCG on a 4x3 mesh — the paper-style front workload."""
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(4, 3))
    return cdcg, platform


def _encoder_search(encoder_workload, backend=None, rng=SEED, params=PARAMS):
    cdcg, platform = encoder_workload
    context = CdcmEvaluationContext(cdcg, platform)
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    engine = NSGA2Search(params, keys=KEYS, backend=backend)
    return engine.search(context, initial, rng=rng)


class TestParameters:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(population_size=3)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(generations=0)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(tournament_size=0)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(tournament_size=40, population_size=8)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(crossover_rate=1.5)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(mutation_rate=-0.1)
        with pytest.raises(ConfigurationError):
            Nsga2Parameters(n_workers=0)

    def test_unknown_front_keys_rejected(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=0)
        engine = NSGA2Search(PARAMS, keys=("energy", "latency"))
        with pytest.raises(ConfigurationError):
            engine.search(context, initial, rng=0)

    def test_plain_scalar_callable_rejected(self, example_cdcg):
        initial = Mapping.random(example_cdcg.cores(), 4, rng=0)
        with pytest.raises(ConfigurationError):
            NSGA2Search(PARAMS).search(lambda mapping: 0.0, initial, rng=0)


class TestSortingPrimitives:
    def _vectors(self, pairs):
        return [MetricVector(("energy", "time"), pair) for pair in pairs]

    def test_fast_non_dominated_sort_ranks(self):
        vectors = self._vectors([(1, 4), (2, 3), (4, 1), (2, 4), (5, 5)])
        fronts = fast_non_dominated_sort(vectors, ("energy", "time"))
        assert fronts[0] == [0, 1, 2]
        assert fronts[1] == [3]
        assert fronts[2] == [4]
        assert sorted(i for front in fronts for i in front) == list(range(5))

    def test_crowding_boundaries_are_infinite(self):
        vectors = self._vectors([(1, 5), (2, 3), (3, 2), (5, 1)])
        distances = crowding_distances([0, 1, 2, 3], vectors, ("energy", "time"))
        assert distances[0] == float("inf")
        assert distances[3] == float("inf")
        assert 0.0 < distances[1] < float("inf")
        assert 0.0 < distances[2] < float("inf")

    def test_crowding_small_fronts_all_infinite(self):
        vectors = self._vectors([(1, 2), (2, 1)])
        distances = crowding_distances([0, 1], vectors, ("energy", "time"))
        assert all(value == float("inf") for value in distances.values())

    def test_crowding_degenerate_key_contributes_nothing(self):
        vectors = self._vectors([(1, 7), (2, 7), (3, 7)])
        distances = crowding_distances([0, 1, 2], vectors, ("energy", "time"))
        # energy spreads the interior point, the flat time axis adds nothing.
        assert distances[1] == pytest.approx(1.0)


class TestFrontInvariants:
    def test_front_is_mutually_non_dominated(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        assert result.front, "NSGA-II returned an empty front"
        for a in result.front:
            for b in result.front:
                if a is not b:
                    assert not a.metrics.dominates(b.metrics, KEYS)

    def test_front_sorted_and_deduplicated(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        positions = [tuple(p.metrics[k] for k in KEYS) for p in result.front]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)
        assert result.front == non_dominated(result.front, KEYS)

    def test_front_points_reprice_identically(self, encoder_workload):
        cdcg, platform = encoder_workload
        result = _encoder_search(encoder_workload)
        context = CdcmEvaluationContext(cdcg, platform)
        for point in result.front:
            assert context.metrics(point.mapping) == point.metrics

    def test_scalar_reporting_matches_weight_view(self, encoder_workload):
        # best_cost is the incumbent under the context's own weight view
        # ({"energy": 1.0} for a default CDCM context).
        result = _encoder_search(encoder_workload)
        assert result.best_metrics is not None
        assert result.best_cost == result.best_metrics["energy"]
        evals, final_cost = result.history[-1]
        assert final_cost == result.best_cost
        assert evals <= result.evaluations

    def test_evaluation_budget_is_mu_plus_lambda(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        expected = PARAMS.population_size * (PARAMS.generations + 1)
        assert result.evaluations == expected

    def test_single_component_objective_degenerates_gracefully(
        self, example_cwg, example_platform
    ):
        # CWM prices one component; NSGA-II degenerates into an elitist GA.
        context = CwmEvaluationContext(example_cwg, example_platform)
        initial = Mapping.random(sorted(example_cwg.cores), 4, rng=0)
        result = NSGA2Search(Nsga2Parameters(population_size=8, generations=4)).search(
            context, initial, rng=1
        )
        assert len(result.front) == 1
        assert result.front[0].metrics["dynamic_energy"] == result.best_cost


class TestDeterminism:
    def test_seeded_runs_identical(self, encoder_workload):
        first = _encoder_search(encoder_workload, rng=SEED)
        second = _encoder_search(encoder_workload, rng=SEED)
        assert first.best_cost == second.best_cost
        assert first.best_mapping == second.best_mapping
        assert first.history == second.history
        assert [p.metrics for p in first.front] == [p.metrics for p in second.front]
        assert [p.mapping for p in first.front] == [p.mapping for p in second.front]

    def test_serial_and_pooled_runs_bit_identical(self, encoder_workload):
        serial = _encoder_search(encoder_workload, backend=None)
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            pooled = _encoder_search(encoder_workload, backend=pool)
        assert serial.best_cost == pooled.best_cost
        assert serial.best_mapping == pooled.best_mapping
        assert serial.history == pooled.history
        assert serial.evaluations == pooled.evaluations
        assert [p.metrics for p in serial.front] == [p.metrics for p in pooled.front]
        assert [p.mapping for p in serial.front] == [p.mapping for p in pooled.front]

    def test_n_workers_knob_owns_and_releases_pool(self, encoder_workload):
        serial = _encoder_search(encoder_workload)
        with NSGA2Search(PARAMS, keys=KEYS, n_workers=2) as engine:
            cdcg, platform = encoder_workload
            context = CdcmEvaluationContext(cdcg, platform)
            initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
            pooled = engine.search(context, initial, rng=SEED)
            assert engine._owned_backend is not None
        assert engine._owned_backend is None
        assert pooled.best_cost == serial.best_cost
        assert [p.metrics for p in pooled.front] == [
            p.metrics for p in serial.front
        ]


class TestFrontQuality:
    def test_matches_exhaustive_front_on_paper_example(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        cores = example_cdcg.cores()
        candidates = [
            Mapping(dict(zip(cores, perm)), num_tiles=4)
            for perm in permutations(range(4))
        ]
        exhaustive = pareto_front(context, candidates, keys=("energy", "time"))

        initial = Mapping.random(cores, 4, rng=0)
        result = NSGA2Search(
            Nsga2Parameters(population_size=12, generations=8),
            keys=("energy", "time"),
        ).search(context, initial, rng=SEED)
        assert [p.metrics for p in result.front] == [
            p.metrics for p in exhaustive
        ]

    def test_front_at_least_matches_weight_sweep(self, encoder_workload):
        cdcg, platform = encoder_workload
        context = CdcmEvaluationContext(cdcg, platform)
        result = _encoder_search(encoder_workload)

        # Budget-matched baseline: the weight sweep prices exactly as many
        # candidates as NSGA-II evaluated.
        pool = [
            Mapping.random(cdcg.cores(), platform.num_tiles, rng=SEED + index)
            for index in range(result.evaluations)
        ]
        sweep = weight_sweep_front(context, pool, weights=9, keys=KEYS)

        # Shared reference: the componentwise maximum over both fronts.
        union = list(result.front) + list(sweep.front)
        reference = {
            key: max(point.metrics[key] for point in union) for key in KEYS
        }
        nsga2_hv = hypervolume(result.front, reference=reference, keys=KEYS)
        sweep_hv = hypervolume(sweep.front, reference=reference, keys=KEYS)
        assert nsga2_hv >= sweep_hv

        # Dominance check: no sweep point strictly dominates the entire
        # NSGA-II front.
        for point in sweep.front:
            assert not all(
                point.metrics.dominates(mine.metrics, KEYS)
                for mine in result.front
            )


class TestHypervolume:
    def _points(self, pairs):
        from repro.analysis.pareto import ParetoPoint

        return [
            ParetoPoint(
                mapping=Mapping({"a": index}, num_tiles=len(pairs)),
                metrics=MetricVector(("energy", "time"), pair),
            )
            for index, pair in enumerate(pairs)
        ]

    def test_rectangle_areas(self):
        points = self._points([(1, 3), (2, 2), (3, 1)])
        value = hypervolume(points, reference={"energy": 4, "time": 4}, keys=("energy", "time"))
        # (4-1)*(4-3) + (4-2)*(3-2) + (4-3)*(2-1) = 3 + 2 + 1
        assert value == pytest.approx(6.0)

    def test_dominated_points_are_filtered(self):
        points = self._points([(1, 3), (2, 2), (3, 1), (3, 3)])
        value = hypervolume(points, reference={"energy": 4, "time": 4}, keys=("energy", "time"))
        assert value == pytest.approx(6.0)

    def test_default_reference_is_componentwise_max(self):
        points = self._points([(1, 3), (2, 2), (3, 1)])
        # Reference (3, 3): the boundary points sit on the reference box and
        # contribute zero area; only the interior point's rectangle counts.
        assert hypervolume(points, keys=("energy", "time")) == pytest.approx(1.0)

    def test_points_outside_reference_contribute_nothing(self):
        points = self._points([(1, 5), (5, 1), (2, 2)])
        value = hypervolume(points, reference={"energy": 4, "time": 4}, keys=("energy", "time"))
        assert value == pytest.approx(4.0)

    def test_empty_and_arity_guards(self):
        assert hypervolume([], keys=("energy", "time")) == 0.0
        with pytest.raises(ConfigurationError):
            hypervolume(self._points([(1, 2)]), keys=("energy",))

    def test_reference_accepts_pair(self):
        points = self._points([(1, 1)])
        value = hypervolume(points, reference=(2, 3), keys=("energy", "time"))
        assert value == pytest.approx(2.0)


class TestRegistryIntegration:
    def test_registered_names(self):
        names = available_searchers()
        assert "nsga2" in names
        assert "nsga-ii" in names
        assert isinstance(get_searcher("nsga2"), NSGA2Search)
        assert isinstance(get_searcher("nsga-ii"), NSGA2Search)

    def test_kwargs_forwarded(self):
        engine = get_searcher("nsga2", keys=KEYS, n_workers=3)
        assert engine.keys == KEYS
        assert engine.parameters.n_workers == 3

    def test_accepts_weighted_spec(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=0)
        result = get_searcher("nsga2").search(
            (context, {"energy": 0.5, "time": 0.5}), initial, rng=3
        )
        assert result.front
        # The weighted view scores the incumbent with its own weights.
        expected = 0.5 * result.best_metrics["energy"] + 0.5 * result.best_metrics["time"]
        assert result.best_cost == pytest.approx(expected)
