"""Tests for the NSGA-III reference-point search engine.

Covers the many-objective acceptance properties of the co-design PR:

* the Das–Dennis lattice has the closed-form size, sums to one and comes in
  a deterministic order;
* association and niching are fully deterministic (index tie-breaks), so
  seeded runs are bit-identical — including between inline pricing
  (``backend=None``) and :class:`~repro.eval.parallel.ProcessPoolBackend`,
  extending the determinism matrix to the new engine;
* the returned front is mutually non-dominated under three keys (the
  energy × time × congestion trade-off introduced by this PR);
* registry and parameter plumbing behave like every other engine.

Worker count for the pool tests comes from ``REPRO_TEST_N_WORKERS``
(default 2), mirroring ``tests/test_parallel.py``.
"""

from __future__ import annotations

import math
import os
from math import comb

import pytest

from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search import available_searchers, get_searcher
from repro.search.nsga3 import (
    NSGA3Search,
    Nsga3Parameters,
    associate_to_references,
    das_dennis_reference_points,
    default_divisions,
    niche_select,
)
from repro.utils.errors import ConfigurationError
from repro.workloads.embedded import image_encoder

N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))

SEED = 20050307
KEYS = ("energy", "time", "max_link_utilisation")
PARAMS = Nsga3Parameters(population_size=12, generations=6)


@pytest.fixture(scope="module")
def encoder_workload():
    """The image-encoder CDCG on a 3x3 mesh — the many-objective workload."""
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(3, 3))
    return cdcg, platform


def _encoder_search(encoder_workload, backend=None, rng=SEED, params=PARAMS):
    cdcg, platform = encoder_workload
    context = CdcmEvaluationContext(cdcg, platform)
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    engine = NSGA3Search(params, keys=KEYS, backend=backend)
    return engine.search(context, initial, rng=rng)


class TestParameters:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(population_size=3)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(generations=0)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(tournament_size=0)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(crossover_rate=1.5)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(mutation_rate=-0.1)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(divisions=0)
        with pytest.raises(ConfigurationError):
            Nsga3Parameters(n_workers=0)

    def test_unknown_front_keys_rejected(self, example_cdcg, example_platform):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        initial = Mapping.random(example_cdcg.cores(), 4, rng=0)
        engine = NSGA3Search(PARAMS, keys=("energy", "latency"))
        with pytest.raises(ConfigurationError):
            engine.search(context, initial, rng=0)

    def test_empty_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            NSGA3Search(PARAMS, keys=())


class TestReferencePoints:
    def test_lattice_size_is_closed_form(self):
        for objectives, divisions in ((2, 4), (3, 4), (3, 6), (4, 3)):
            points = das_dennis_reference_points(objectives, divisions)
            assert len(points) == comb(divisions + objectives - 1, objectives - 1)
            assert len(set(points)) == len(points)

    def test_points_live_on_the_simplex(self):
        for point in das_dennis_reference_points(3, 5):
            assert sum(point) == pytest.approx(1.0)
            assert all(coordinate >= 0.0 for coordinate in point)

    def test_order_is_deterministic_lexicographic(self):
        points = das_dennis_reference_points(2, 2)
        assert points == ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))

    def test_default_divisions_covers_population(self):
        for objectives, population in ((1, 16), (2, 16), (3, 12), (3, 91), (4, 8)):
            divisions = default_divisions(objectives, population)
            if objectives == 1:
                # One axis has one lattice point at every division count.
                assert divisions == 1
                continue
            assert (
                len(das_dennis_reference_points(objectives, divisions))
                >= population
            )
            if divisions > 1:
                assert (
                    len(das_dennis_reference_points(objectives, divisions - 1))
                    < population
                )

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            das_dennis_reference_points(0, 3)
        with pytest.raises(ConfigurationError):
            das_dennis_reference_points(3, 0)


class TestAssociationAndNiching:
    def test_association_picks_perpendicular_nearest(self):
        references = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
        normalised = {0: (1.0, 0.05), 1: (0.5, 0.45), 2: (0.0, 0.9)}
        association = associate_to_references(normalised, references)
        assert association[0][0] == 0
        assert association[1][0] == 1
        assert association[2][0] == 2
        # A point on its reference direction has zero perpendicular distance.
        on_axis = associate_to_references({0: (0.7, 0.0)}, references)
        assert on_axis[0] == (0, pytest.approx(0.0))

    def test_niche_select_prefers_empty_niches(self):
        vectors = [
            MetricVector(("energy", "time"), pair)
            for pair in ((1.0, 0.0), (0.9, 0.1), (0.45, 0.55), (0.0, 1.0))
        ]
        references = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
        # Index 0 is accepted and crowds the (1, 0)-direction niche, which
        # spill index 1 also maps to; the diagonal niche is empty and has
        # the lower reference index of the two empty ones, so its candidate
        # (the middle point, index 2) must win the single slot.
        chosen = niche_select(
            [0], [1, 2, 3], vectors, ("energy", "time"), references, 1
        )
        assert chosen == [2]

    def test_niche_select_is_deterministic_and_fills_slots(self):
        vectors = [
            MetricVector(("energy", "time"), (float(i), 10.0 - i))
            for i in range(8)
        ]
        references = das_dennis_reference_points(2, 4)
        first = niche_select([0, 1], [2, 3, 4, 5, 6, 7], vectors, ("energy", "time"), references, 4)
        second = niche_select([0, 1], [2, 3, 4, 5, 6, 7], vectors, ("energy", "time"), references, 4)
        assert first == second
        assert len(first) == 4
        assert len(set(first)) == 4


class TestFrontInvariants:
    def test_front_is_mutually_non_dominated(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        assert result.front, "NSGA-III returned an empty front"
        for a in result.front:
            for b in result.front:
                if a is not b:
                    assert not a.metrics.dominates(b.metrics, KEYS)

    def test_front_points_reprice_identically(self, encoder_workload):
        cdcg, platform = encoder_workload
        result = _encoder_search(encoder_workload)
        context = CdcmEvaluationContext(cdcg, platform)
        for point in result.front:
            assert context.metrics(point.mapping) == point.metrics

    def test_congestion_key_is_priced(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        for point in result.front:
            assert 0.0 <= point.metrics["max_link_utilisation"] <= 1.0

    def test_evaluation_budget_is_mu_plus_lambda(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        expected = PARAMS.population_size * (PARAMS.generations + 1)
        assert result.evaluations == expected

    def test_scalar_reporting_matches_weight_view(self, encoder_workload):
        result = _encoder_search(encoder_workload)
        assert result.best_metrics is not None
        assert result.best_cost == result.best_metrics["energy"]
        evals, final_cost = result.history[-1]
        assert final_cost == result.best_cost
        assert evals <= result.evaluations


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
        with NSGA3Search(PARAMS, keys=KEYS, n_workers=2) as engine:
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


class TestRegistryIntegration:
    def test_registered_names(self):
        names = available_searchers()
        assert "nsga3" in names
        assert "nsga-iii" in names
        assert isinstance(get_searcher("nsga3"), NSGA3Search)
        assert isinstance(get_searcher("nsga-iii"), NSGA3Search)

    def test_kwargs_forwarded(self):
        engine = get_searcher("nsga3", keys=KEYS, n_workers=3)
        assert engine.keys == KEYS
        assert engine.parameters.n_workers == 3

    def test_default_keys_fall_back_like_nsga2(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        engine = NSGA3Search(Nsga3Parameters(population_size=6, generations=2))
        assert engine._resolve_keys(context) == ("energy", "time")

    def test_single_key_context_runs_to_completion(self, encoder_workload):
        # Plain CWM prices one component, so the keys fall back to it and
        # the reference lattice has a single point.
        cdcg, platform = encoder_workload
        context = CwmEvaluationContext(cdcg_to_cwg(cdcg), platform)
        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
        engine = get_searcher("nsga3")
        result = engine.search(context, initial, rng=SEED)
        params = engine.parameters
        assert result.evaluations == params.population_size * (params.generations + 1)
        assert result.best_cost == context.cost(result.best_mapping)
        assert {context.cost(point.mapping) for point in result.front} == {
            result.best_cost
        }
