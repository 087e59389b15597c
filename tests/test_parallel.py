"""The parallel batch-pricing backend (repro.eval.parallel).

The backend contract is *bit-identity*: a batch priced through any backend
must return the exact floats the serial path returns, so that seeded
searches are reproducible regardless of ``n_workers``.  These tests pin that
contract, the picklable-light context design the pool depends on, and the
regression that the paper-reproduction pipeline (``ComparisonConfig``) never
engages a pool.

Worker count for the pool tests comes from ``REPRO_TEST_N_WORKERS``
(default 2), which is how CI exercises the pool explicitly.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective, cwm_objective
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import (
    BatchBackend,
    ProcessPoolBackend,
    SerialBackend,
    _price_metrics_chunk,
    warm_route_table,
)
from repro.eval.route_table import (
    RouteTable,
    clear_route_table_cache,
    get_route_table,
    register_route_table,
)
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh, Torus
from repro.search.annealing import FAST_SCHEDULE, SimulatedAnnealing
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.utils.errors import ConfigurationError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

#: Pool size used by every pooled test; CI pins it to 2 explicitly.
N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))


@pytest.fixture(scope="module")
def workload():
    """A 12-core generated application on a 4x4 mesh."""
    spec = TgffSpec(name="parallel", num_cores=12, num_packets=40, total_bits=60_000)
    cdcg = TgffLikeGenerator(13).generate(spec)
    return cdcg, cdcg_to_cwg(cdcg), Platform(mesh=Mesh(4, 4))


@pytest.fixture(scope="module")
def pool():
    """One shared pool for the whole module (pool startup is the slow part)."""
    backend = ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2)
    yield backend
    backend.close()


def _random_mappings(cwg, num_tiles, count, offset=0):
    return [
        Mapping.random(cwg.cores, num_tiles, rng=offset + seed)
        for seed in range(count)
    ]


def _first_call_dies(marker):
    """True in the one process that creates *marker*; that process must die."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _price_or_die_once(marker, token, payload, mappings):
    """The pool's chunk task, except that its first call kills its worker."""
    if _first_call_dies(marker):
        os._exit(1)
    return _price_metrics_chunk(token, payload, mappings)


def _square_or_die_once(marker, value):
    if _first_call_dies(marker):
        os._exit(1)
    return value * value


def _always_die(value):
    os._exit(1)


class TestBackendEquivalence:
    def test_serial_backend_matches_inline(self, workload):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform)
        mappings = _random_mappings(cwg, 16, 16)
        inline = [context._compute_cost(m) for m in mappings]
        assert context.evaluate_batch(mappings, backend=SerialBackend()) == inline

    def test_pooled_cwm_costs_bit_identical(self, workload, pool):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform, cache_size=0)
        mappings = _random_mappings(cwg, 16, 24)
        inline = [context._compute_cost(m) for m in mappings]
        assert context.evaluate_batch(mappings, backend=pool) == inline

    def test_pooled_cdcm_costs_bit_identical(self, workload, pool):
        cdcg, _, platform = workload
        context = CdcmEvaluationContext(cdcg, platform, cache_size=0)
        mappings = _random_mappings(cdcg_to_cwg(cdcg), 16, 6)
        inline = [context._compute_cost(m) for m in mappings]
        assert context.evaluate_batch(mappings, backend=pool) == inline

    def test_batch_dedupes_and_fills_memo(self, workload):
        _, cwg, platform = workload

        class CountingBackend(SerialBackend):
            computed = 0

            def evaluate_metrics(self, context, mappings):
                # Batch misses are priced through the vector seam; the memo
                # stores MetricVectors and scalar costs are derived views.
                CountingBackend.computed += len(list(mappings))
                return super().evaluate_metrics(context, mappings)

        context = CwmEvaluationContext(cwg, platform)
        base = _random_mappings(cwg, 16, 4)
        batch = base + [base[0], base[2]]  # duplicates collapse to one compute
        costs = context.evaluate_batch(batch, backend=CountingBackend())
        assert CountingBackend.computed == 4
        assert costs[4] == costs[0] and costs[5] == costs[2]
        # Second batch is answered entirely from the memo.
        context.evaluate_batch(base, backend=CountingBackend())
        assert CountingBackend.computed == 4
        assert context.cache_info().hits == len(base)

    def test_default_backend_at_construction(self, workload):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform, backend=SerialBackend())
        mappings = _random_mappings(cwg, 16, 5)
        assert context.backend is not None
        assert context.evaluate_batch(mappings) == [
            context._compute_cost(m) for m in mappings
        ]

    def test_backend_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(n_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(chunk_size=0)

    def test_small_batches_price_inline(self, workload):
        _, cwg, platform = workload
        backend = ProcessPoolBackend(n_workers=2, min_batch_size=100)
        context = CwmEvaluationContext(cwg, platform)
        mappings = _random_mappings(cwg, 16, 3)
        # Below min_batch_size no pool is ever created.
        assert context.evaluate_batch(mappings, backend=backend) == [
            context._compute_cost(m) for m in mappings
        ]
        assert backend._pool is None
        backend.close()


class TestContextPickling:
    def test_cwm_round_trip_prices_identically(self, workload):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform, backend=SerialBackend())
        mappings = _random_mappings(cwg, 16, 8)
        expected = [context._compute_cost(m) for m in mappings]
        clone = pickle.loads(pickle.dumps(context))
        assert [clone._compute_cost(m) for m in mappings] == expected

    def test_cdcm_round_trip_prices_identically(self, workload):
        cdcg, cwg, platform = workload
        context = CdcmEvaluationContext(
            cdcg, platform, metric="weighted", energy_weight=0.7, time_weight=0.3
        )
        mappings = _random_mappings(cwg, 16, 4)
        expected = [context._compute_cost(m) for m in mappings]
        clone = pickle.loads(pickle.dumps(context))
        assert [clone._compute_cost(m) for m in mappings] == expected
        assert clone.evaluator.metric == "weighted"
        assert clone.evaluator.time_weight == 0.3

    def test_custom_route_table_travels_with_pickle(self, workload):
        from repro.eval.route_table import is_shared_route_table

        _, cwg, platform = workload
        custom = RouteTable.for_platform(platform, precompute=True)
        context = CwmEvaluationContext(cwg, platform, route_table=custom)
        clone = pickle.loads(pickle.dumps(context))
        # A non-shared table must ship with the pickle (a worker-side rebuild
        # could resolve different routes for custom routing algorithms)...
        assert not is_shared_route_table(clone.route_table, platform)
        assert clone.route_table.is_precomputed
        # ...while the default shared table is dropped and rebuilt.
        default_clone = pickle.loads(
            pickle.dumps(CwmEvaluationContext(cwg, platform))
        )
        assert is_shared_route_table(default_clone.route_table, platform)

    def test_pickle_is_light(self, workload):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform, backend=SerialBackend())
        context.cost(_random_mappings(cwg, 16, 1)[0])  # warm the memo
        clone = pickle.loads(pickle.dumps(context))
        # Memo, backend and delta support state are rebuilt, not shipped.
        assert clone.cache_info().currsize == 0
        assert clone.backend is None
        assert clone.supports_delta
        # The clone's table comes from the process-wide cache, not the pickle.
        assert clone.route_table is get_route_table(platform)


class TestSearchDeterminism:
    def test_ga_results_independent_of_n_workers(self, workload, pool):
        cdcg, _, platform = workload
        params = GeneticParameters(population_size=8, generations=3)
        initial = Mapping.random(cdcg.cores(), 16, rng=4)
        serial = GeneticSearch(params).search(
            cdcm_objective(cdcg, platform), initial, rng=21
        )
        pooled = GeneticSearch(params, backend=pool).search(
            cdcm_objective(cdcg, platform), initial, rng=21
        )
        assert pooled.best_cost == serial.best_cost
        assert pooled.best_mapping == serial.best_mapping
        assert pooled.evaluations == serial.evaluations
        assert pooled.history == serial.history

    def test_ga_n_workers_knob_owns_its_pool(self, workload):
        _, cwg, platform = workload
        initial = Mapping.random(cwg.cores, 16, rng=4)
        serial = GeneticSearch(
            GeneticParameters(population_size=6, generations=2)
        ).search(cwm_objective(cwg, platform), initial, rng=3)
        with GeneticSearch(
            GeneticParameters(population_size=6, generations=2),
            n_workers=N_WORKERS,
        ) as engine:
            pooled = engine.search(cwm_objective(cwg, platform), initial, rng=3)
        assert engine.parameters.n_workers == N_WORKERS
        assert pooled.best_cost == serial.best_cost
        assert pooled.best_mapping == serial.best_mapping

    def test_exhaustive_results_independent_of_backend(self, pool):
        spec = TgffSpec(name="tiny", num_cores=4, num_packets=10, total_bits=8_000)
        cdcg = TgffLikeGenerator(3).generate(spec)
        cwg = cdcg_to_cwg(cdcg)
        platform = Platform(mesh=Mesh(2, 3))
        initial = Mapping.random(cwg.cores, 6, rng=1)
        serial = ExhaustiveSearch().search(cwm_objective(cwg, platform), initial)
        pooled = ExhaustiveSearch(batch_size=64, backend=pool).search(
            cwm_objective(cwg, platform), initial
        )
        assert pooled.best_cost == serial.best_cost
        assert pooled.best_mapping == serial.best_mapping
        assert pooled.evaluations == serial.evaluations
        assert pooled.history == serial.history

    def test_multi_restart_sa_independent_of_backend(self, workload, pool):
        _, cwg, platform = workload
        initial = Mapping.random(cwg.cores, 16, rng=8)
        serial = SimulatedAnnealing(FAST_SCHEDULE, restarts=3).search(
            cwm_objective(cwg, platform), initial, rng=17
        )
        pooled = SimulatedAnnealing(FAST_SCHEDULE, restarts=3, backend=pool).search(
            cwm_objective(cwg, platform), initial, rng=17
        )
        assert pooled.best_cost == serial.best_cost
        assert pooled.best_mapping == serial.best_mapping
        assert pooled.evaluations == serial.evaluations
        assert pooled.history == serial.history
        assert pooled.accepted_moves == serial.accepted_moves

    def test_multi_restart_returns_best_of_its_restarts(self, workload):
        from repro.search.annealing import _run_restart
        from repro.utils.rng import ensure_rng, spawn_seeds

        _, cwg, platform = workload
        initial = Mapping.random(cwg.cores, 16, rng=8)
        multi = SimulatedAnnealing(FAST_SCHEDULE, restarts=4).search(
            cwm_objective(cwg, platform), initial, rng=17
        )
        seeds = spawn_seeds(ensure_rng(17), 4)
        singles = [
            _run_restart(FAST_SCHEDULE, True, cwm_objective(cwg, platform), initial, seed, index > 0)
            for index, seed in enumerate(seeds)
        ]
        assert multi.best_cost == min(result.best_cost for result in singles)
        assert multi.evaluations == sum(result.evaluations for result in singles)

    def test_sa_restart_validation(self):
        with pytest.raises(ConfigurationError):
            SimulatedAnnealing(restarts=0)
        with pytest.raises(ConfigurationError):
            GeneticParameters(n_workers=0)
        with pytest.raises(ConfigurationError):
            ExhaustiveSearch(batch_size=0)


class TestRouteTableWarmup:
    def test_serial_and_sharded_tables_identical(self, pool):
        platform = Platform(mesh=Torus(5, 4))
        reference = RouteTable.for_platform(platform, precompute=True)
        sharded = warm_route_table(platform, backend=pool, register=False)
        n = platform.num_tiles
        for source in range(n):
            for target in range(n):
                assert sharded.path(source, target) == reference.path(source, target)
                assert sharded.bit_energy(source, target) == reference.bit_energy(
                    source, target
                )
        assert sharded.is_precomputed

    def test_warmup_registers_shared_table(self, pool):
        platform = Platform(mesh=Mesh(5, 5))
        clear_route_table_cache()
        try:
            table = warm_route_table(platform, backend=pool)
            assert get_route_table(platform) is table
        finally:
            clear_route_table_cache()

    def test_register_rejects_mismatched_table(self):
        table = RouteTable.for_platform(Platform(mesh=Mesh(2, 2)))
        with pytest.raises(ConfigurationError):
            register_route_table(Platform(mesh=Mesh(3, 3)), table)

    def test_from_tables_validates_lengths(self):
        platform = Platform(mesh=Mesh(2, 2))
        with pytest.raises(ConfigurationError):
            RouteTable.from_tables(
                platform.mesh,
                platform.routing,
                platform.technology,
                True,
                [],
                [],
                [],
                [],
            )


class TestComparisonNeverPools:
    def test_comparison_config_paths_stay_serial(self, monkeypatch, example_cdcg, example_platform):
        """The Table 1/2 reproduction pipeline must never engage a pool.

        ``ComparisonConfig`` pins ``use_delta=False`` for bit-stable rows; by
        the same logic its searches must stay single-process.  Poisoning the
        pool backend proves no code path constructs or uses one.
        """

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ComparisonConfig engaged ProcessPoolBackend")

        monkeypatch.setattr(ProcessPoolBackend, "__init__", forbidden)
        monkeypatch.setattr(ProcessPoolBackend, "evaluate", forbidden)
        monkeypatch.setattr(ProcessPoolBackend, "map", forbidden)
        config = ComparisonConfig(method="exhaustive")
        comparison = compare_models(example_cdcg, example_platform, config, seed=3)
        assert comparison.cwm_outcome.cost <= comparison.cdcm_outcome.cost * 10

    def test_framework_contexts_default_to_no_backend(self, example_cdcg, example_platform):
        from repro.core.framework import FRWFramework

        framework = FRWFramework(example_cdcg, example_platform)
        assert framework.evaluation_context("cwm").backend is None
        assert framework.evaluation_context("cdcm").backend is None


class TestBackendProtocol:
    def test_backend_map_default_is_serial(self):
        class Echo(BatchBackend):
            def evaluate(self, context, mappings):  # pragma: no cover - unused
                return []

        assert Echo().map(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_pool_map_matches_serial_map(self, pool):
        args = [(2, 5), (3, 3), (5, 2)]
        assert pool.map(pow, args) == [pow(*a) for a in args]

    def test_context_manager_closes_pool(self, workload):
        _, cwg, platform = workload
        context = CwmEvaluationContext(cwg, platform, cache_size=0)
        mappings = _random_mappings(cwg, 16, 8)
        baseline = {p.pid for p in multiprocessing.active_children()}
        with ProcessPoolBackend(n_workers=2, min_batch_size=2) as backend:
            backend.evaluate(context, mappings)
            assert backend._pool is not None
        assert backend._pool is None
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in baseline
        ]
        assert not leaked, f"closing the backend leaked workers: {leaked}"


class TestDeadWorker:
    """A worker that dies mid-batch costs one retry, not the pool for good."""

    def test_batch_survives_a_dead_worker(self, workload, tmp_path, monkeypatch):
        cdcg, cwg, platform = workload
        marker = tmp_path / "worker-died"
        monkeypatch.setattr(
            "repro.eval.parallel._price_metrics_chunk",
            functools.partial(_price_or_die_once, str(marker)),
        )
        first = _random_mappings(cwg, 16, 8)
        second = _random_mappings(cwg, 16, 8, offset=100)
        context = CdcmEvaluationContext(cdcg, platform, cache_size=0)
        serial = SerialBackend()
        with ProcessPoolBackend(
            n_workers=N_WORKERS, min_batch_size=2, start_method="fork"
        ) as backend:
            got = backend.evaluate_metrics(context, first)
            assert marker.exists(), "no worker was killed"
            assert got == serial.evaluate_metrics(context, first)
            again = backend.evaluate_metrics(context, second)
            assert again == serial.evaluate_metrics(context, second)

    def test_map_survives_a_dead_worker(self, tmp_path):
        marker = str(tmp_path / "worker-died")
        with ProcessPoolBackend(n_workers=N_WORKERS, start_method="fork") as backend:
            squares = backend.map(
                _square_or_die_once, [(marker, value) for value in range(6)]
            )
            assert squares == [value * value for value in range(6)]
            assert backend.map(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_second_break_reraises_and_the_next_batch_prices(self):
        with ProcessPoolBackend(n_workers=N_WORKERS, start_method="fork") as backend:
            with pytest.raises(BrokenProcessPool):
                backend.map(_always_die, [(value,) for value in range(4)])
            assert backend._pool is None
            assert backend.map(pow, [(2, 3), (3, 2)]) == [8, 9]
