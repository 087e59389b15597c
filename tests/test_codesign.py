"""Tests for the routing×mapping co-design subsystem (:mod:`repro.codesign`).

Covers the acceptance properties of the co-design PR:

* **reachability by construction** (hypothesis) — every synthesized or
  mutated next-hop table routes every tile pair, minimally;
* **genuine witnesses** (hypothesis) — a rejected table always carries a
  closed cycle of real channel-dependency-graph edges;
* **certify before price** — the deadlock gate sits structurally in front
  of every pricing context :class:`~repro.codesign.engine.CodesignSearch`
  ever creates (recorded-gate and explode-monkeypatch regressions);
* **determinism** — seeded co-design runs are bit-identical, including
  serial vs :class:`~repro.eval.parallel.ProcessPoolBackend` (extending the
  PR 4 determinism matrix);
* **append-only metrics** (satellite) — ``max_link_utilisation`` joined
  :data:`~repro.core.metrics.CDCM_METRIC_NAMES` as a fifth component and
  the congestion components of :class:`~repro.codesign.load.LoadAwareCwmContext`
  ride at the end of the CWM vector, with every legacy weight view pinned
  bit-identical to its four-component (resp. one-component) truncation.
"""

from __future__ import annotations

import os
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.codesign.synthesis as synthesis_module
import repro.eval.vector as vector_module
from repro.codesign import (
    CertificationResult,
    CodesignParameters,
    CodesignResult,
    CodesignSearch,
    LOAD_METRIC_NAMES,
    LoadAwareCwmContext,
    SynthesizedRouting,
    TableSynthesizer,
    link_load_spread,
    link_loads,
    max_link_load,
    register_synthesized,
)
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.core.metrics import CDCM_METRIC_NAMES, MetricVector, scalarisation_weights
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend, SerialBackend
from repro.eval.route_table import RouteTable
from repro.graphs.convert import cdcg_to_cwg
from repro.graphs.cwg import cwg_from_edges
from repro.noc.deadlock import channel_dependency_graph, validate_deadlock_free
from repro.noc.platform import Platform
from repro.noc.routing import TableRouting, XYRouting, get_routing
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.utils.errors import ConfigurationError
from repro.workloads.embedded import image_encoder

N_WORKERS = int(os.environ.get("REPRO_TEST_N_WORKERS", "2"))

SEED = 20050307

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

mesh_strategy = st.builds(
    Mesh,
    width=st.integers(min_value=2, max_value=4),
    height=st.integers(min_value=2, max_value=4),
)


@pytest.fixture(scope="module")
def mesh_3x3():
    return Mesh(3, 3)


@pytest.fixture(scope="module")
def synthesizer(mesh_3x3):
    return TableSynthesizer(mesh_3x3)


@pytest.fixture(scope="module")
def encoder_workload():
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(3, 3))
    return cdcg, platform


# ---------------------------------------------------------------------------
# SynthesizedRouting
# ---------------------------------------------------------------------------


class TestSynthesizedRouting:
    def test_materialised_xy_reproduces_xy_routes(self, mesh_3x3, synthesizer):
        table = synthesizer.materialise(XYRouting())
        routing = SynthesizedRouting(table)
        xy = XYRouting()
        for source in mesh_3x3.tiles():
            for target in mesh_3x3.tiles():
                assert routing.route(mesh_3x3, source, target) == xy.route(
                    mesh_3x3, source, target
                )

    def test_self_route_is_single_tile(self, mesh_3x3, synthesizer):
        routing = SynthesizedRouting(synthesizer.materialise(XYRouting()))
        assert routing.route(mesh_3x3, 4, 4) == [4]

    def test_endpoint_validation(self, mesh_3x3, synthesizer):
        routing = SynthesizedRouting(synthesizer.materialise(XYRouting()))
        with pytest.raises(ConfigurationError):
            routing.route(mesh_3x3, 0, 99)
        with pytest.raises(ConfigurationError):
            routing.route(Mesh(2, 2), 0, 1)  # table covers 9 tiles, mesh 4

    def test_malformed_tables_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthesizedRouting(())
        with pytest.raises(ConfigurationError):
            SynthesizedRouting(((0, 1), (0,)))  # ragged row
        with pytest.raises(ConfigurationError):
            SynthesizedRouting(((-1, 0), (9, -1)))  # hop outside table

    def test_missing_route_raises(self, mesh_3x3):
        table = [[-1] * 9 for _ in range(9)]
        routing = SynthesizedRouting(table)
        with pytest.raises(ConfigurationError, match="no route"):
            routing.route(mesh_3x3, 0, 8)

    def test_routing_loop_detected(self, mesh_3x3):
        table = [[-1] * 9 for _ in range(9)]
        table[8][0], table[8][1] = 1, 0  # 0 <-> 1 ping-pong towards 8
        routing = SynthesizedRouting(table)
        with pytest.raises(ConfigurationError, match="loop"):
            routing.route(mesh_3x3, 0, 8)

    def test_cache_token_is_content_addressed(self, synthesizer):
        table = synthesizer.materialise(XYRouting())
        a, b = SynthesizedRouting(table), SynthesizedRouting(table)
        assert a == b and a.cache_token == b.cache_token
        other = SynthesizedRouting(synthesizer.materialise(get_routing("yx")))
        assert a != other and a.cache_token != other.cache_token

    def test_pickle_round_trip(self, synthesizer):
        routing = SynthesizedRouting(synthesizer.materialise(XYRouting()))
        clone = pickle.loads(pickle.dumps(routing))
        assert clone == routing
        assert clone.cache_token == routing.cache_token

    def test_register_synthesized_is_addressable(self, synthesizer):
        routing = SynthesizedRouting(synthesizer.materialise(XYRouting()))
        register_synthesized("codesign-test-table", routing, overwrite=True)
        assert get_routing("codesign-test-table") is routing
        platform = Platform(mesh=Mesh(3, 3), routing="codesign-test-table")
        assert platform.routing is routing


# ---------------------------------------------------------------------------
# Synthesis properties (hypothesis)
# ---------------------------------------------------------------------------


class TestSynthesisProperties:
    @SETTINGS
    @given(mesh=mesh_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_random_tables_route_all_pairs_minimally(self, mesh, seed):
        synthesizer = TableSynthesizer(mesh)
        routing = SynthesizedRouting(synthesizer.random_table(rng=seed))
        xy = XYRouting()
        for source in mesh.tiles():
            for target in mesh.tiles():
                path = routing.route(mesh, source, target)
                assert path[0] == source and path[-1] == target
                # Minimal by construction: same hop count as XY.
                assert len(path) == len(xy.route(mesh, source, target))

    @SETTINGS
    @given(mesh=mesh_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_mutated_tables_stay_reachable(self, mesh, seed):
        synthesizer = TableSynthesizer(mesh)
        table = synthesizer.random_table(rng=seed)
        mutated = synthesizer.mutate(table, rng=seed + 1, mutations=4)
        routing = SynthesizedRouting(mutated)
        for source in mesh.tiles():
            for target in mesh.tiles():
                path = routing.route(mesh, source, target)
                assert path[0] == source and path[-1] == target

    @SETTINGS
    @given(mesh=mesh_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_repair_policy_always_certifies(self, mesh, seed):
        synthesizer = TableSynthesizer(mesh)
        result = synthesizer.certify(
            synthesizer.random_table(rng=seed), policy="repair"
        )
        assert result.certified
        assert result.routing is not None
        report = validate_deadlock_free(mesh, result.routing, raise_on_cycle=False)
        assert report.deadlock_free

    @SETTINGS
    @given(mesh=mesh_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_rejections_carry_genuine_witness_cycles(self, mesh, seed):
        synthesizer = TableSynthesizer(mesh)
        table = synthesizer.random_table(rng=seed)
        result = synthesizer.certify(table, policy="reject")
        if result.certified:
            assert result.witness == ()
            return
        witness = result.witness
        assert len(witness) >= 2
        graph = channel_dependency_graph(mesh, SynthesizedRouting(table))
        for position, channel in enumerate(witness):
            successor = witness[(position + 1) % len(witness)]
            assert successor in graph[channel], (
                f"witness edge {channel} -> {successor} is not a CDG edge"
            )


# ---------------------------------------------------------------------------
# Certification gate
# ---------------------------------------------------------------------------


class TestCertification:
    def test_all_seed_tables_certify(self, mesh_3x3, synthesizer):
        seeds = synthesizer.seed_tables()
        assert set(seeds) == {"xy", "yx", "west-first", "negative-first", "table"}
        for table in seeds.values():
            result = synthesizer.certify(table, policy="reject")
            assert result.certified and not result.repaired

    def test_repair_reports_witness_and_flag(self, synthesizer):
        # Scan fixed seeds for a cyclic random table; plenty exist on 3x3.
        for seed in range(64):
            table = synthesizer.random_table(rng=seed)
            rejected = synthesizer.certify(table, policy="reject")
            if rejected.certified:
                continue
            repaired = synthesizer.certify(table, policy="repair")
            assert repaired.certified and repaired.repaired
            assert repaired.witness == rejected.witness
            assert repaired.routing.next_hops != tuple(table) or True
            return
        pytest.fail("no cyclic random table found in 64 seeds")

    def test_unknown_policy_rejected(self, synthesizer):
        with pytest.raises(ConfigurationError):
            synthesizer.certify(synthesizer.random_table(rng=0), policy="ignore")

    def test_chain_topology_has_no_mutable_entries(self):
        synthesizer = TableSynthesizer(Mesh(4, 1))
        table = synthesizer.random_table(rng=0)
        assert synthesizer.mutate(table, rng=1) == table

    def test_unroutable_fabric_needs_no_gate(self):
        # A 1x1 mesh routes nothing; the BFS seed still certifies.
        synthesizer = TableSynthesizer(Mesh(1, 1))
        result = synthesizer.certify(synthesizer.random_table(rng=0))
        assert result.certified


# ---------------------------------------------------------------------------
# Load-aware CWM context (congestion components, satellite)
# ---------------------------------------------------------------------------


_LOAD_FABRICS = {
    "mesh": Platform(mesh=Mesh(4, 3)),
    "torus": Platform(mesh=Torus(3, 3)),
    "irregular": Platform(
        mesh=IrregularTopology(
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6),
             (6, 7), (7, 5), (7, 8)],
            name="load-fabric9",
        ),
        routing=TableRouting(),
    ),
}


def _load_cwg(seed: int, fractional: bool):
    """A random 8-core CWG; one core is isolated, volumes optionally fractional."""
    rng = np.random.default_rng(seed)
    cores = [f"c{index}" for index in range(8)]
    edges = []
    for source in cores[:-1]:
        for target in cores[:-1]:
            if source != target and rng.random() < 0.5:
                volume = int(rng.integers(1, 5000))
                edges.append((source, target, volume + 0.1 if fractional else volume))
    return cwg_from_edges("load", edges, cores=cores)


def _load_population(cwg, platform, seed: int, size: int):
    rng = np.random.default_rng(seed)
    return [Mapping.random(cwg.cores, platform.num_tiles, rng=rng) for _ in range(size)]


class TestLoadAwareCwmContext:
    @pytest.fixture(scope="class")
    def load_setup(self, encoder_workload):
        cdcg, platform = encoder_workload
        cwg = cdcg_to_cwg(cdcg)
        context = LoadAwareCwmContext(cwg, platform)
        mappings = [
            Mapping.random(cwg.cores, platform.num_tiles, rng=index)
            for index in range(6)
        ]
        return cwg, platform, context, mappings

    def test_component_names_append_only(self):
        assert LOAD_METRIC_NAMES[0] == "dynamic_energy"
        assert LOAD_METRIC_NAMES[-2:] == ("max_link_load", "link_load_spread")

    def test_components_match_standalone_helpers(self, load_setup):
        cwg, platform, context, mappings = load_setup
        num_links = len(platform.mesh.links())
        for mapping in mappings:
            vector = context.metrics(mapping)
            loads = link_loads(cwg, mapping, context.route_table)
            assert vector["max_link_load"] == max_link_load(loads)
            assert vector["link_load_spread"] == link_load_spread(loads, num_links)

    def test_legacy_energy_and_cost_bit_identical(self, load_setup):
        cwg, platform, context, mappings = load_setup
        plain = CwmEvaluationContext(cwg, platform)
        for mapping in mappings:
            vector = context.metrics(mapping)
            assert vector["dynamic_energy"] == plain.metrics(mapping)["dynamic_energy"]
            assert context.cost(mapping) == plain.cost(mapping)
            # The legacy weight view skips the zero-weight congestion
            # components entirely: bit-identical to the truncated vector.
            truncated = MetricVector(
                ("dynamic_energy",), (vector["dynamic_energy"],)
            )
            weights = {"dynamic_energy": 1.0}
            assert vector.weighted_sum(weights, strict=False) == truncated.weighted_sum(
                weights, strict=False
            )

    def test_chunk_path_matches_scalar_path(self, load_setup):
        cwg, platform, context, mappings = load_setup
        batch = context.evaluate_metrics_batch(mappings)
        for mapping, vector in zip(mappings, batch):
            assert vector.values == context._compute_metrics(mapping).values

    def test_pickle_and_pool_bit_identical(self, load_setup):
        cwg, platform, context, mappings = load_setup
        clone = pickle.loads(pickle.dumps(context))
        serial = context.evaluate_metrics_batch(mappings)
        assert [v.values for v in clone.evaluate_metrics_batch(mappings)] == [
            v.values for v in serial
        ]
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            pooled = context.evaluate_metrics_batch(mappings, backend=pool)
        assert [v.values for v in pooled] == [v.values for v in serial]

    @pytest.mark.parametrize("fabric", ["mesh", "torus", "irregular"])
    @pytest.mark.parametrize("precompute", [True, False], ids=["eager", "lazy"])
    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "float"])
    def test_load_gather_matches_scalar_loop(self, fabric, precompute, fractional):
        platform = _LOAD_FABRICS[fabric]
        cwg = _load_cwg(seed=len(fabric), fractional=fractional)
        table = RouteTable.for_platform(platform, precompute=precompute)
        context = LoadAwareCwmContext(cwg, platform, route_table=table)
        mappings = _load_population(cwg, platform, seed=5, size=24)
        scalar = [context._compute_metrics(mapping).values for mapping in mappings]
        chunk = context._compute_metrics_chunk(mappings)
        assert [vector.values for vector in chunk] == scalar
        clone = pickle.loads(pickle.dumps(context))
        assert [v.values for v in clone._compute_metrics_chunk(mappings)] == scalar

    def test_load_gather_pooled_on_custom_lazy_table(self):
        # A custom table travels with the pickle; each worker builds its own
        # link CSR from it.
        platform = _LOAD_FABRICS["irregular"]
        cwg = _load_cwg(seed=7, fractional=True)
        table = RouteTable.for_platform(platform, precompute=False)
        context = LoadAwareCwmContext(cwg, platform, route_table=table)
        mappings = _load_population(cwg, platform, seed=11, size=12)
        scalar = [context._compute_metrics(mapping).values for mapping in mappings]
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            pooled = context.evaluate_metrics_batch(mappings, backend=pool)
        assert [vector.values for vector in pooled] == scalar

    def test_lazy_gather_routes_each_used_pair_once(self, monkeypatch):
        platform = _LOAD_FABRICS["mesh"]
        cwg = _load_cwg(seed=2, fractional=False)
        table = RouteTable.for_platform(platform, precompute=False)
        context = LoadAwareCwmContext(cwg, platform, route_table=table)
        context.vector_kernel()  # densifies the energy halves, memoises no route
        mappings = _load_population(cwg, platform, seed=4, size=16)
        routing = table.routing
        routed = []

        class CountingRouting:
            name = routing.name

            def route(self, topology, source, target):
                routed.append((source, target))
                return routing.route(topology, source, target)

        monkeypatch.setattr(table, "routing", CountingRouting())
        chunk = context._compute_metrics_chunk(mappings)
        used = {
            (tiles[source], tiles[target])
            for tiles in (mapping.assignments() for mapping in mappings)
            for source, target, _ in context._edges
        }
        assert sorted(routed) == sorted(used)
        context._compute_metrics_chunk(mappings)
        assert len(routed) == len(used)
        assert [vector.values for vector in chunk] == [
            context._compute_metrics(mapping).values for mapping in mappings
        ]
        assert table.num_links == len(platform.mesh.links())
        with pytest.raises(ConfigurationError, match="lazy"):
            table.link_csr()

    @pytest.mark.parametrize("precompute", [True, False], ids=["eager", "lazy"])
    def test_load_gather_across_row_blocks(self, monkeypatch, precompute):
        platform = _LOAD_FABRICS["torus"]
        cwg = _load_cwg(seed=3, fractional=True)
        table = RouteTable.for_platform(platform, precompute=precompute)
        context = LoadAwareCwmContext(cwg, platform, route_table=table)
        mappings = _load_population(cwg, platform, seed=9, size=30)
        scalar = [context._compute_metrics(mapping).values for mapping in mappings]
        # A few gathered elements per block: the chunk spans many row blocks.
        monkeypatch.setattr(vector_module, "_MAX_GATHER_ELEMENTS", 64)
        chunk = context._compute_metrics_chunk(mappings)
        assert [vector.values for vector in chunk] == scalar

    def test_empty_chunk(self, load_setup):
        cwg, platform, context, mappings = load_setup
        assert context._compute_metrics_chunk([]) == []
        kernel = context.vector_kernel()
        peaks, totals = kernel.link_load_stats(np.zeros((0, len(kernel.core_order))))
        assert peaks.shape == totals.shape == (0,)

    def test_duplicates_price_once(self, load_setup):
        cwg, platform, _, mappings = load_setup
        context = LoadAwareCwmContext(cwg, platform)
        batch = mappings + mappings[:3] + mappings[::-1]
        vectors = context.evaluate_metrics_batch(batch)
        assert [v.values for v in vectors] == [
            context._compute_metrics(mapping).values for mapping in batch
        ]
        info = context.cache_info()
        assert (info.hits, info.misses) == (0, len(mappings))
        context.evaluate_metrics_batch(batch)
        assert context.cache_info().hits == len(batch)

    def test_metric_delta_disabled(self, load_setup):
        cwg, platform, context, mappings = load_setup
        assert context.supports_metric_delta is False
        with pytest.raises(NotImplementedError):
            context.metric_delta(mappings[0], 0, 1)
        # The scalar delta stays exact: the cost view is energy-only.
        mapping = mappings[0]
        swapped = mapping.swap_tiles(0, 1)
        assert context.delta(mapping, 0, 1) == pytest.approx(
            context.cost(swapped) - context.cost(mapping)
        )


# ---------------------------------------------------------------------------
# Co-design engine
# ---------------------------------------------------------------------------

CODESIGN_PARAMS = CodesignParameters(population_size=8, generations=3)


def _codesign_search(encoder_workload, backend=None, rng=SEED, **kwargs):
    cdcg, platform = encoder_workload
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
    engine = CodesignSearch(
        cdcg, platform, CODESIGN_PARAMS, backend=backend, **kwargs
    )
    return engine.search(initial=initial, rng=rng)


class TestCodesignEngine:
    def test_result_invariants(self, encoder_workload):
        result = _codesign_search(encoder_workload)
        assert isinstance(result, CodesignResult)
        assert result.front and len(result.front) == len(result.front_routings)
        assert result.best_routing is not None
        expected = CODESIGN_PARAMS.population_size * (
            CODESIGN_PARAMS.generations + 1
        )
        assert result.evaluations == expected
        assert result.tables_certified >= 1
        for point in result.front:
            for key in ("energy", "time", "max_link_utilisation"):
                assert key in point.metrics

    def test_front_routings_are_deadlock_free(self, encoder_workload):
        cdcg, platform = encoder_workload
        result = _codesign_search(encoder_workload)
        for routing in result.front_routings + [result.best_routing]:
            report = validate_deadlock_free(
                platform.mesh, routing, raise_on_cycle=False
            )
            assert report.deadlock_free

    def test_front_points_reprice_identically(self, encoder_workload):
        cdcg, platform = encoder_workload
        result = _codesign_search(encoder_workload)
        for point, routing in zip(result.front, result.front_routings):
            context = CdcmEvaluationContext(
                cdcg, platform.with_routing(routing)
            )
            assert context.metrics(point.mapping) == point.metrics

    def test_seeded_runs_identical(self, encoder_workload):
        first = _codesign_search(encoder_workload, rng=SEED)
        second = _codesign_search(encoder_workload, rng=SEED)
        assert first.best_cost == second.best_cost
        assert first.best_mapping == second.best_mapping
        assert first.best_routing == second.best_routing
        assert first.history == second.history
        assert [p.metrics for p in first.front] == [p.metrics for p in second.front]
        assert [r.digest for r in first.front_routings] == [
            r.digest for r in second.front_routings
        ]

    def test_serial_and_pooled_runs_bit_identical(self, encoder_workload):
        serial = _codesign_search(encoder_workload, backend=SerialBackend())
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            pooled = _codesign_search(encoder_workload, backend=pool)
        assert serial.best_cost == pooled.best_cost
        assert serial.best_mapping == pooled.best_mapping
        assert serial.best_routing == pooled.best_routing
        assert serial.history == pooled.history
        assert serial.evaluations == pooled.evaluations
        assert [p.metrics for p in serial.front] == [p.metrics for p in pooled.front]
        assert [r.digest for r in serial.front_routings] == [
            r.digest for r in pooled.front_routings
        ]

    def test_reject_policy_falls_back_to_parent_tables(self, encoder_workload):
        cdcg, platform = encoder_workload
        result = _codesign_search(
            encoder_workload, certification_policy="reject"
        )
        assert result.tables_repaired == 0
        for routing in result.front_routings:
            assert validate_deadlock_free(
                platform.mesh, routing, raise_on_cycle=False
            ).deadlock_free
        if result.tables_rejected:
            assert len(result.last_witness) >= 2

    def test_engine_is_reusable_across_runs(self, encoder_workload):
        # No run leaves state on the engine: a run with a per-run factory in
        # between does not change the configured factory or the next run.
        cdcg, platform = encoder_workload
        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
        engine = CodesignSearch(cdcg, platform, CODESIGN_PARAMS)
        factory = engine.context_factory
        first = engine.search(initial=initial, rng=SEED)
        cwg = cdcg_to_cwg(cdcg)
        engine.search(
            objective=lambda routed: LoadAwareCwmContext(cwg, routed),
            initial=initial,
            rng=SEED,
        )
        again = engine.search(initial=initial, rng=SEED)
        assert engine.context_factory is factory
        assert again.history == first.history
        assert [p.metrics for p in again.front] == [p.metrics for p in first.front]
        assert [r.digest for r in again.front_routings] == [
            r.digest for r in first.front_routings
        ]

    def test_invalid_construction(self, encoder_workload):
        cdcg, platform = encoder_workload
        with pytest.raises(ConfigurationError):
            CodesignSearch(None, platform)  # no CDCG, no factory
        with pytest.raises(ConfigurationError):
            CodesignSearch(cdcg, platform, keys=())
        with pytest.raises(ConfigurationError):
            CodesignSearch(cdcg, platform).search(initial=None)
        with pytest.raises(ConfigurationError):
            CodesignSearch(cdcg, platform).search(
                objective="not-a-factory",
                initial=Mapping.random(cdcg.cores(), platform.num_tiles, rng=0),
            )


class TestCertifyBeforePrice:
    def test_every_priced_table_passed_the_gate(
        self, encoder_workload, monkeypatch
    ):
        cdcg, platform = encoder_workload
        validated: set = set()
        real_validate = synthesis_module.validate_deadlock_free

        def recording_validate(topology, routing, raise_on_cycle=True):
            report = real_validate(topology, routing, raise_on_cycle)
            if report.deadlock_free:
                validated.add(routing.digest)
            return report

        monkeypatch.setattr(
            synthesis_module, "validate_deadlock_free", recording_validate
        )

        priced: set = set()

        def recording_factory(routed_platform):
            priced.add(routed_platform.routing.digest)
            return CdcmEvaluationContext(cdcg, routed_platform)

        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
        engine = CodesignSearch(
            cdcg, platform, CODESIGN_PARAMS, context_factory=recording_factory
        )
        result = engine.search(initial=initial, rng=SEED)
        assert priced, "no pricing contexts were ever created"
        assert priced <= validated, (
            "CodesignSearch priced a table that never passed "
            "validate_deadlock_free"
        )
        assert result.best_routing.digest in validated

    def test_exploding_gate_blocks_all_pricing(
        self, encoder_workload, monkeypatch
    ):
        cdcg, platform = encoder_workload
        synthesizer = TableSynthesizer(platform.mesh)  # seeds gate pre-patch

        def exploding_validate(*args, **kwargs):
            raise RuntimeError("deadlock gate bypassed")

        monkeypatch.setattr(
            synthesis_module, "validate_deadlock_free", exploding_validate
        )
        factory_calls = []

        def counting_factory(routed_platform):
            factory_calls.append(routed_platform.routing.digest)
            return CdcmEvaluationContext(cdcg, routed_platform)

        engine = CodesignSearch(
            cdcg,
            platform,
            CODESIGN_PARAMS,
            synthesizer=synthesizer,
            context_factory=counting_factory,
        )
        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=7)
        with pytest.raises(RuntimeError, match="deadlock gate bypassed"):
            engine.search(initial=initial, rng=SEED)
        assert factory_calls == [], (
            "pricing contexts were created although certification exploded"
        )


# ---------------------------------------------------------------------------
# CDCM metric extension (satellite regression)
# ---------------------------------------------------------------------------


class TestCdcmMetricExtension:
    def test_component_tuple_is_append_only(self):
        assert CDCM_METRIC_NAMES == (
            "energy",
            "time",
            "dynamic_energy",
            "static_energy",
            "max_link_utilisation",
        )

    def test_metric_vector_reports_schedule_utilisation(
        self, example_cdcg, example_platform
    ):
        evaluator = CdcmEvaluator(example_platform)
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=1)
        report = evaluator.evaluate(example_cdcg, mapping)
        vector = report.metric_vector()
        assert vector.names == CDCM_METRIC_NAMES
        assert vector["max_link_utilisation"] == report.schedule.max_link_utilisation()
        assert 0.0 <= vector["max_link_utilisation"] <= 1.0

    def test_legacy_weight_views_bit_identical(
        self, example_cdcg, example_platform
    ):
        context = CdcmEvaluationContext(example_cdcg, example_platform)
        mapping = Mapping.random(example_cdcg.cores(), 4, rng=1)
        vector = context.metrics(mapping)
        truncated = MetricVector(CDCM_METRIC_NAMES[:4], vector.values[:4])
        for metric, energy_weight, time_weight in (
            ("energy", 1.0, 0.0),
            ("time", 0.0, 1.0),
            ("weighted", 0.5, 0.5),
        ):
            weights = scalarisation_weights(metric, energy_weight, time_weight)
            assert "max_link_utilisation" not in weights
            assert vector.weighted_sum(weights, strict=False) == truncated.weighted_sum(
                weights, strict=False
            )
        # The default scalar cost is untouched by the new component.
        assert context.cost(mapping) == vector["energy"]

    def test_reproduction_row_costs_unchanged(self, example_cdcg, example_platform):
        # The paper-example optimum is found against the same scalar costs as
        # before the extension: exhaustively verify scalar pricing equals the
        # energy component for every permutation of the 4-tile example.
        from itertools import permutations

        context = CdcmEvaluationContext(example_cdcg, example_platform)
        cores = example_cdcg.cores()
        for perm in permutations(range(4)):
            mapping = Mapping(dict(zip(cores, perm)), num_tiles=4)
            vector = context.metrics(mapping)
            assert len(vector) == 5
            assert context.cost(mapping) == vector["energy"]
