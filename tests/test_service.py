"""The mapping service (repro.service): the result store and its backend.

Five contracts are pinned here:

* **Content identity** — ``content_hash()`` digests depend on graph content
  only (edge order, insertion order and display names are invisible; any
  edit to bits/edges/cores is not).
* **Bit-identity** — service-priced vectors and costs equal
  :class:`~repro.eval.parallel.SerialBackend` results exactly, on mesh,
  torus and irregular fabrics, for both models, whatever mix of store hits
  and misses produced them.
* **Durability** — corrupted, truncated or version-mismatched store files
  are warnings and cache misses, never exceptions; a failed write is a
  warning that leaves no temp file; concurrent writers never torn-write;
  byte budgets evict rather than grow, also under concurrent evictors.
* **Lifecycle** — a pool backend used as a context manager leaves no
  worker processes behind.
* **Isolation** — the paper-reproduction pipeline
  (:class:`~repro.analysis.comparison.ComparisonConfig`) never touches the
  service unless a backend is passed explicitly, and passing one changes no
  published number.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import threading
import warnings

import pytest

from repro.analysis.comparison import ComparisonConfig, compare_models
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import CdcmEvaluationContext, CwmEvaluationContext
from repro.eval.parallel import ProcessPoolBackend, SerialBackend
from repro.graphs.cdcg import CDCG
from repro.graphs.convert import cdcg_to_cwg
from repro.graphs.cwg import CWG, cwg_from_edges
from repro.noc.platform import Platform
from repro.noc.topology import IrregularTopology, Mesh, Torus
from repro.service import (
    STORE_VERSION,
    ResultStore,
    ServiceBackend,
    StoreCorruptionWarning,
    StoreWriteWarning,
    mapping_digest,
    platform_digest,
    scope_for_context,
    workload_digest,
)
from repro.utils.errors import ConfigurationError
from repro.utils.hashing import canonical_token, stable_digest
from repro.workloads.suite import suite_entry_by_name
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

EDGES = [("a", "b", 100), ("b", "c", 250), ("c", "a", 75), ("a", "d", 40)]


@pytest.fixture(scope="module")
def workload():
    """A 9-core generated application on a 3x3 mesh."""
    spec = TgffSpec(name="svc", num_cores=9, num_packets=30, total_bits=40_000)
    cdcg = TgffLikeGenerator(23).generate(spec)
    return cdcg, cdcg_to_cwg(cdcg), Platform(mesh=Mesh(3, 3))


def _random_mappings(cores, num_tiles, count, offset=0):
    return [
        Mapping.random(cores, num_tiles, rng=offset + seed)
        for seed in range(count)
    ]


# ---------------------------------------------------------------------------
# Satellite (a): stable content hashes
# ---------------------------------------------------------------------------
class TestContentHash:
    def test_cwg_edge_order_independent(self):
        forward = cwg_from_edges("fwd", EDGES)
        backward = cwg_from_edges("bwd", list(reversed(EDGES)))
        assert forward.content_hash() == backward.content_hash()

    def test_cwg_name_independent(self):
        assert (
            cwg_from_edges("x", EDGES).content_hash()
            == cwg_from_edges("y", EDGES).content_hash()
        )

    def test_cwg_changed_bits_differ(self):
        changed = [("a", "b", 101)] + EDGES[1:]
        assert (
            cwg_from_edges("x", EDGES).content_hash()
            != cwg_from_edges("x", changed).content_hash()
        )

    def test_cwg_extra_core_differs(self):
        base = cwg_from_edges("x", EDGES)
        extra = cwg_from_edges("x", EDGES, cores=["isolated"])
        assert base.content_hash() != extra.content_hash()

    def test_cdcg_insertion_order_independent(self):
        def build(order):
            cdcg = CDCG("perm")
            packets = [
                ("p1", "a", "b", 1.0, 64),
                ("p2", "b", "c", 2.0, 128),
                ("p3", "c", "a", 0.5, 32),
            ]
            for name, src, dst, comp, bits in order(packets):
                cdcg.add_packet(name, src, dst, computation_time=comp, bits=bits)
            cdcg.add_dependence("p1", "p2")
            cdcg.add_dependence("p2", "p3")
            return cdcg

        assert build(list).content_hash() == build(
            lambda p: list(reversed(p))
        ).content_hash()

    def test_cdcg_changed_bits_differ(self, workload):
        cdcg, _, _ = workload
        clone = cdcg.copy()
        packet = clone.packets[0]
        clone2 = CDCG(clone.name)
        for p in clone.packets:
            bits = p.bits + 1 if p.name == packet.name else p.bits
            clone2.add_packet(
                p.name, p.source, p.target,
                computation_time=p.computation_time, bits=bits,
            )
        for before, after in clone.dependences():
            clone2.add_dependence(before, after)
        assert clone.content_hash() == cdcg.content_hash()
        assert clone2.content_hash() != cdcg.content_hash()

    def test_suite_entry_hash_deterministic_and_distinct(self):
        a1 = suite_entry_by_name("3x3-a")
        a2 = suite_entry_by_name("3x3-a")
        b = suite_entry_by_name("3x3-b")
        assert a1.content_hash() == a2.content_hash()
        assert a1.content_hash() != b.content_hash()

    def test_canonical_token_rejects_unhashable_types(self):
        with pytest.raises(ConfigurationError):
            canonical_token(object())

    def test_stable_digest_distinguishes_types(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest((1, 2)) != stable_digest([1, [2]])


# ---------------------------------------------------------------------------
# Store keys
# ---------------------------------------------------------------------------
class TestStoreKeys:
    def test_mapping_digest_stable_across_construction(self):
        a = Mapping({"x": 0, "y": 5, "z": 2}, num_tiles=9)
        b = Mapping([("z", 2), ("x", 0), ("y", 5)], num_tiles=9)
        assert mapping_digest(a) == mapping_digest(b)
        assert mapping_digest(a) == mapping_digest({"x": 0, "y": 5, "z": 2})

    def test_mapping_digest_differs_on_any_move(self):
        base = Mapping({"x": 0, "y": 5}, num_tiles=9)
        assert mapping_digest(base) != mapping_digest(base.swap_tiles(0, 1))

    def test_workload_digest_requires_content_hash(self):
        with pytest.raises(ConfigurationError):
            workload_digest(object())

    def test_platform_digest_covers_noc_parameters(self):
        from repro.noc.platform import NocParameters

        base = Platform(mesh=Mesh(3, 3))
        slower = Platform(
            mesh=Mesh(3, 3),
            parameters=NocParameters(link_cycles=9),
        )
        # The shared route-table key ignores NocParameters; the store key
        # must not, because CDCM prices depend on them.
        assert platform_digest(base) != platform_digest(slower)
        assert platform_digest(base) != platform_digest(base, include_local=False)

    def test_scope_separates_models_and_workloads(self, workload):
        cdcg, cwg, platform = workload
        cwm = CwmEvaluationContext(cwg, platform)
        cdcm = CdcmEvaluationContext(cdcg, platform)
        assert scope_for_context(cwm) != scope_for_context(cdcm)
        other = cwg_from_edges("other", EDGES)
        assert scope_for_context(
            CwmEvaluationContext(other, platform)
        ) != scope_for_context(cwm)

    def test_scope_rejects_unknown_contexts(self):
        with pytest.raises(ConfigurationError):
            scope_for_context(object())


# ---------------------------------------------------------------------------
# Tentpole: the persistent result store
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        vector = MetricVector(("energy", "time"), (1.25e-7, 431.0))
        store = ResultStore(tmp_path / "store")
        store.put("scope", "digest", vector)
        assert store.get("scope", "digest") == vector
        # A brand-new store over the same root answers from disk.
        fresh = ResultStore(tmp_path / "store")
        assert fresh.get("scope", "digest") == vector
        assert fresh.stats.disk_hits == 1

    def test_float_values_roundtrip_bit_exactly(self, tmp_path):
        values = (0.1 + 0.2, 1e-300, 2.0 ** -1074, -0.0, 1.7976931348623157e308)
        vector = MetricVector(("a", "b", "c", "d", "e"), values)
        store = ResultStore(tmp_path)
        store.put("s", "d", vector)
        store.clear_memory()
        loaded = store.get("s", "d")
        assert loaded is not None
        assert all(x == y for x, y in zip(loaded.values, values))

    def test_memory_front_and_counters(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=2)
        for i in range(3):
            store.put("s", f"d{i}", MetricVector(("m",), (float(i),)))
        # d0 was evicted from the LRU front but survives on disk.
        assert store.get("s", "d0").values == (0.0,)
        stats = store.stats
        assert stats.disk_hits == 1 and stats.writes == 3
        assert store.get("s", "d0").values == (0.0,)
        assert store.stats.memory_hits == 1

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("s", "missing") is None
        assert store.stats.misses == 1 and store.stats.hit_rate == 0.0

    def test_validates_configuration(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path, byte_budget=0)
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path, memory_entries=-1)


class TestStoreDurability:
    def _entry_path(self, store, scope, digest):
        return store.root / scope / f"{digest}.json"

    def test_corrupt_garbage_is_a_warning_and_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("s", "d", MetricVector(("m",), (1.0,)))
        store.clear_memory()
        self._entry_path(store, "s", "d").write_bytes(b"\x00\xff not json")
        with pytest.warns(StoreCorruptionWarning):
            assert store.get("s", "d") is None
        assert store.stats.corrupt_skipped == 1
        # A rewrite heals the entry.
        store.put("s", "d", MetricVector(("m",), (2.0,)))
        store.clear_memory()
        assert store.get("s", "d").values == (2.0,)

    def test_truncated_json_is_a_warning_and_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("s", "d", MetricVector(("m",), (1.0,)))
        store.clear_memory()
        path = self._entry_path(store, "s", "d")
        path.write_text(path.read_text()[:10])
        with pytest.warns(StoreCorruptionWarning):
            assert store.get("s", "d") is None

    def test_version_mismatch_is_a_warning_and_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("s", "d", MetricVector(("m",), (1.0,)))
        store.clear_memory()
        path = self._entry_path(store, "s", "d")
        payload = json.loads(path.read_text())
        payload["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.warns(StoreCorruptionWarning):
            assert store.get("s", "d") is None

    def test_malformed_payload_is_a_warning_and_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._entry_path(store, "s", "d")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": STORE_VERSION, "names": "no"}))
        with pytest.warns(StoreCorruptionWarning):
            assert store.get("s", "d") is None

    def test_concurrent_writers_never_tear(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=0)
        vector = MetricVector(("m", "n"), (3.14159, 2.71828))
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    store.put_many(
                        "s", [(f"d{i}", vector) for i in range(8)]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any corruption warning fails
            for i in range(8):
                assert store.get("s", f"d{i}") == vector

    def test_byte_budget_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path, memory_entries=0)
        vector = MetricVector(("m",), (1.0,))
        store.put("s", "old", vector)
        entry_bytes = store.disk_bytes()
        budget = entry_bytes * 3 + entry_bytes // 2  # room for 3 entries
        capped = ResultStore(tmp_path, byte_budget=budget, memory_entries=0)
        os.utime(
            capped.root / "s" / "old.json", (1_000_000_000, 1_000_000_000)
        )
        for name in ("new1", "new2", "new3"):
            capped.put("s", name, vector)
        assert capped.stats.evictions >= 1
        assert capped.get("s", "old") is None  # oldest entry went first
        assert capped.get("s", "new3") == vector
        assert capped.disk_bytes() <= budget


# ---------------------------------------------------------------------------
# Tentpole: ServiceBackend bit-identity and warm-store behaviour
# ---------------------------------------------------------------------------
def _irregular_fabric() -> IrregularTopology:
    return IrregularTopology(
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (4, 6),
         (6, 7), (7, 5), (7, 8), (8, 6)],
        name="fabric9",
    )


class TestServiceBackend:
    @pytest.mark.parametrize(
        "platform",
        [
            Platform(mesh=Mesh(3, 3)),
            Platform(mesh=Torus(3, 3)),
            Platform(mesh=_irregular_fabric(), routing="table"),
        ],
        ids=["mesh", "torus", "irregular"],
    )
    @pytest.mark.parametrize("model", ["cwm", "cdcm"])
    def test_bit_identical_to_serial(self, tmp_path, workload, platform, model):
        cdcg, cwg, _ = workload
        if model == "cwm":
            make = lambda: CwmEvaluationContext(cwg, platform, cache_size=0)
        else:
            make = lambda: CdcmEvaluationContext(cdcg, platform, cache_size=0)
        mappings = _random_mappings(cdcg.cores(), platform.num_tiles, 12)
        serial = SerialBackend().evaluate_metrics(make(), mappings)
        service = ServiceBackend(ResultStore(tmp_path / model / platform.mesh.name
                                             if hasattr(platform.mesh, "name")
                                             else tmp_path / model))
        cold = service.evaluate_metrics(make(), mappings)
        warm = service.evaluate_metrics(make(), mappings)
        assert cold == serial
        assert warm == serial
        assert service.priced == len(mappings)
        assert service.store_hits == len(mappings)

    def test_scalar_evaluate_matches_serial(self, tmp_path, workload):
        cdcg, _, platform = workload
        mappings = _random_mappings(cdcg.cores(), platform.num_tiles, 6)
        reference = SerialBackend().evaluate(
            CdcmEvaluationContext(cdcg, platform, cache_size=0), mappings
        )
        service = ServiceBackend(ResultStore(tmp_path))
        context = CdcmEvaluationContext(cdcg, platform, cache_size=0)
        assert service.evaluate(context, mappings) == reference

    def test_warm_weight_sweep_prices_nothing(self, tmp_path, workload):
        """The acceptance criterion: an identical weight-sweep job against a
        warm store re-prices zero candidates (hit rate == 1.0)."""
        cdcg, _, platform = workload
        mappings = _random_mappings(cdcg.cores(), platform.num_tiles, 10)
        store = ResultStore(tmp_path)
        service = ServiceBackend(store)
        sweeps = [
            {"energy": 1.0, "time": 0.0},
            {"energy": 0.5, "time": 0.5},
            {"energy": 0.0, "time": 1.0},
        ]
        # Cold pass: prices everything once.
        context = CdcmEvaluationContext(
            cdcg, platform, cache_size=0, backend=service
        )
        cold = [
            [v.weighted_sum(w, strict=False)
             for v in context.evaluate_metrics_batch(mappings)]
            for w in sweeps
        ]
        priced_after_cold = service.priced
        assert priced_after_cold == len(mappings)
        # Warm pass: a fresh context (fresh memo, fresh process in spirit)
        # repeats the identical sweep — nothing is re-priced.
        store.reset_stats()
        fresh = CdcmEvaluationContext(
            cdcg, platform, cache_size=0, backend=service
        )
        warm = [
            [v.weighted_sum(w, strict=False)
             for v in fresh.evaluate_metrics_batch(mappings)]
            for w in sweeps
        ]
        assert warm == cold
        assert service.priced == priced_after_cold  # delta == 0
        assert store.stats.hit_rate == 1.0

    def test_store_survives_process_restart_semantics(self, tmp_path, workload):
        cdcg, _, platform = workload
        mappings = _random_mappings(cdcg.cores(), platform.num_tiles, 5)
        first = ServiceBackend(ResultStore(tmp_path))
        vectors = first.evaluate_metrics(
            CdcmEvaluationContext(cdcg, platform, cache_size=0), mappings
        )
        # New store instance over the same root = a new process.
        second = ServiceBackend(ResultStore(tmp_path))
        again = second.evaluate_metrics(
            CdcmEvaluationContext(cdcg, platform, cache_size=0), mappings
        )
        assert again == vectors
        assert second.priced == 0 and second.store_hits == len(mappings)


# ---------------------------------------------------------------------------
# Store write failures and concurrent eviction
# ---------------------------------------------------------------------------
def _raise_oserror(code):
    def fail(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    return fail


def _open_failing_writes(code):
    """An ``open`` that raises ``OSError(code)`` for writes and reads as usual."""

    def fake_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(code, os.strerror(code))
        return open(file, mode, *args, **kwargs)

    return fake_open


_WRITE_ERRORS = pytest.mark.parametrize(
    "code", [errno.ENOSPC, errno.EROFS], ids=["ENOSPC", "EROFS"]
)


class TestStoreWriteFailures:
    """A store that cannot write warns; the caller still gets its vectors."""

    @_WRITE_ERRORS
    @pytest.mark.parametrize("target", ["open", "os.replace"])
    def test_failed_write_warns_and_returns_priced_vectors(
        self, tmp_path, workload, monkeypatch, target, code
    ):
        cdcg, _, platform = workload
        mappings = _random_mappings(cdcg.cores(), platform.num_tiles, 6)
        context = CdcmEvaluationContext(cdcg, platform, cache_size=0)
        reference = SerialBackend().evaluate_metrics(context, mappings)
        store = ResultStore(tmp_path)
        service = ServiceBackend(store)
        fake = _open_failing_writes(code) if target == "open" else _raise_oserror(code)
        with monkeypatch.context() as patch:
            patch.setattr(f"repro.service.store.{target}", fake, raising=False)
            with pytest.warns(StoreWriteWarning, match=os.strerror(code)) as caught:
                got = service.evaluate_metrics(context, mappings)
        assert [w.category for w in caught] == [StoreWriteWarning]
        assert got == reference
        assert service.priced == len(mappings)
        assert store.stats.writes == 0
        assert store.disk_entries() == 0
        assert list(tmp_path.rglob("*.tmp")) == []

    @_WRITE_ERRORS
    def test_failed_put_keeps_the_vector_in_memory_only(
        self, tmp_path, monkeypatch, code
    ):
        vector = MetricVector(("m",), (1.5,))
        store = ResultStore(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.service.store.os.replace", _raise_oserror(code)
            )
            with pytest.warns(StoreWriteWarning):
                store.put("s", "d", vector)
        assert store.get("s", "d") == vector
        assert store.stats.writes == 0
        assert list(tmp_path.rglob("*.tmp")) == []
        assert ResultStore(tmp_path).get("s", "d") is None

    def test_concurrent_evictors_end_within_budget(self, tmp_path):
        vector = MetricVector(("m",), (1.0,))
        probe = ResultStore(tmp_path / "probe")
        probe.put("s", "d", vector)
        entry_bytes = probe.disk_bytes()
        budget = entry_bytes * 8 + entry_bytes // 2  # room for 8 entries
        root = tmp_path / "shared"
        stores = [
            ResultStore(root, byte_budget=budget, memory_entries=0)
            for _ in range(2)
        ]
        errors = []

        def fill(store, prefix):
            try:
                for i in range(60):
                    store.put("s", f"{prefix}{i}", vector)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=fill, args=(store, prefix))
            for store, prefix in zip(stores, "ab")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert stores[0].disk_bytes() <= budget
        assert sum(store.stats.evictions for store in stores) > 0


# ---------------------------------------------------------------------------
# Lifecycle: a pool backend leaves no worker processes behind
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_backend_context_manager_shuts_pool_down(self, workload):
        cdcg, _, platform = workload
        baseline = {p.pid for p in multiprocessing.active_children()}
        with ProcessPoolBackend(n_workers=2, min_batch_size=2) as pool:
            pool.evaluate_metrics(
                CdcmEvaluationContext(cdcg, platform, cache_size=0),
                _random_mappings(cdcg.cores(), platform.num_tiles, 8),
            )
            assert any(
                p.pid not in baseline for p in multiprocessing.active_children()
            ), "the batch should have spun up pool workers"
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in baseline
        ]
        assert not leaked, f"closing the backend leaked workers: {leaked}"


# ---------------------------------------------------------------------------
# ComparisonConfig: the service is pinned off for reproduced tables
# ---------------------------------------------------------------------------
class TestComparisonPin:
    def test_default_backend_is_none(self):
        assert ComparisonConfig().backend is None

    def test_reproduction_never_touches_the_service(self, workload, monkeypatch):
        from repro.search.annealing import FAST_SCHEDULE

        def explode(*args, **kwargs):  # pragma: no cover - would be the bug
            raise AssertionError(
                "ComparisonConfig engaged a backend by default"
            )

        monkeypatch.setattr(ServiceBackend, "evaluate_metrics", explode)
        monkeypatch.setattr(ServiceBackend, "evaluate", explode)
        cdcg, _, platform = workload
        config = ComparisonConfig(annealing_schedule=FAST_SCHEDULE)
        comparison = compare_models(cdcg, platform, config, seed=3)
        assert comparison.cwm_outcome.mapping is not None

    def test_service_backend_changes_no_published_number(
        self, tmp_path, workload
    ):
        from repro.search.annealing import FAST_SCHEDULE

        cdcg, _, platform = workload
        baseline = compare_models(
            cdcg,
            platform,
            ComparisonConfig(annealing_schedule=FAST_SCHEDULE),
            seed=11,
        )
        service = ServiceBackend(ResultStore(tmp_path))
        with_service = compare_models(
            cdcg,
            platform,
            ComparisonConfig(
                annealing_schedule=FAST_SCHEDULE, backend=service
            ),
            seed=11,
        )
        assert with_service.cwm_outcome.mapping == baseline.cwm_outcome.mapping
        assert with_service.cdcm_outcome.mapping == baseline.cdcm_outcome.mapping
        assert with_service.cwm_outcome.cost == baseline.cwm_outcome.cost
        assert with_service.cdcm_outcome.cost == baseline.cdcm_outcome.cost
        assert (
            with_service.cwm_mapping_time == baseline.cwm_mapping_time
            and with_service.cdcm_mapping_time == baseline.cdcm_mapping_time
        )
