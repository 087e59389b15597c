"""One candidate form inside the evaluation contexts: the key row.

A context turns every candidate (a :class:`~repro.core.mapping.Mapping`, a
plain assignment dict, or a row of a tile array) into its key row, the tile
of each application core in ``core_order``.  These tests pin what follows
from that:

* **One memo.**  :meth:`~repro.eval.context.EvaluationContext.metrics` and
  both forms of ``evaluate_metrics_batch`` share entries: a candidate priced
  in one form is a hit in the other, including a dict and a mapping that
  carries a core outside the application.  A mapping keeps its last key
  row, never read by a context with another core order.
* **Cores outside the application are ignored** by every context, in every
  form (CWM used to range-check their tiles), and a tile that is not an
  int64 integer is a :class:`~repro.utils.errors.MappingError`.
* **CDCM prices key rows without mappings**, and its array form raises the
  list form's errors.
* **The store keys key rows** on the digest :func:`mapping_digest` gives the
  full candidate, so a store filled through mappings answers tile arrays;
  load-aware CWM vectors have a scope of their own.
* **A context must declare** ``core_order``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codesign.load import LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import (
    CdcmEvaluationContext,
    CwmEvaluationContext,
    EvaluationContext,
)
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.service import (
    STORE_VERSION,
    ResultStore,
    ServiceBackend,
    mapping_digest,
    scope_for_context,
)
from repro.utils.errors import ConfigurationError, MappingError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

PLATFORM = Platform(mesh=Mesh(3, 3))


def _application():
    spec = TgffSpec(name="keys-5", num_cores=5, num_packets=12, total_bits=12_000)
    cdcg = TgffLikeGenerator(17).generate(spec)
    return cdcg, cdcg_to_cwg(cdcg)


CDCG, CWG = _application()
CORES = tuple(sorted(CDCG.cores()))

CONTEXTS = {
    "cwm": lambda: CwmEvaluationContext(CWG, PLATFORM),
    "cwm-scalar": lambda: CwmEvaluationContext(CWG, PLATFORM, vectorize=False),
    "load": lambda: LoadAwareCwmContext(CWG, PLATFORM),
    "cdcm": lambda: CdcmEvaluationContext(CDCG, PLATFORM),
}


def _mapping(seed: int) -> Mapping:
    return Mapping.random(CORES, PLATFORM.num_tiles, rng=seed)


def _forms(mapping: Mapping):
    """The candidate as a mapping, a dict, and a mapping with an extra core."""
    free = mapping.free_tiles()[0]
    extra = Mapping({**mapping.assignments(), "extra": free}, PLATFORM.num_tiles)
    return {"mapping": mapping, "dict": mapping.assignments(), "extra": extra}


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
@pytest.mark.parametrize("form", ["mapping", "dict", "extra"])
class TestOneMemo:
    def test_metrics_hits_what_a_row_priced(self, kind, form):
        context = CONTEXTS[kind]()
        mapping = _mapping(3)
        row = mapping.to_index_array(CORES)[None, :]
        values = context.evaluate_metrics_batch(row, cores=CORES)
        vector = context.metrics(_forms(mapping)[form])
        assert context.cache_info()[:3] == (1, 1, 1)
        assert vector.values == tuple(values[0].tolist())

    def test_a_row_hits_what_metrics_priced(self, kind, form):
        context = CONTEXTS[kind]()
        mapping = _mapping(4)
        vector = context.metrics(_forms(mapping)[form])
        row = mapping.to_index_array(CORES)[None, :]
        values = context.evaluate_metrics_batch(row, cores=CORES)
        assert context.cache_info()[:3] == (1, 1, 1)
        assert vector.values == tuple(values[0].tolist())

    def test_list_form_shares_the_memo(self, kind, form):
        context = CONTEXTS[kind]()
        mappings = [_mapping(seed) for seed in range(5)]
        listed = context.evaluate_metrics_batch(
            [_forms(mapping)[form] for mapping in mappings]
        )
        again = [context.metrics(mapping) for mapping in mappings]
        assert again == listed
        assert context.cache_info()[:3] == (5, 5, 5)


def test_a_mapping_keys_each_context_in_its_own_core_order():
    # A mapping keeps the key row it was last packed into; a context with
    # other cores must not read it.
    spec = TgffSpec(name="keys-4", num_cores=4, num_packets=8, total_bits=8_000)
    small = cdcg_to_cwg(TgffLikeGenerator(18).generate(spec))
    contexts = [CwmEvaluationContext(CWG, PLATFORM), CwmEvaluationContext(small, PLATFORM)]
    mappings = [_mapping(seed) for seed in range(4)]
    for _ in range(2):
        for context in contexts:
            fresh = CwmEvaluationContext(context.cwg, PLATFORM)
            expected = [fresh.metrics(mapping.assignments()) for mapping in mappings]
            assert context.evaluate_metrics_batch(mappings) == expected
            assert [context.metrics(mapping) for mapping in mappings] == expected
    assert [context.cache_info()[:3] for context in contexts] == [(12, 4, 4)] * 2


@pytest.mark.parametrize("kind", ["cwm", "cwm-scalar", "load"])
class TestCoresOutsideTheApplication:
    """CWM ignores the tiles of cores it has no column for, as CDCM did."""

    def test_a_tile_outside_the_noc_is_ignored(self, kind):
        mapping = _mapping(5)
        reference = CONTEXTS[kind]().metrics(mapping)
        stray = {**mapping.assignments(), "extra": PLATFORM.num_tiles + 4}
        assert CONTEXTS[kind]().metrics(stray) == reference
        assert CONTEXTS[kind]().evaluate_metrics_batch([stray]) == [reference]
        row = [[*mapping.to_index_array(CORES).tolist(), -7]]
        values = CONTEXTS[kind]().evaluate_metrics_batch(
            np.array(row), cores=CORES + ("extra",)
        )
        assert tuple(values[0].tolist()) == reference.values


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
@pytest.mark.parametrize("tile", [1.5, "2", 2**70])
def test_a_tile_that_is_no_int64_is_a_mapping_error(kind, tile):
    candidate = {**_mapping(6).assignments(), CORES[0]: tile}
    with pytest.raises(MappingError, match="int64 integers"):
        CONTEXTS[kind]().metrics(candidate)
    with pytest.raises(MappingError, match="int64 integers"):
        CONTEXTS[kind]().evaluate_metrics_batch([candidate])


class TestCdcmWithoutMappings:
    def test_a_row_batch_builds_no_mapping(self, monkeypatch):
        rows = np.array([_mapping(seed).to_index_array(CORES) for seed in range(6)])
        expected = CONTEXTS["cdcm"]().evaluate_metrics_batch(
            [_mapping(seed) for seed in range(6)]
        )
        built = []
        init, trusted = Mapping.__init__, Mapping._from_trusted.__func__

        def counting_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        def counting_trusted(cls, *args, **kwargs):
            built.append("_from_trusted")
            return trusted(cls, *args, **kwargs)

        monkeypatch.setattr(Mapping, "__init__", counting_init)
        monkeypatch.setattr(Mapping, "_from_trusted", classmethod(counting_trusted))
        values = CONTEXTS["cdcm"]().evaluate_metrics_batch(rows[::-1], cores=CORES)
        assert built == []
        assert values[::-1].tolist() == [list(vector.values) for vector in expected]

    @pytest.mark.parametrize("case", ["outside", "negative", "shared", "unplaced"])
    def test_array_form_raises_the_list_form_error(self, case):
        row = list(range(len(CORES)))
        cores = CORES
        if case == "outside":
            row[1] = PLATFORM.num_tiles
        elif case == "negative":
            row[2] = -1
        elif case == "shared":
            row[3] = row[0]
        else:
            cores, row = CORES[1:], row[1:]
        with pytest.raises(MappingError) as listed:
            CONTEXTS["cdcm"]().evaluate_metrics_batch([dict(zip(cores, row))])
        with pytest.raises(MappingError) as arrayed:
            CONTEXTS["cdcm"]().evaluate_metrics_batch(np.array([row]), cores=cores)
        assert str(arrayed.value) == str(listed.value)


class TestStoreKeys:
    def test_stored_digest_is_the_mapping_digest(self, tmp_path):
        context = CONTEXTS["cdcm"]()
        mapping = _mapping(8)
        store = ResultStore(tmp_path)
        values = ServiceBackend(store).evaluate_metrics(
            context, mapping.to_index_array(CORES)[None, :]
        )
        stored = store.get(scope_for_context(context), mapping_digest(mapping))
        assert stored == MetricVector(context.metric_names, values[0].tolist())

    @pytest.mark.parametrize("kind", ["cwm", "cdcm"])
    def test_a_store_filled_by_mappings_answers_tile_arrays(self, tmp_path, kind):
        mappings = [_mapping(seed) for seed in range(6)]
        service = ServiceBackend(ResultStore(tmp_path))
        listed = CONTEXTS[kind]().evaluate_metrics_batch(mappings, backend=service)
        priced = service.priced
        # Another column order, plus a column for a core outside the
        # application: neither changes a key.
        cores = CORES[::-1] + ("extra",)
        rows = np.array([[m.tile_of(core) for core in CORES[::-1]] + [99] for m in mappings])
        values = CONTEXTS[kind]().evaluate_metrics_batch(rows, backend=service, cores=cores)
        assert service.priced == priced  # delta == 0
        assert values.tolist() == [list(vector.values) for vector in listed]
        assert STORE_VERSION == 1

    def test_load_aware_cwm_has_a_scope_of_its_own(self, tmp_path):
        # Its vectors carry two more components than plain CWM's, so a
        # shared store keeps both and each is a hit the second time.
        assert scope_for_context(CONTEXTS["load"]()) != scope_for_context(
            CONTEXTS["cwm"]()
        )
        service = ServiceBackend(ResultStore(tmp_path))
        mapping = _mapping(9)
        for _ in range(2):
            plain = CONTEXTS["cwm"]().evaluate_metrics_batch([mapping], backend=service)
            load = CONTEXTS["load"]().evaluate_metrics_batch([mapping], backend=service)
        assert load == [CONTEXTS["load"]().metrics(mapping)]
        assert plain == [CONTEXTS["cwm"]().metrics(mapping)]
        assert (service.priced, service.store_hits) == (2, 2)

    def test_a_vector_of_other_components_is_repriced(self, tmp_path):
        context = CONTEXTS["load"]()
        mapping = _mapping(10)
        store = ResultStore(tmp_path)
        foreign = MetricVector(("dynamic_energy",), (1.0,))
        store.put(scope_for_context(context), mapping_digest(mapping), foreign)
        service = ServiceBackend(store)
        values = context.evaluate_metrics_batch([mapping], backend=service)
        assert values == [CONTEXTS["load"]().metrics(mapping)]
        assert service.priced == 1


class _NoCoreOrder(EvaluationContext):
    metric_names = ("energy",)

    def __init__(self, cache_size: int) -> None:
        super().__init__(cache_size)
        self.weights = {"energy": 1.0}

    def _compute_metrics(self, mapping):
        return MetricVector(self.metric_names, (float(mapping.tile_of("a")),))


@pytest.mark.parametrize(
    "price",
    [
        lambda context: context.metrics({"a": 1}),
        lambda context: context.evaluate_batch([{"a": 1}]),
        lambda context: context.evaluate_metrics_batch(np.array([[1]]), cores=("a",)),
    ],
    ids=["metrics", "list", "array"],
)
@pytest.mark.parametrize("cache_size", [16, 0])
def test_a_context_without_core_order_is_refused(price, cache_size):
    with pytest.raises(ConfigurationError, match="_NoCoreOrder defines no core_order"):
        price(_NoCoreOrder(cache_size))
