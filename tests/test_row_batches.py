"""The array form of ``evaluate_metrics_batch`` against its list form.

Given a ``(pop, len(cores))`` tile array and its core order, a context
returns a ``(pop, k)`` float64 array.  The contract is the list form's, bit
for bit: the same values, the same memo statistics (a row repeated within a
batch is one miss and no hit; a row priced by an earlier batch is a hit),
and the same :class:`~repro.utils.errors.MappingError` where the list form
raises.  The memo keys rows on the context's own application columns, so
the statistics are compared with a list form priced on the application
cores only; values are also compared with mappings that keep every caller
column.

Covered: CWM and load-aware CWM with the ``vectorize`` gate on and off,
CDCM, caller orders that are shuffled or carry a core outside the
application, memo sizes 0, 3 and the default, an application core the
caller does not place, tiles outside the NoC, a wrong width, and one run
through a :class:`~repro.eval.parallel.ProcessPoolBackend`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codesign.load import LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.eval.context import (
    DEFAULT_CACHE_SIZE,
    CdcmEvaluationContext,
    CwmEvaluationContext,
)
from repro.eval.parallel import ProcessPoolBackend
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.utils.errors import ConfigurationError, MappingError
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLATFORM = Platform(mesh=Mesh(3, 3))
NUM_TILES = PLATFORM.num_tiles


def _application():
    spec = TgffSpec(name="rows-6", num_cores=6, num_packets=14, total_bits=14_000)
    cdcg = TgffLikeGenerator(5).generate(spec)
    cdcg.add_core("idle")  # an isolated core: no packet, no CWG edge
    return cdcg, cdcg_to_cwg(cdcg)


CDCG, CWG = _application()
APP_CORES = tuple(sorted(CDCG.cores()))

CONTEXTS = {
    "cwm": lambda size: CwmEvaluationContext(CWG, PLATFORM, cache_size=size),
    "cwm-scalar": lambda size: CwmEvaluationContext(
        CWG, PLATFORM, cache_size=size, vectorize=False
    ),
    "load": lambda size: LoadAwareCwmContext(CWG, PLATFORM, cache_size=size),
    "load-scalar": lambda size: LoadAwareCwmContext(
        CWG, PLATFORM, cache_size=size, vectorize=False
    ),
    "cdcm": lambda size: CdcmEvaluationContext(CDCG, PLATFORM, cache_size=size),
}


@st.composite
def batch_cases(draw):
    """``(cores, batches, cache_size)``: rows drawn from a small pool."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cores = list(APP_CORES)
    if draw(st.booleans()):
        cores.append("extra")  # a core outside the application
    if draw(st.booleans()):
        cores = [cores[index] for index in rng.permutation(len(cores)).tolist()]
    pool = [
        tuple(rng.permutation(NUM_TILES)[: len(cores)].tolist())
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    batches = [
        [pool[int(rng.integers(len(pool)))] for _ in range(draw(st.integers(0, 7)))]
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    cache_size = draw(st.sampled_from((0, 3, DEFAULT_CACHE_SIZE)))
    return tuple(cores), batches, cache_size


def _mappings(cores, batch, keep=None):
    """One mapping per row, over the cores *keep* accepts (all by default)."""
    columns = [c for c, core in enumerate(cores) if keep is None or keep(core)]
    return [
        Mapping.from_index_array([cores[c] for c in columns], [row[c] for c in columns])
        for row in batch
    ]


def _values(vectors, width):
    return np.array([vector.values for vector in vectors], dtype=np.float64).reshape(
        len(vectors), width
    )


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
class TestArrayForm:
    @SETTINGS
    @given(case=batch_cases())
    def test_matches_list_form(self, kind, case):
        cores, batches, cache_size = case
        by_rows = CONTEXTS[kind](cache_size)
        by_list = CONTEXTS[kind](cache_size)
        by_full = CONTEXTS[kind](cache_size)
        width = len(by_rows.metric_names)
        for batch in batches:
            tiles = np.array(batch, dtype=np.int64).reshape(len(batch), len(cores))
            values = by_rows.evaluate_metrics_batch(tiles, cores=cores)
            assert values.dtype == np.float64
            assert values.shape == (len(batch), width)
            listed = by_list.evaluate_metrics_batch(
                _mappings(cores, batch, keep=APP_CORES.__contains__)
            )
            full = by_full.evaluate_metrics_batch(_mappings(cores, batch))
            assert values.tobytes() == _values(listed, width).tobytes()
            assert values.tobytes() == _values(full, width).tobytes()
            assert by_rows.cache_info() == by_list.cache_info()

    def test_scalar_view_matches(self, kind):
        context = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
        batch = [tuple(np.random.default_rng(seed).permutation(NUM_TILES)[:7].tolist())
                 for seed in range(6)]
        costs = context.evaluate_batch(np.array(batch), cores=APP_CORES)
        assert costs == CONTEXTS[kind](0).evaluate_batch(_mappings(APP_CORES, batch))

    def test_out_of_range_tiles_raise_like_the_list_form(self, kind):
        cores = APP_CORES + ("extra",)
        rng = np.random.default_rng(3)
        rows = [rng.permutation(NUM_TILES + 3)[: len(cores)].tolist() for _ in range(40)]
        for row in rows:
            batch = [tuple(rng.permutation(NUM_TILES)[: len(cores)].tolist()), tuple(row)]
            by_rows = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
            by_list = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
            # The first row is a memo hit in the failing batch.
            by_rows.evaluate_metrics_batch(np.array(batch[:1]), cores=cores)
            by_list.evaluate_metrics_batch(_mappings(cores, batch[:1]))
            try:
                by_list.evaluate_metrics_batch(_mappings(cores, batch))
            except MappingError as exc:
                with pytest.raises(MappingError) as raised:
                    by_rows.evaluate_metrics_batch(np.array(batch), cores=cores)
                assert str(raised.value) == str(exc)
            else:
                by_rows.evaluate_metrics_batch(np.array(batch), cores=cores)
            assert by_rows.cache_info() == by_list.cache_info()

    def test_negative_tiles_raise(self, kind):
        row = list(range(len(APP_CORES)))
        row[2] = -1
        with pytest.raises(MappingError):
            CONTEXTS[kind](0).evaluate_metrics_batch(np.array([row]), cores=APP_CORES)

    def test_unplaced_core_raises_like_the_list_form(self, kind):
        communicating = [core for core in APP_CORES if core != "idle"]
        for dropped in (communicating[2], "idle"):
            cores = tuple(core for core in APP_CORES if core != dropped)
            batch = [tuple(range(len(cores))), tuple(range(1, len(cores) + 1))]
            try:
                expected = CONTEXTS[kind](0).evaluate_metrics_batch(_mappings(cores, batch))
            except MappingError as exc:
                with pytest.raises(MappingError) as raised:
                    CONTEXTS[kind](0).evaluate_metrics_batch(np.array(batch), cores=cores)
                assert str(raised.value) == str(exc)
            else:
                assert dropped == "idle" and not kind.startswith("cdcm")
                values = CONTEXTS[kind](0).evaluate_metrics_batch(np.array(batch), cores=cores)
                width = len(values[0])
                assert values.tobytes() == _values(expected, width).tobytes()

    def test_wrong_width_raises(self, kind):
        context = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
        with pytest.raises(MappingError, match="tile array"):
            context.evaluate_metrics_batch(np.zeros((2, 3), dtype=int), cores=APP_CORES)
        with pytest.raises(MappingError, match="tile array"):
            context.evaluate_metrics_batch(np.zeros(len(APP_CORES), dtype=int), cores=APP_CORES)
        with pytest.raises(ConfigurationError, match="cores="):
            context.evaluate_metrics_batch(np.zeros((2, len(APP_CORES)), dtype=int))


def test_pooled_array_batches_match_inline():
    rng = np.random.default_rng(11)
    pool = [tuple(rng.permutation(NUM_TILES)[: len(APP_CORES)].tolist()) for _ in range(6)]
    batches = [[pool[int(rng.integers(6))] for _ in range(8)] for _ in range(3)]
    with ProcessPoolBackend(n_workers=2) as backend:
        for kind in ("load", "cdcm"):
            pooled = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
            inline = CONTEXTS[kind](DEFAULT_CACHE_SIZE)
            for batch in batches:
                tiles = np.array(batch)
                got = pooled.evaluate_metrics_batch(tiles, backend=backend, cores=APP_CORES)
                want = inline.evaluate_metrics_batch(tiles, cores=APP_CORES)
                assert got.tobytes() == want.tobytes()
            assert pooled.cache_info() == inline.cache_info()
