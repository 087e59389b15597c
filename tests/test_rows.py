"""The seams the population engines breed and sort tile rows through.

* **Random stream.**  Tournaments draw their entrants one scalar
  ``integers(n)`` at a time; the seeded trajectories pinned in
  ``tests/test_population_pins.py`` were recorded with one
  ``integers(0, n, size=k)`` call per tournament.  The two must consume
  every NumPy bit generator identically, also between other draws.
* **Swap mutation.**  The row operator must make the move, and the draws,
  of :meth:`~repro.core.mapping.Mapping.swap_tiles` on the same mapping.
* **Key matrices.**  The sort helpers of NSGA-II and NSGA-III take the
  ``(n, len(keys))`` key-column array as well as metric vectors, and must
  return the same fronts, distances, normalisations and niches for both;
  crowding distances must equal, float for float and in the same dict
  order, those of the original loop kept in ``tests/reference_pareto.py``.
* **Row helpers** of :mod:`repro.search.base` round-trip to mappings.
* **Sources without tile arrays.**  An objective whose batch methods take
  mappings only is handed one mapping per row, by every population engine.
* **Result breakdowns** come from the priced rows: no engine prices its
  incumbent a second time to attach ``best_metrics``.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_pareto
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector, weighted_columns
from repro.search.base import initial_row, random_row, row_mapping, tile_array
from repro.search.genetic import GeneticParameters, GeneticSearch, swap_mutation
from repro.search.nsga2 import (
    NSGA2Search,
    Nsga2Parameters,
    crowding_distances,
    fast_non_dominated_sort,
)
from repro.search.nsga3 import (
    _normalise,
    das_dennis_reference_points,
    niche_select,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def _state(generator) -> bytes:
    return pickle.dumps(generator.bit_generator.state)


class TestTournamentDraws:
    @SETTINGS
    @given(
        bit_generator=st.sampled_from(BIT_GENERATORS),
        seed=st.integers(min_value=0, max_value=2**63),
        draws=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2**33),
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_scalar_draws_consume_like_one_sized_draw(self, bit_generator, seed, draws):
        sized = np.random.Generator(bit_generator(seed))
        scalar = np.random.Generator(bit_generator(seed))
        for bound, count, doubles in draws:
            expected = sized.integers(0, bound, size=count).tolist()
            assert [int(scalar.integers(bound)) for _ in range(count)] == expected
            assert _state(scalar) == _state(sized)
            # Interleaved doubles, as the coins between tournaments draw.
            assert scalar.random(doubles).tolist() == sized.random(doubles).tolist()
            assert scalar.random() == sized.random()


@st.composite
def swap_cases(draw):
    num_tiles = draw(st.integers(min_value=1, max_value=40))
    num_cores = draw(st.integers(min_value=0, max_value=num_tiles))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cores = [f"core{index}" for index in range(num_cores)]
    mapping = Mapping.random(cores, num_tiles, rng)
    return mapping, num_tiles, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestSwapMutation:
    @SETTINGS
    @given(case=swap_cases())
    def test_matches_mapping_swap(self, case):
        mapping, num_tiles, seed = case
        cores = mapping.cores
        row = initial_row(mapping, cores)
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(4):
            child = swap_mutation(row, num_tiles, rng)
            if num_tiles < 2:
                assert child is row
            else:
                tile_a = int(reference.integers(num_tiles))
                tile_b = int(reference.integers(num_tiles - 1))
                if tile_b >= tile_a:
                    tile_b += 1
                mapping = mapping.swap_tiles(tile_a, tile_b)
            assert child == initial_row(mapping, cores)
            assert _state(rng) == _state(reference)
            row = child


class TestRowHelpers:
    def test_random_row_draws_what_mapping_random_draws(self):
        cores = ["a", "b", "c", "d"]
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        for _ in range(5):
            row = random_row(len(cores), 7, rng)
            assert row == initial_row(Mapping.random(cores, 7, reference), cores)
            assert _state(rng) == _state(reference)

    def test_row_mapping_round_trips(self):
        mapping = Mapping({"b": 4, "a": 0, "c": 2}, num_tiles=6)
        cores = mapping.cores
        rebuilt = row_mapping(cores, initial_row(mapping, cores), 6)
        assert rebuilt == mapping
        assert rebuilt.num_tiles == 6
        assert [rebuilt.core_at(tile) for tile in range(6)] == [
            mapping.core_at(tile) for tile in range(6)
        ]

    def test_tile_array_shape(self):
        assert tile_array([(1, 2), (3, 0)], ("a", "b")).tolist() == [[1, 2], [3, 0]]
        assert tile_array([], ("a", "b")).shape == (0, 2)

    def test_weighted_columns_matches_weighted_sum(self):
        rng = np.random.default_rng(4)
        names = ("energy", "time", "extra")
        values = rng.normal(size=(20, 3)) * 1e3
        values[3] = (-0.0, math.inf, 1.0)
        for weights in ({"energy": 1.0}, {"energy": 0.3, "time": 0.7}, {"extra": 0.0}):
            expected = [
                MetricVector(names, row).weighted_sum(weights, strict=False)
                for row in values.tolist()
            ]
            got = weighted_columns(values, names, weights)
            assert got.tobytes() == np.array(expected).tobytes()


@st.composite
def key_populations(draw):
    """Metric rows with heavy ties, signed zeros and infinities."""
    size = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=3))
    palette = [0.0, -0.0, 1.0, 2.5, 7.0, math.inf, -math.inf]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = [
        [
            palette[int(rng.integers(len(palette)))]
            if rng.random() < 0.4
            else float(rng.integers(0, 6)) + float(rng.random())
            for _ in range(width)
        ]
        for _ in range(size)
    ]
    keys = ("energy", "time", "load")[:width]
    return keys, rows


class TestKeyMatrixForms:
    @SETTINGS
    @given(case=key_populations())
    def test_sort_crowding_and_niching_agree(self, case):
        keys, rows = case
        vectors = [MetricVector(keys, row) for row in rows]
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(keys))
        fronts = fast_non_dominated_sort(vectors, keys)
        assert fast_non_dominated_sort(matrix, keys) == fronts
        for front in fronts + [list(range(len(rows)))[::-1]]:
            expected = reference_pareto.crowding_distances(front, vectors, keys)
            for form in (matrix, vectors):
                got = crowding_distances(front, form, keys)
                assert list(got) == list(expected)
                assert np.array(list(got.values())).tobytes() == (
                    np.array(list(expected.values())).tobytes()
                )
        pool = range(len(rows))
        assert _normalise(pool, matrix, keys) == _normalise(pool, vectors, keys)
        if len(rows) >= 2:
            references = das_dennis_reference_points(len(keys), 3)
            accepted, spill = list(pool)[: len(rows) // 2], list(pool)[len(rows) // 2 :]
            slots = max(1, len(spill) // 2)
            assert niche_select(
                accepted, spill, matrix, keys, references, slots
            ) == niche_select(accepted, spill, vectors, keys, references, slots)

    def test_nan_in_a_key_matrix_is_named(self):
        from repro.utils.errors import ConfigurationError

        matrix = np.array([[1.0, 2.0], [3.0, math.nan]])
        with pytest.raises(ConfigurationError, match=r"vector 1 has a NaN 'time'"):
            fast_non_dominated_sort(matrix, ("energy", "time"))

    def test_key_matrix_needs_one_column_per_key(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="key matrix"):
            fast_non_dominated_sort(np.zeros((3, 1)), ("energy", "time"))


class _MappingOnlySource:
    """A vector source whose batch methods take mappings, not tile arrays."""

    name = "mapping-only"
    metric_names = ("energy", "time")
    weights = {"energy": 1.0}

    def metrics(self, mapping):
        tiles = [tile for _, tile in mapping]
        energy = float(sum(weight * tile for weight, tile in enumerate(tiles, 1)))
        return MetricVector(self.metric_names, (energy, float(max(tiles) - min(tiles))))

    def cost(self, mapping):
        return self.metrics(mapping)["energy"]

    def evaluate_batch(self, mappings, backend=None):
        return [self.cost(mapping) for mapping in mappings]

    def evaluate_metrics_batch(self, mappings, backend=None):
        return [self.metrics(mapping) for mapping in mappings]


class TestMappingOnlySources:
    INITIAL = Mapping({"a": 0, "b": 3, "c": 5, "d": 6}, num_tiles=9)

    def test_genetic_search_hands_it_mappings(self):
        engine = GeneticSearch(GeneticParameters(population_size=6, generations=4))
        batched = engine.search(_MappingOnlySource(), self.INITIAL, rng=7)
        unbatched = engine.search(_MappingOnlySource().cost, self.INITIAL, rng=7)
        assert batched.best_mapping == unbatched.best_mapping
        assert batched.history == unbatched.history
        assert batched.evaluations == unbatched.evaluations

    def test_nsga2_hands_it_mappings(self):
        engine = NSGA2Search(Nsga2Parameters(population_size=6, generations=3))
        result = engine.search(_MappingOnlySource(), self.INITIAL, rng=7)
        assert result.best_metrics == _MappingOnlySource().metrics(result.best_mapping)
        assert result.front


@pytest.mark.parametrize(
    "engine",
    [
        GeneticSearch(GeneticParameters(population_size=8, generations=3)),
        NSGA2Search(Nsga2Parameters(population_size=8, generations=3)),
    ],
    ids=["genetic", "nsga2"],
)
def test_breakdown_reuses_the_priced_row(engine, monkeypatch):
    from repro.eval.context import CwmEvaluationContext
    from repro.graphs.cwg import cwg_from_edges
    from repro.noc.platform import Platform
    from repro.noc.topology import Mesh

    cwg = cwg_from_edges("rows", [("a", "b", 64), ("b", "c", 32), ("c", "d", 16)])
    context = CwmEvaluationContext(cwg, Platform(mesh=Mesh(3, 3)))
    reference = CwmEvaluationContext(cwg, Platform(mesh=Mesh(3, 3)))

    def scalar_pricing(self, mapping):
        raise AssertionError("the incumbent was priced again")

    monkeypatch.setattr(CwmEvaluationContext, "_compute_metrics", scalar_pricing)
    result = engine.search(context, Mapping.random(cwg.cores, 9, rng=1), rng=2)
    monkeypatch.undo()
    assert result.best_metrics == reference.metrics(result.best_mapping)
    assert context.cache_info().misses == len(context._memo)
