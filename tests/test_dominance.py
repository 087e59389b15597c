"""The array Pareto-dominance kernel (repro.core.dominance) against its oracle.

``fast_non_dominated_sort`` (shared by NSGA-II, NSGA-III and co-design) and
``non_dominated`` run on the array kernel.  The contract is **identity**
with the pairwise Python builders they replaced, kept verbatim in
``tests/reference_pareto.py``: the same fronts, in the same order, on
finite values, ±inf and −0.0, heavy ties and duplicate rows, one to five
keys, zero to 300 vectors, and vectors that list their components in
different orders.  NaN has no dominance order, so every front builder
rejects it with a typed error instead of silently dropping individuals.
±inf stays legal, and the selection that reads the fronts (crowding,
NSGA-III normalisation) treats a key whose span is not finite like a flat
one, so no NaN reaches a tournament or a truncation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_pareto
from repro.analysis.pareto import ParetoPoint, non_dominated
from repro.core.dominance import key_matrix, non_dominated_mask, pareto_fronts
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import EvaluationContext
from repro.search.nsga2 import (
    NSGA2Search,
    Nsga2Parameters,
    _Run,
    crowding_distances,
    fast_non_dominated_sort,
)
from repro.search.nsga3 import (
    NSGA3Search,
    Nsga3Parameters,
    _normalise,
    associate_to_references,
    das_dennis_reference_points,
)
from repro.utils.errors import ConfigurationError

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Values every draw may use: both infinities, both zeros, and repeats.
PALETTE = (-math.inf, math.inf, -0.0, 0.0, 1.0, 2.0, -3.5, 7.25)


@st.composite
def vector_sets(draw):
    """``(vectors, keys)`` with heavy ties, duplicate rows and shuffled names."""
    num_keys = draw(st.integers(min_value=1, max_value=5))
    size = draw(st.integers(min_value=0, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = draw(st.integers(min_value=1, max_value=10))
    pool = [
        float(rng.choice(PALETTE)) if rng.random() < 0.5 else float(rng.uniform(-10, 10))
        for _ in range(levels)
    ]
    names = [f"m{index}" for index in range(num_keys + int(rng.integers(0, 3)))]
    keys = tuple(rng.permutation(names)[:num_keys].tolist())
    rows = []
    for _ in range(size):
        if rows and rng.random() < 0.2:
            rows.append(rows[int(rng.integers(len(rows)))])
        else:
            rows.append({name: pool[int(rng.integers(levels))] for name in names})
    vectors = []
    for row in rows:
        order = rng.permutation(names).tolist()
        vectors.append(MetricVector(order, [row[name] for name in order]))
    return vectors, keys


class TestAgainstReference:
    @SETTINGS
    @given(case=vector_sets())
    def test_sort_matches_pairwise_sort(self, case):
        vectors, keys = case
        assert fast_non_dominated_sort(
            vectors, keys
        ) == reference_pareto.fast_non_dominated_sort(vectors, keys)

    @SETTINGS
    @given(case=vector_sets())
    def test_non_dominated_matches_pairwise_filter(self, case):
        vectors, keys = case
        points = [
            ParetoPoint(mapping=index, metrics=vector)
            for index, vector in enumerate(vectors)
        ]
        kernel = non_dominated(points, keys)
        oracle = reference_pareto.non_dominated(points, keys)
        assert [point.mapping for point in kernel] == [
            point.mapping for point in oracle
        ]


class TestKernel:
    def test_later_fronts_follow_debs_release_order(self):
        # Row 3's only dominator is row 0 and row 2's is row 1, so Deb's loop
        # releases row 3 first: front 1 is ordered by dominator position in
        # front 0, not by index.
        matrix = np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 6.0], [6.0, 1.0]])
        assert pareto_fronts(matrix) == [[0, 1], [3, 2]]

    def test_signed_zero_and_infinity_order_like_scalars(self):
        matrix = np.array([[-0.0, math.inf], [0.0, math.inf], [-math.inf, math.inf]])
        assert pareto_fronts(matrix) == [[2], [0, 1]]
        assert non_dominated_mask(matrix).tolist() == [False, False, True]

    def test_equal_rows_keep_the_first(self):
        matrix = np.array([[1.0, 2.0], [1.0, 2.0], [-0.0, 3.0], [0.0, 3.0]])
        assert non_dominated_mask(matrix).tolist() == [True, False, True, False]

    def test_empty_inputs(self):
        assert fast_non_dominated_sort([], ("energy", "time")) == []
        assert non_dominated([], ("energy", "time")) == []
        assert key_matrix([], ("energy",)).shape == (0, 1)

    def test_missing_key_raises_key_error(self):
        with pytest.raises(KeyError):
            key_matrix([MetricVector(("energy",), (1.0,))], ("time",))


# ---------------------------------------------------------------------------
# NaN components
# ---------------------------------------------------------------------------

NAN = math.nan

#: Dominance among rows 1-4 cycles, so the pairwise sort returned [[0]].
NAN_REPRO = [(NAN, 0, 1), (2, 0, NAN), (0, NAN, 2), (2, 2, NAN), (NAN, 1, 0)]


class _NanTimeContext(EvaluationContext):
    """Prices NaN time whenever core ``a`` sits on an odd tile."""

    metric_names = ("energy", "time")
    core_order = ("a", "b", "c")

    def __init__(self) -> None:
        super().__init__()
        self.weights = {"energy": 1.0}

    def _compute_metrics(self, mapping):
        tile = mapping.tile_of("a")
        time = NAN if tile % 2 else float(mapping.tile_of("b"))
        return MetricVector(self.metric_names, (float(tile), time))


class TestNanRejected:
    def test_repro_raises_naming_first_index_and_key(self):
        vectors = [MetricVector(("a", "b", "c"), row) for row in NAN_REPRO]
        keys = ("a", "b", "c")
        assert reference_pareto.fast_non_dominated_sort(vectors, keys) == [[0]]
        with pytest.raises(ConfigurationError, match=r"vector 0 has a NaN 'a'"):
            fast_non_dominated_sort(vectors, keys)

    def test_first_nan_is_reported_by_index_then_key(self):
        vectors = [
            MetricVector(("a", "b"), (1.0, 2.0)),
            MetricVector(("b", "a"), (NAN, NAN)),
        ]
        with pytest.raises(ConfigurationError, match=r"vector 1 has a NaN 'a'"):
            fast_non_dominated_sort(vectors, ("a", "b"))

    def test_infinities_stay_legal(self):
        vectors = [
            MetricVector(("a", "b"), (math.inf, -math.inf)),
            MetricVector(("a", "b"), (-math.inf, math.inf)),
        ]
        assert fast_non_dominated_sort(vectors, ("a", "b")) == [[0, 1]]

    def test_non_dominated_raises(self):
        points = [
            ParetoPoint(mapping=index, metrics=MetricVector(("a", "b", "c"), row))
            for index, row in enumerate(NAN_REPRO)
        ]
        with pytest.raises(ConfigurationError, match="NaN"):
            non_dominated(points, ("a", "b", "c"))

    @pytest.mark.parametrize(
        "engine",
        [
            NSGA2Search(Nsga2Parameters(population_size=8, generations=2)),
            NSGA3Search(Nsga3Parameters(population_size=8, generations=2)),
        ],
        ids=["nsga2", "nsga3"],
    )
    def test_engines_raise_instead_of_shrinking(self, engine):
        initial = Mapping({"a": 1, "b": 0, "c": 2}, num_tiles=6)
        with pytest.raises(ConfigurationError, match="NaN 'time'"):
            engine.search(_NanTimeContext(), initial, rng=3)


#: A front whose energy span is infinite; point 5 is the time anchor.
INF_FRONT = [(0, 9), (1, 7), (2, 4), (3, 2), (4, 1), (math.inf, 0)]
INF_KEYS = ("energy", "time")


class TestInfiniteSpan:
    """A key whose span is not finite adds only its anchors and normalises to 0.

    Crowding once divided an infinite gap by an infinite span (NaN for point
    4), so truncation depended on the order the front was listed in and
    could drop an anchor; NSGA-III's normalisation mapped the infinite point
    to NaN.
    """

    @staticmethod
    def _vectors():
        return [MetricVector(INF_KEYS, point) for point in INF_FRONT]

    def test_crowding_has_no_nan(self):
        distances = crowding_distances(range(6), self._vectors(), INF_KEYS)
        assert not any(math.isnan(value) for value in distances.values())
        assert distances[0] == distances[5] == math.inf
        # Time alone spreads the interior: (7 - 2) / 9 for point 1.
        assert distances[1] == pytest.approx(5 / 9)

    @pytest.mark.parametrize("front", [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
    def test_truncation_keeps_both_anchors_in_either_order(self, front):
        run = _Run(INF_KEYS, cores=[], num_tiles=0, price=None, score=None)
        kept = NSGA2Search()._truncate([], front, self._vectors(), 3, run)
        assert set(kept) == {0, 1, 5}

    def test_normalisation_and_association_have_no_nan(self):
        normalised = _normalise(range(6), self._vectors(), INF_KEYS)
        coordinates = [value for point in normalised.values() for value in point]
        assert not any(math.isnan(value) for value in coordinates)
        assert all(point[0] == 0.0 for point in normalised.values())
        association = associate_to_references(
            normalised, das_dennis_reference_points(2, 4)
        )
        assert not any(math.isnan(distance) for _, distance in association.values())


# ---------------------------------------------------------------------------
# The population loop's one sort per generation
# ---------------------------------------------------------------------------


class TestEarlyStop:
    @SETTINGS
    @given(case=vector_sets(), data=st.data())
    def test_stopped_fronts_are_the_full_sorts_first_fronts(self, case, data):
        vectors, keys = case
        full = reference_pareto.fast_non_dominated_sort(vectors, keys)
        stop = data.draw(st.integers(min_value=1, max_value=len(vectors) + 1))
        expected, found = [], 0
        for front in full:
            expected.append(front)
            found += len(front)
            if found >= stop:
                break
        assert fast_non_dominated_sort(vectors, keys, stop=stop) == expected

    @pytest.mark.parametrize("stop", [0, -1])
    def test_stop_below_one_raises(self, stop):
        with pytest.raises(ConfigurationError, match="positive"):
            pareto_fronts(np.zeros((3, 2)), stop=stop)


class _PaletteContext(EvaluationContext):
    """Prices every key from a tie-heavy table indexed by the three tiles."""

    core_order = ("a", "b", "c")

    def __init__(self, table: np.ndarray, num_tiles: int) -> None:
        super().__init__()
        self.metric_names = tuple(f"m{index}" for index in range(table.shape[0]))
        self.weights = {self.metric_names[0]: 1.0}
        self._table = table
        self._num_tiles = num_tiles

    def _compute_metrics(self, mapping):
        a, b, c = (mapping.tile_of(core) for core in self.core_order)
        code = (a * self._num_tiles + b) * self._num_tiles + c
        return MetricVector(self.metric_names, self._table[:, code].tolist())


def _recording(engine_type):
    """*engine_type* keeping the fronts and key matrix of every tournament."""

    class Recording(engine_type):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.ranked = []

        def _tiebreak(self, fronts, vectors, run):
            self.ranked.append(([list(front) for front in fronts], np.array(vectors)))
            return super()._tiebreak(fronts, vectors, run)

    return Recording


class TestReusedFronts:
    """Survivors keep their fronts: they equal a fresh sort of the survivors."""

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_keys=st.integers(min_value=1, max_value=5),
        levels=st.integers(min_value=1, max_value=6),
        size=st.integers(min_value=4, max_value=14),
        nsga3=st.booleans(),
    )
    def test_reused_fronts_match_a_fresh_sort(self, seed, num_keys, levels, size, nsga3):
        rng = np.random.default_rng(seed)
        num_tiles = 6
        pool = [float(rng.choice(PALETTE)) for _ in range(levels)]
        table = rng.choice(pool, size=(num_keys, num_tiles**3))
        context = _PaletteContext(table, num_tiles)
        keys = context.metric_names
        if nsga3:
            engine = _recording(NSGA3Search)(
                Nsga3Parameters(population_size=size, generations=4), keys=keys
            )
        else:
            engine = _recording(NSGA2Search)(
                Nsga2Parameters(population_size=size, generations=4), keys=keys
            )
        initial = Mapping({"a": 0, "b": 1, "c": 2}, num_tiles=num_tiles)
        engine.search(context, initial, rng=seed)
        assert len(engine.ranked) == 4
        for fronts, matrix in engine.ranked:
            vectors = [MetricVector(keys, row) for row in matrix.tolist()]
            fresh = reference_pareto.fast_non_dominated_sort(vectors, keys)
            assert [sorted(front) for front in fronts] == [
                sorted(front) for front in fresh
            ]
