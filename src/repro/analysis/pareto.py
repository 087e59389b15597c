"""Pareto-front construction over vector-valued objectives.

The paper's CWM/CDCM comparison is a two-criterion trade-off — communication
energy vs. execution time — that the legacy scalar objectives collapsed to a
single pre-weighted float.  With the vector-objective core
(:mod:`repro.core.metrics`, :class:`~repro.eval.context.EvaluationContext`
memoising component vectors) the trade-off becomes first-class, and this
module turns priced candidate sets into energy/time fronts:

* :func:`non_dominated` — filter a point set down to its Pareto front;
* :func:`pareto_front` — price a candidate set **once** through
  ``evaluate_metrics_batch`` and filter it (the exhaustive front of the set);
* :func:`weight_sweep_front` — sweep K scalarisation weight vectors over
  the same single pricing pass: each weight vector selects its argmin
  candidate off the memoised vectors, so the sweep costs K·O(n) dot
  products, **not** K pricing passes (the acceptance property pinned by
  ``tests/test_pareto.py``);
* :func:`front_to_rows` — export a front as plain dict rows for figures,
  CSV/JSON writers and the markdown report helpers;
* :func:`hypervolume` — the dominated-hypervolume indicator (area for two
  keys, recursive objective slicing for three or more), the standard
  quality measure for comparing fronts from different engines
  (e.g. :func:`weight_sweep_front` vs. an
  :class:`~repro.search.nsga2.NSGA2Search` result's ``front``).

Any vector-capable pricing source works: an
:class:`~repro.eval.context.EvaluationContext`, a
:class:`~repro.core.objective.CountingObjective` built by
:func:`~repro.core.objective.cwm_objective` /
:func:`~repro.core.objective.cdcm_objective`, or a
:class:`~repro.core.objective.ScalarisedObjective` view.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dominance import key_matrix, non_dominated_mask
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.utils.errors import ConfigurationError

#: The paper's trade-off: CDCM total energy vs. execution time.
DEFAULT_FRONT_KEYS: Tuple[str, ...] = ("energy", "time")


@dataclass(frozen=True)
class ParetoPoint:
    """One priced candidate of a front.

    Attributes
    ----------
    mapping:
        The candidate core-to-tile assignment.
    metrics:
        Its named component vector (one pricing pass, shared memo).
    weights:
        The scalarisation weight vector that selected this point, when it
        came out of a weight sweep; ``None`` for plain priced/filtered
        points.
    """

    mapping: Mapping
    metrics: MetricVector
    weights: Optional[Dict[str, float]] = None

    def value(self, name: str) -> float:
        """One metric component of this point, by name."""
        return self.metrics[name]


@dataclass(frozen=True)
class WeightSweepResult:
    """Outcome of :func:`weight_sweep_front`.

    Attributes
    ----------
    points:
        Every candidate, priced (input order preserved).
    selections:
        The per-weight-vector winners, in sweep order, each carrying the
        weight dict that selected it (duplicated winners appear once per
        weight vector that picked them).
    front:
        The non-dominated subset of the distinct winners, sorted by the
        first front key.
    """

    points: List[ParetoPoint]
    selections: List[ParetoPoint]
    front: List[ParetoPoint]


def dominates(
    a: MetricVector, b: MetricVector, keys: Sequence[str] = DEFAULT_FRONT_KEYS
) -> bool:
    """True when *a* Pareto-dominates *b* over *keys* (all minimised)."""
    return a.dominates(b, keys)


def non_dominated(
    points: Sequence[ParetoPoint], keys: Sequence[str] = DEFAULT_FRONT_KEYS
) -> List[ParetoPoint]:
    """Filter a point set down to its Pareto front.

    A point survives when no other point strictly dominates it; among points
    with *identical* key values only the first (in input order) is kept, so
    the front never carries duplicates of one trade-off position.  The
    dominance tests run on the array kernel of :mod:`repro.core.dominance`.

    Parameters
    ----------
    points:
        Priced candidates.
    keys:
        Metric names the dominance check ranges over.

    Returns
    -------
    list of ParetoPoint
        The front, sorted ascending by the first key (ties by the
        remaining keys).

    Raises
    ------
    ConfigurationError
        When *keys* is empty, or a key component is NaN.
    """
    keys = tuple(keys)
    if not keys:
        raise ConfigurationError("non_dominated requires at least one key")
    matrix = key_matrix([point.metrics for point in points], keys)
    positions = matrix.tolist()
    survivors = np.flatnonzero(non_dominated_mask(matrix)).tolist()
    survivors.sort(key=positions.__getitem__)
    return [points[index] for index in survivors]


def metric_points(
    objective: Any,
    candidates: Sequence[Mapping],
    backend: Any = None,
) -> List[ParetoPoint]:
    """Price a candidate set in one ``evaluate_metrics_batch`` pass.

    Parameters
    ----------
    objective:
        Any vector-capable pricing source (context, counting objective,
        scalarised view).
    candidates:
        Mappings to price; duplicates hit the shared memo.
    backend:
        Optional :class:`~repro.eval.parallel.BatchBackend` for the misses.

    Returns
    -------
    list of ParetoPoint
        One point per candidate, in input order.
    """
    source = _vector_source(objective)
    vectors = source.evaluate_metrics_batch(candidates, backend=backend)
    return [
        ParetoPoint(mapping=mapping, metrics=vector)
        for mapping, vector in zip(candidates, vectors)
    ]


def pareto_front(
    objective: Any,
    candidates: Sequence[Mapping],
    keys: Sequence[str] = DEFAULT_FRONT_KEYS,
    backend: Any = None,
) -> List[ParetoPoint]:
    """The non-dominated front of a candidate set, priced in one pass.

    This is the *exhaustive* front of the set: every candidate is priced
    (memo-deduplicated) and filtered with :func:`non_dominated`.  Weight
    sweeps (:func:`weight_sweep_front`) can only ever find a subset of this
    front — the supported points.
    """
    return non_dominated(metric_points(objective, candidates, backend=backend), keys)


def weight_grid(
    count: int, keys: Sequence[str] = DEFAULT_FRONT_KEYS
) -> List[Dict[str, float]]:
    """*count* convex weight combinations between two metric keys.

    The grid spans the closed interval — the first entry weights only
    ``keys[0]``, the last only ``keys[1]`` — so single-metric optima anchor
    the sweep's ends.

    Parameters
    ----------
    count:
        Number of weight vectors (at least 2).
    keys:
        Exactly two metric names.

    Returns
    -------
    list of dict
        ``[{keys[0]: 1 - t, keys[1]: t} for t in linspace(0, 1, count)]``.
    """
    keys = tuple(keys)
    if len(keys) != 2:
        raise ConfigurationError(
            f"weight_grid spans exactly two metric keys, got {keys!r}"
        )
    if count < 2:
        raise ConfigurationError(f"count must be at least 2, got {count}")
    grid: List[Dict[str, float]] = []
    for index in range(count):
        t = index / (count - 1)
        grid.append({keys[0]: 1.0 - t, keys[1]: t})
    return grid


def weight_sweep_front(
    objective: Any,
    candidates: Sequence[Mapping],
    weights: Any = 16,
    keys: Sequence[str] = DEFAULT_FRONT_KEYS,
    normalise: bool = True,
    backend: Any = None,
) -> WeightSweepResult:
    """Sweep scalarisation weight vectors over one pricing pass.

    All candidates are priced (or recalled from the shared memo) exactly
    once; every weight vector then selects its argmin candidate by a cheap
    dot product over the memoised component vectors.  Sweeping 16 weight
    vectors therefore performs **at most one full pricing pass per unique
    candidate** — the memoisation property the vector-objective redesign
    exists for.

    Parameters
    ----------
    objective:
        Any vector-capable pricing source (context, counting objective,
        scalarised view).
    candidates:
        Mappings to sweep over (e.g. a GA population, a random sample, or
        the full enumeration on small NoCs).
    weights:
        Either an integer (build that many convex combinations over *keys*
        with :func:`weight_grid`) or an explicit sequence of weight dicts.
    keys:
        Metric names of the trade-off (default energy vs. time).
    normalise:
        Rescale each key to ``[0, 1]`` over the candidate set before
        scalarising, so weights express *relative preference* instead of
        depending on the pJ-vs-ns magnitude gap.  Selection only — the
        reported metric values stay raw.
    backend:
        Optional :class:`~repro.eval.parallel.BatchBackend` for the pricing
        misses.

    Returns
    -------
    WeightSweepResult
        Priced points, per-weight selections, and the non-dominated front
        of the distinct selections.
    """
    keys = tuple(keys)
    if isinstance(weights, int):
        weights = weight_grid(weights, keys)
    weight_list = [dict(vector) for vector in weights]
    # Validate the sweep spec before the (potentially expensive) pricing
    # pass, so a typo'd weight name cannot waste minutes of CDCM replays.
    for weight in weight_list:
        unknown = [key for key in weight if key not in keys]
        if unknown:
            raise ConfigurationError(
                f"sweep weights name metrics {unknown!r} outside the front "
                f"keys {keys!r}"
            )
    points = metric_points(objective, candidates, backend=backend)
    if not points:
        return WeightSweepResult(points=[], selections=[], front=[])

    # Per-key affine rescaling for selection (raw values when disabled or
    # degenerate).
    scales: Dict[str, Tuple[float, float]] = {}
    for key in keys:
        values = [point.metrics[key] for point in points]
        low, high = min(values), max(values)
        span = high - low
        if normalise and span > 0.0:
            scales[key] = (low, span)
        else:
            scales[key] = (0.0, 1.0)

    def score(point: ParetoPoint, weight: Dict[str, float]) -> float:
        total = 0.0
        for key, factor in weight.items():
            if factor == 0.0:
                continue
            low, span = scales[key]
            total += factor * ((point.metrics[key] - low) / span)
        return total

    selections: List[ParetoPoint] = []
    for weight in weight_list:
        winner = min(
            range(len(points)), key=lambda index: (score(points[index], weight), index)
        )
        selections.append(replace(points[winner], weights=dict(weight)))

    distinct: List[ParetoPoint] = []
    seen_mappings: set = set()
    for selection in selections:
        if selection.mapping in seen_mappings:
            continue
        seen_mappings.add(selection.mapping)
        distinct.append(selection)
    return WeightSweepResult(
        points=points,
        selections=selections,
        front=non_dominated(distinct, keys),
    )


def hypervolume(
    points: Sequence[ParetoPoint],
    reference: Any = None,
    keys: Sequence[str] = DEFAULT_FRONT_KEYS,
) -> float:
    """Dominated hypervolume of a front w.r.t. a reference point.

    The standard front-quality indicator: the measure of the region weakly
    dominated by the front and bounded by *reference* (larger is better).
    Two keys give the classic dominated *area*; three or more keys recurse
    by slicing along the first key (each slab's width times the dominated
    hypervolume of the prefix projected onto the remaining keys), bottoming
    out at the two-key sweep — so many-objective fronts (e.g. NSGA-II over
    energy/time/link-load) score with the same call.

    Comparing two fronts is only meaningful **under the same reference** —
    pass one explicitly (e.g. the componentwise maximum over the union of
    both fronts) when comparing engines.

    Parameters
    ----------
    points:
        Priced candidates; dominated points are filtered out first, so any
        point set is accepted, not just a clean front.
    reference:
        The bounding point, as a ``{key: value}`` mapping or a sequence
        aligned with *keys*.  ``None`` uses the componentwise maximum over
        *points* (which prices the boundary points' own contribution at
        zero — fine for a single front, wrong for cross-front comparison
        unless both share it).
    keys:
        At least two metric names (all minimised).

    Returns
    -------
    float
        The dominated hypervolume; 0.0 for an empty point set.
    """
    keys = tuple(keys)
    if len(keys) < 2:
        raise ConfigurationError(
            f"hypervolume needs at least two metric keys, got {keys!r}"
        )
    if not points:
        return 0.0
    front = non_dominated(points, keys)
    if reference is None:
        reference = {
            key: max(point.metrics[key] for point in points) for key in keys
        }
    if isinstance(reference, dict):
        try:
            bounds = tuple(float(reference[key]) for key in keys)
        except KeyError as exc:
            raise ConfigurationError(
                f"reference is missing a bound for key {exc.args[0]!r} "
                f"(keys requested: {keys!r})"
            ) from exc
    else:
        bounds = tuple(float(value) for value in reference)
        if len(bounds) != len(keys):
            raise ConfigurationError(
                f"reference has {len(bounds)} components but {len(keys)} "
                f"keys were requested"
            )
    values = [tuple(point.metrics[key] for key in keys) for point in front]
    return _sliced_hypervolume(values, bounds)


def _sliced_hypervolume(
    values: List[Tuple[float, ...]], bounds: Tuple[float, ...]
) -> float:
    """Recursive objective-slicing hypervolume over raw value tuples.

    Slices along the first coordinate: between two consecutive distinct
    first-coordinate values, exactly the points at or left of the slab
    dominate, so the slab contributes its width times the hypervolume of
    that prefix projected onto the remaining coordinates.  The two-key base
    case is the same ascending sweep as the public function's area loop.
    """
    if len(bounds) == 2:
        bound_x, bound_y = bounds
        total = 0.0
        ceiling = bound_y
        for x, y in sorted(set(values)):
            if x >= bound_x or y >= ceiling:
                continue
            total += (bound_x - x) * (ceiling - y)
            ceiling = y
        return total
    ordered = sorted(set(values))
    total = 0.0
    for index, value in enumerate(ordered):
        x = value[0]
        if x >= bounds[0]:
            break
        next_x = ordered[index + 1][0] if index + 1 < len(ordered) else bounds[0]
        width = min(next_x, bounds[0]) - x
        if width <= 0.0:
            continue
        prefix = [other[1:] for other in ordered[: index + 1]]
        total += width * _sliced_hypervolume(prefix, bounds[1:])
    return total


def front_to_rows(
    points: Sequence[ParetoPoint], keys: Optional[Sequence[str]] = None
) -> List[Dict[str, Any]]:
    """Export front points as plain dict rows (figures, CSV/JSON writers).

    Parameters
    ----------
    points:
        Front (or any point list) to export.
    keys:
        Metric names to include; defaults to each point's full component
        set.

    Returns
    -------
    list of dict
        One row per point: the mapping assignments, the selected metric
        values, and the selecting weight vector when present.
    """
    rows: List[Dict[str, Any]] = []
    for point in points:
        names = tuple(keys) if keys is not None else point.metrics.names
        row: Dict[str, Any] = {
            "mapping": dict(sorted(point.mapping.assignments().items())),
        }
        for name in names:
            row[name] = point.metrics[name]
        if point.weights is not None:
            row["weights"] = dict(point.weights)
        rows.append(row)
    return rows


def _vector_source(objective: Any):
    """Resolve the vector-pricing source behind an objective-ish argument."""
    from repro.core.objective import resolve_vector_source

    return resolve_vector_source(objective)


__all__ = [
    "DEFAULT_FRONT_KEYS",
    "ParetoPoint",
    "WeightSweepResult",
    "dominates",
    "non_dominated",
    "metric_points",
    "pareto_front",
    "weight_grid",
    "weight_sweep_front",
    "front_to_rows",
    "hypervolume",
]
