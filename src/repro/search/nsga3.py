"""NSGA-III reference-point search — many-objective selection over mappings.

NSGA-II's crowding distance degrades past two or three objectives: in high
dimensions almost every point is a boundary point of *some* key, so crowding
stops discriminating and the population drifts to the extremes.  NSGA-III
(Deb & Jain 2014) replaces crowding with a structured set of **reference
points** on the unit simplex (Das–Dennis lattice): population members are
associated with their nearest reference direction and environmental selection
fills under-represented directions first — diversity pressure that scales to
the many-objective fronts the routing×mapping co-design subsystem optimises
(energy × time × link congestion, see :mod:`repro.codesign`).

The engine is a drop-in sibling of :class:`~repro.search.nsga2.NSGA2Search`
and runs the same :class:`~repro.search.nsga2.PopulationSearch` loop:
same :class:`~repro.core.objective.VectorObjective` protocol, same GA
variation operators, same ``evaluate_metrics_batch`` pricing seam (so
:class:`~repro.eval.parallel.BatchBackend` parallelism applies and seeded
runs are bit-identical across serial and pooled pricing), and the same
:class:`~repro.search.base.SearchResult` contract with the final
non-dominated set in ``front``.  Every selection decision — association,
niching, tie-breaks — is deterministic (ties break by smallest index), which
is what keeps the serial==pooled pin of the PR 4 determinism matrix intact.

Differences from the canonical formulation, chosen for determinism and
robustness on small populations:

* normalisation uses the per-key min (ideal) and max (nadir estimate) over
  the selection pool instead of the extreme-point hyperplane construction
  (which is ill-conditioned on degenerate fronts);
* the niching step picks the lowest-index candidate of a represented niche
  instead of a random one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import MetricVector
from repro.search.nsga2 import Nsga2Parameters, PopulationSearch
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True, kw_only=True)
class Nsga3Parameters(Nsga2Parameters):
    """Knobs of :class:`NSGA3Search`: NSGA-II's knobs plus the lattice.

    Extends :class:`~repro.search.nsga2.Nsga2Parameters`, whose fields come
    first and keep their meaning.  Every field is keyword-only.

    Attributes
    ----------
    divisions:
        Das–Dennis divisions per objective axis for the reference-point
        lattice.  ``None`` (the default) picks the smallest division count
        whose lattice has at least ``population_size`` points, so every
        individual can occupy its own niche.
    """

    divisions: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.divisions is not None and self.divisions < 1:
            raise ConfigurationError(
                f"divisions must be positive, got {self.divisions}"
            )


def das_dennis_reference_points(
    num_objectives: int, divisions: int
) -> Tuple[Tuple[float, ...], ...]:
    """The Das–Dennis simplex lattice: uniformly spaced reference points.

    Every point is a composition ``(h_1, ..., h_M)`` of *divisions* into
    *num_objectives* non-negative parts, scaled by ``1/divisions`` — the
    structured weight lattice NSGA-III associates population members with.

    Parameters
    ----------
    num_objectives:
        Dimensionality ``M`` of the objective space (at least 1).
    divisions:
        Divisions ``H`` per axis (at least 1); the lattice has
        ``C(H + M - 1, M - 1)`` points.

    Returns
    -------
    tuple of tuple of float
        The lattice in deterministic lexicographic order (first coordinate
        descending), each point summing to 1.0.
    """
    if num_objectives < 1:
        raise ConfigurationError(
            f"num_objectives must be positive, got {num_objectives}"
        )
    if divisions < 1:
        raise ConfigurationError(f"divisions must be positive, got {divisions}")
    points: List[Tuple[float, ...]] = []

    def build(prefix: List[int], remaining: int, axes_left: int) -> None:
        if axes_left == 1:
            points.append(
                tuple((count / divisions) for count in prefix + [remaining])
            )
            return
        for count in range(remaining, -1, -1):
            build(prefix + [count], remaining - count, axes_left - 1)

    build([], divisions, num_objectives)
    return tuple(points)


def default_divisions(num_objectives: int, population_size: int) -> int:
    """Smallest division count whose lattice holds ``population_size`` points."""
    divisions = 1
    while (
        len(das_dennis_reference_points(num_objectives, divisions))
        < population_size
    ):
        divisions += 1
    return divisions


def _normalise(
    pool: Sequence[int],
    vectors: Sequence[MetricVector],
    keys: Sequence[str],
) -> Dict[int, Tuple[float, ...]]:
    """Min/max normalisation of the pool's vectors onto ``[0, 1]`` per key.

    The ideal point is the per-key minimum over the pool, the nadir estimate
    the per-key maximum; degenerate keys — zero span, or a span that is not
    finite because a component is ±inf — normalise to 0.0 so they stop
    influencing the association geometry and no coordinate is NaN.
    """
    ideal = [math.inf] * len(keys)
    nadir = [-math.inf] * len(keys)
    for index in pool:
        vector = vectors[index]
        for axis, key in enumerate(keys):
            value = vector[key]
            if value < ideal[axis]:
                ideal[axis] = value
            if value > nadir[axis]:
                nadir[axis] = value
    spans = [
        (high - low) if 0.0 < (high - low) < math.inf else 0.0
        for low, high in zip(ideal, nadir)
    ]
    normalised: Dict[int, Tuple[float, ...]] = {}
    for index in pool:
        vector = vectors[index]
        normalised[index] = tuple(
            ((vector[key] - ideal[axis]) / spans[axis]) if spans[axis] else 0.0
            for axis, key in enumerate(keys)
        )
    return normalised


def associate_to_references(
    normalised: Dict[int, Tuple[float, ...]],
    references: Sequence[Tuple[float, ...]],
) -> Dict[int, Tuple[int, float]]:
    """Associate each normalised point with its nearest reference direction.

    Distance is the perpendicular distance from the point to the line through
    the origin along the reference direction — the NSGA-III association rule.
    Ties break by the smaller reference index, keeping runs deterministic.

    Returns
    -------
    dict
        ``{pool index: (reference index, perpendicular distance)}``.
    """
    directions: List[Tuple[Tuple[float, ...], float]] = []
    for reference in references:
        norm = math.sqrt(sum(w * w for w in reference))
        directions.append((reference, norm if norm > 0.0 else 1.0))
    association: Dict[int, Tuple[int, float]] = {}
    for index, point in normalised.items():
        best_ref = 0
        best_distance = math.inf
        squared = sum(f * f for f in point)
        for ref_index, (reference, norm) in enumerate(directions):
            projection = (
                sum(f * w for f, w in zip(point, reference)) / norm
            )
            distance_sq = squared - projection * projection
            distance = math.sqrt(distance_sq) if distance_sq > 0.0 else 0.0
            if distance < best_distance:
                best_distance = distance
                best_ref = ref_index
        association[index] = (best_ref, best_distance)
    return association


def niche_select(
    accepted: Sequence[int],
    spill: Sequence[int],
    vectors: Sequence[MetricVector],
    keys: Sequence[str],
    references: Sequence[Tuple[float, ...]],
    slots: int,
) -> List[int]:
    """NSGA-III niching: fill *slots* from *spill* preferring empty niches.

    The selection pool (*accepted* plus *spill*) is normalised and associated
    with the reference lattice; niche counts start from the accepted members.
    Each round picks the least-crowded reference point (ties by index): an
    empty niche takes its closest spill candidate (perpendicular distance,
    ties by index), a represented niche its lowest-index candidate — the
    deterministic stand-in for the canonical random pick.

    Returns
    -------
    list of int
        The chosen spill indices, in selection order.
    """
    pool = list(accepted) + list(spill)
    normalised = _normalise(pool, vectors, keys)
    association = associate_to_references(normalised, references)
    counts = [0] * len(references)
    for index in accepted:
        counts[association[index][0]] += 1
    by_reference: Dict[int, List[int]] = {}
    for index in spill:
        by_reference.setdefault(association[index][0], []).append(index)
    live = set(by_reference)
    chosen: List[int] = []
    while len(chosen) < slots and live:
        reference = min(live, key=lambda ref: (counts[ref], ref))
        candidates = by_reference[reference]
        if counts[reference] == 0:
            pick = min(
                candidates, key=lambda index: (association[index][1], index)
            )
        else:
            pick = min(candidates)
        candidates.remove(pick)
        if not candidates:
            live.discard(reference)
        counts[reference] += 1
        chosen.append(pick)
    return chosen


class NSGA3Search(PopulationSearch):
    """Reference-point many-objective search (NSGA-III) over mappings.

    Parameters
    ----------
    parameters:
        Evolution knobs; defaults to :class:`Nsga3Parameters`.
    keys:
        Metric names the dominance relation and reference lattice range
        over.  ``None`` (the default) selects ``("energy", "time")`` when
        the objective prices both and falls back to the full component set
        otherwise — same rule as :class:`~repro.search.nsga2.NSGA2Search`.
        Many-objective co-design passes three or more keys explicitly, e.g.
        ``("energy", "time", "max_link_utilisation")``.
    backend:
        Optional explicit :class:`~repro.eval.parallel.BatchBackend` used
        for generation pricing (caller-owned).
    n_workers:
        Convenience override of ``parameters.n_workers`` (registry path:
        ``get_searcher("nsga3", n_workers=4)``).

    Notes
    -----
    The objective must be vector-capable, exactly like NSGA-II.  The
    returned :class:`~repro.search.base.SearchResult` carries the final
    non-dominated set in ``front``; ``best_mapping`` / ``best_cost`` report
    the incumbent under the objective's scalar weight view.

    Determinism: a seeded run returns the same population trajectory, front
    and incumbent regardless of ``n_workers`` — pricing is bit-identical
    across backends, the RNG consumption order is fixed, and every
    association/niching decision breaks ties by index.
    """

    name = "nsga3"
    parameters_type = Nsga3Parameters

    def _evolve(self, population, run, rng):
        # The lattice depends only on the key count: built once per run.
        params = self.parameters
        divisions = params.divisions or default_divisions(
            len(run.keys), params.population_size
        )
        run.references = das_dennis_reference_points(len(run.keys), divisions)
        return super()._evolve(population, run, rng)

    def _tiebreak(self, fronts, vectors, run):
        """Niched tie-break: the emptier niche, then the nearer its reference."""
        normalised = _normalise(range(len(vectors)), vectors, run.keys)
        association = associate_to_references(normalised, run.references)
        counts = Counter(reference for reference, _ in association.values())
        return [(counts[ref], distance) for ref, distance in association.values()]

    def _truncate(self, accepted, front, vectors, slots, run):
        """Reference-point niching of the spilling *front* (:func:`niche_select`)."""
        return niche_select(
            accepted, front, vectors, run.keys, run.references, slots
        )


__all__ = [
    "Nsga3Parameters",
    "NSGA3Search",
    "das_dennis_reference_points",
    "default_divisions",
    "associate_to_references",
    "niche_select",
]
