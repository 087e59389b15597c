"""Named metric vectors — the vector-valued core of the objective layer.

The paper's CWM/CDCM comparison is fundamentally a two-criterion trade-off
(communication energy vs. execution time), but a search engine only ever
consumes a scalar ``mapping -> cost``.  This module supplies the piece that
keeps both truths compatible:

* :class:`MetricVector` — an immutable vector of *named* objective components
  (energy terms, CDCM makespan), every component minimised.  Evaluators
  produce one vector per mapping; the evaluation engine memoises vectors, not
  scalars, so any number of scalarisations can be derived from one pricing
  pass.
* :func:`MetricVector.weighted_sum` — the scalarisation: a weight vector
  applied over the components, accumulated in component order so legacy
  single-metric objectives stay bit-identical (``1.0 * E == E`` exactly);
  :func:`weighted_columns` is its twin over a ``(pop, k)`` array of vectors.
* :func:`scalarisation_weights` — translates the legacy CDCM ``metric`` /
  ``energy_weight`` / ``time_weight`` knobs into an equivalent weight dict,
  the single place that mapping lives (it used to be duplicated between the
  CWM and CDCM objective factories and the CDCM evaluator).
* :func:`validate_weights` — the shared weight-vector sanity check used by
  every scalarisation view.

Component name tuples for the two models are exported as
:data:`CWM_METRIC_NAMES` and :data:`CDCM_METRIC_NAMES`; Pareto tooling
(:mod:`repro.analysis.pareto`) keys fronts on subsets of these names
(typically ``("energy", "time")``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping as MappingType, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.errors import ConfigurationError

#: Component names of a CWM evaluation — the model knows dynamic energy only.
CWM_METRIC_NAMES: Tuple[str, ...] = ("dynamic_energy",)

#: Component names of a CDCM evaluation, in scalarisation-accumulation order:
#: ``energy`` is ``ENoC`` (equation 10), ``time`` is ``texec``, the two
#: energy terms break the total down (``energy == dynamic_energy +
#: static_energy``), and ``max_link_utilisation`` is the busiest link's busy
#: fraction of the replay (the congestion component the co-design engines
#: optimise).  New components are appended at the end: ``weighted_sum`` skips
#: zero-weight components and :func:`scalarisation_weights` never names the
#: congestion term, so every legacy weight view stays bit-identical.
CDCM_METRIC_NAMES: Tuple[str, ...] = (
    "energy",
    "time",
    "dynamic_energy",
    "static_energy",
    "max_link_utilisation",
)

#: Legacy CDCM metric specifications accepted by :func:`scalarisation_weights`.
_CDCM_METRIC_SPECS = ("energy", "time", "weighted")


class MetricVector:
    """An immutable vector of named objective components (lower is better).

    Parameters
    ----------
    names:
        Component names, unique, in a stable order — the order scalarisation
        accumulates in (which is what keeps derived scalars bit-identical to
        the legacy single-expression objectives).
    values:
        One float per name.

    Notes
    -----
    Instances behave like a lightweight read-only mapping: ``vector["time"]``,
    ``"time" in vector``, ``len(vector)``, iteration over names,
    :meth:`items` and :meth:`as_dict`.  They are hashable and compare by
    (names, values), so they can key memos and be asserted bit-identical in
    tests.
    """

    __slots__ = ("_names", "_values")

    def __init__(self, names: Iterable[str], values: Iterable[float]) -> None:
        names = tuple(names)
        values = tuple(float(value) for value in values)
        if len(names) != len(values):
            raise ConfigurationError(
                f"metric vector has {len(names)} names but {len(values)} values"
            )
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate metric names in {names!r}")
        self._names = names
        self._values = values

    @classmethod
    def _from_trusted(
        cls, names: Tuple[str, ...], values: Tuple[float, ...]
    ) -> "MetricVector":
        """Build a vector from an already-validated names tuple and float tuple.

        Internal fast path for memo hits, whose values were validated when
        they were priced.
        """
        vector = object.__new__(cls)
        vector._names = names
        vector._values = values
        return vector

    @classmethod
    def from_dict(cls, components: MappingType[str, float]) -> "MetricVector":
        """Build a vector from a ``{name: value}`` mapping (insertion order kept)."""
        return cls(tuple(components), tuple(components.values()))

    # ------------------------------------------------------------------
    # Read-only mapping behaviour
    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Component names, in accumulation order."""
        return self._names

    @property
    def values(self) -> Tuple[float, ...]:
        """Component values, aligned with :attr:`names`."""
        return self._values

    def __getitem__(self, key: Union[str, int]) -> float:
        if isinstance(key, int):
            return self._values[key]
        try:
            return self._values[self._names.index(key)]
        except ValueError:
            raise KeyError(
                f"no metric named {key!r}; components are {self._names}"
            ) from None

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """Component value by name, or *default* when absent."""
        try:
            return self._values[self._names.index(name)]
        except ValueError:
            return default

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(name, value)`` pairs in accumulation order."""
        return iter(zip(self._names, self._values))

    def as_dict(self) -> Dict[str, float]:
        """The vector as a plain ``{name: value}`` dict (accumulation order)."""
        return dict(zip(self._names, self._values))

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricVector):
            return NotImplemented
        return self._names == other._names and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._names, self._values))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value:g}" for name, value in self.items())
        return f"MetricVector({body})"

    # ------------------------------------------------------------------
    # Scalarisation and dominance
    # ------------------------------------------------------------------
    def weighted_sum(
        self, weights: MappingType[str, float], strict: bool = True
    ) -> float:
        """Scalarise the vector with a weight dict (missing weights are 0).

        Zero-weight components are skipped and the remaining terms are
        accumulated in component order starting from the first non-zero term,
        so a unit weight on one component returns exactly that component
        (``1.0 * v == v`` in IEEE arithmetic) and a two-term scalarisation
        reproduces ``w_a * a + w_b * b`` bit-for-bit — the property the
        legacy-objective compatibility shims rely on.

        Parameters
        ----------
        weights:
            ``{name: weight}``; names not in the vector contribute nothing.
        strict:
            When True (the default), weights naming components the vector
            does not have raise :class:`~repro.utils.errors.ConfigurationError`
            instead of being ignored silently.

        Returns
        -------
        float
            The weighted combination; 0.0 when every weight is zero.
        """
        if strict:
            unknown = [name for name in weights if name not in self._names]
            if unknown:
                raise ConfigurationError(
                    f"weights name unknown metrics {unknown!r}; "
                    f"components are {self._names}"
                )
        total: Optional[float] = None
        for name, value in zip(self._names, self._values):
            weight = weights.get(name, 0.0)
            if weight == 0.0:
                continue
            term = weight * value
            total = term if total is None else total + term
        return 0.0 if total is None else total

    def dominates(
        self, other: "MetricVector", keys: Optional[Sequence[str]] = None
    ) -> bool:
        """Pareto dominance: no worse on every key, strictly better on one.

        Parameters
        ----------
        other:
            The vector compared against.
        keys:
            Component names the dominance check ranges over; defaults to this
            vector's full component set.  Every key must exist in both
            vectors.

        Returns
        -------
        bool
            True when this vector weakly improves every key and strictly
            improves at least one (all metrics are minimised).
        """
        names = tuple(keys) if keys is not None else self._names
        strictly_better = False
        for name in names:
            mine = self[name]
            theirs = other[name]
            if mine > theirs:
                return False
            if mine < theirs:
                strictly_better = True
        return strictly_better


def weighted_columns(
    values: np.ndarray,
    names: Sequence[str],
    weights: MappingType[str, float],
) -> np.ndarray:
    """:meth:`MetricVector.weighted_sum` of every row of a ``(pop, k)`` array.

    Column *c* of *values* holds component ``names[c]``.  Terms are skipped
    and accumulated exactly as the per-vector method does (non-strict), one
    elementwise IEEE operation per term, so each entry is bit-identical to
    ``MetricVector(names, row).weighted_sum(weights, strict=False)``.

    Returns
    -------
    numpy.ndarray
        ``(pop,)`` float64 costs; zeros when every weight is zero.
    """
    total = None
    for column, name in enumerate(names):
        weight = weights.get(name, 0.0)
        if weight == 0.0:
            continue
        term = weight * values[:, column]
        total = term if total is None else total + term
    if total is None:
        return np.zeros(len(values), dtype=np.float64)
    return total


def validate_weights(
    weights: MappingType[str, float], metric_names: Sequence[str]
) -> Dict[str, float]:
    """Sanity-check a scalarisation weight dict against a component set.

    Parameters
    ----------
    weights:
        ``{name: weight}`` candidate weight vector.
    metric_names:
        The component names of the objective being scalarised.

    Returns
    -------
    dict
        A plain ``{name: float}`` copy of *weights*.

    Raises
    ------
    ConfigurationError
        When *weights* is empty, names an unknown component, carries a
        non-finite weight, or is all-zero (a constant objective is always a
        configuration mistake).
    """
    resolved = {str(name): float(value) for name, value in dict(weights).items()}
    if not resolved:
        raise ConfigurationError("scalarisation weights must not be empty")
    known = tuple(metric_names)
    unknown = [name for name in resolved if name not in known]
    if unknown:
        raise ConfigurationError(
            f"weights name unknown metrics {unknown!r}; components are {known}"
        )
    for name, value in resolved.items():
        if not math.isfinite(value):
            raise ConfigurationError(
                f"weight for metric {name!r} must be finite, got {value!r}"
            )
    if all(value == 0.0 for value in resolved.values()):
        raise ConfigurationError(
            "at least one scalarisation weight must be non-zero"
        )
    return resolved


def scalarisation_weights(
    metric: str,
    energy_weight: float = 1.0,
    time_weight: float = 0.0,
) -> Dict[str, float]:
    """Weight-dict equivalent of the legacy CDCM ``metric`` specification.

    This is the one place the old scalar knobs map onto the vector API —
    previously the translation logic was duplicated between the CDCM
    evaluator and the objective factories.

    Parameters
    ----------
    metric:
        ``"energy"`` (unit weight on ``ENoC``), ``"time"`` (unit weight on
        ``texec``) or ``"weighted"`` (the explicit two-term combination).
    energy_weight, time_weight:
        Term weights for the ``"weighted"`` metric; ignored otherwise.

    Returns
    -------
    dict
        Weights over :data:`CDCM_METRIC_NAMES` producing a scalar
        bit-identical to the legacy metric dispatch.
    """
    if metric == "energy":
        return {"energy": 1.0}
    if metric == "time":
        return {"time": 1.0}
    if metric == "weighted":
        return {"energy": float(energy_weight), "time": float(time_weight)}
    raise ConfigurationError(
        f"unknown CDCM metric {metric!r}; expected one of {_CDCM_METRIC_SPECS}"
    )


__all__ = [
    "CWM_METRIC_NAMES",
    "CDCM_METRIC_NAMES",
    "MetricVector",
    "weighted_columns",
    "validate_weights",
    "scalarisation_weights",
]
