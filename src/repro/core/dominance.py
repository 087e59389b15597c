"""Array Pareto-dominance kernel shared by every front builder.

Both front builders of the library ask one question of every ordered pair of
candidates — does *i* Pareto-dominate *j*? — the fast non-dominated sort the
NSGA engines rank populations with
(:func:`repro.search.nsga2.fast_non_dominated_sort`) and the front filter
:func:`repro.analysis.pareto.non_dominated`.  Asking it pair by pair through
:meth:`~repro.core.metrics.MetricVector.dominates` costs a Python call and a
name lookup per key per pair; this module asks it once per key for all pairs:

* :func:`key_matrix` — the ``(n, k)`` float64 matrix of the dominance keys,
  with NaN rejected (taken from metric vectors, or checked as given when the
  caller already holds the key columns as an array);
* :func:`pareto_fronts` — Deb et al. (2002)'s fronts, in the order Deb's
  counting loop releases them;
* :func:`non_dominated_mask` — the rows no other row dominates, first
  occurrence of each position only.

Dominance is ``~any(a > b) & any(a < b)``, built key by key into two
``(n, n)`` boolean matrices (never an ``(n, n, k)`` tensor).  Comparisons are
IEEE, exactly like the scalar test: ``-0.0 == 0.0``, and ±inf orders like any
other value.  NaN compares neither greater nor less, so dominance among NaN
rows can cycle and Deb's counts never reach zero — the scalar sort used to
drop such rows silently.  :func:`key_matrix` raises instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.metrics import MetricVector
from repro.utils.errors import ConfigurationError


def key_matrix(
    vectors: Union[Sequence[MetricVector], np.ndarray], keys: Sequence[str]
) -> np.ndarray:
    """The ``(len(vectors), len(keys))`` float64 matrix of *keys* over *vectors*.

    *vectors* is a sequence of metric vectors, or the key matrix itself: an
    ``(n, len(keys))`` array whose columns are *keys* in order, which is
    checked and returned as float64.

    Raises
    ------
    ConfigurationError
        When a component is NaN, naming the first vector (by index) that
        holds one and its first NaN key, or when a key matrix does not have
        one column per key.
    """
    keys = tuple(keys)
    if isinstance(vectors, np.ndarray):
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(keys):
            raise ConfigurationError(
                f"expected an (n, {len(keys)}) key matrix for keys {keys}, got "
                f"shape {vectors.shape}"
            )
    else:
        matrix = np.array(
            [[vector[key] for key in keys] for vector in vectors], dtype=np.float64
        ).reshape(len(vectors), len(keys))
    nan = np.isnan(matrix)
    if nan.any():
        row, column = np.argwhere(nan)[0]
        raise ConfigurationError(
            f"metric vector {row} has a NaN {keys[column]!r} component; Pareto "
            f"dominance is undefined for NaN"
        )
    return matrix


def _compare(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(better, worse)``: row *i* is below / above row *j* on some key."""
    n = matrix.shape[0]
    better = np.zeros((n, n), dtype=bool)
    worse = np.zeros((n, n), dtype=bool)
    for column in matrix.T:
        better |= column[:, None] < column[None, :]
        worse |= column[:, None] > column[None, :]
    return better, worse


def pareto_fronts(matrix: np.ndarray, stop: Optional[int] = None) -> List[List[int]]:
    """Deb's fast non-dominated sort over the rows of *matrix* (all minimised).

    Front 0 lists the non-dominated rows in ascending order.  A later front
    lists the rows whose last dominator lies in the front before it, ordered
    by that dominator's position there, then by row index — the order in
    which Deb's loop, walking the previous front and each member's ascending
    dominated list, drives their counts to zero.

    With a positive *stop*, the sort ends as soon as the fronts found hold
    at least *stop* rows.  Deb's loop releases the fronts in order, so those
    are exactly the first fronts of the full sort.

    Raises
    ------
    ConfigurationError
        When *stop* is given and below 1.
    """
    if stop is not None and stop < 1:
        raise ConfigurationError(f"stop must be a positive row count, got {stop}")
    limit = matrix.shape[0] if stop is None else stop
    better, worse = _compare(matrix)
    dominates = better & ~worse
    remaining = dominates.sum(axis=0)
    ranked = np.zeros(matrix.shape[0], dtype=bool)
    fronts: List[List[int]] = []
    found = 0
    front = np.flatnonzero(remaining == 0)
    while front.size:
        fronts.append(front.tolist())
        found += front.size
        if found >= limit:
            break
        ranked[front] = True
        rows = dominates[front]
        remaining -= rows.sum(axis=0)
        released = np.flatnonzero((remaining == 0) & ~ranked)
        last = len(front) - 1 - np.argmax(rows[::-1, released], axis=0)
        front = released[np.argsort(last, kind="stable")]
    return fronts


def non_dominated_mask(matrix: np.ndarray) -> np.ndarray:
    """Rows no other row dominates, dropping rows equal to an earlier row."""
    better, worse = _compare(matrix)
    dominated = (better & ~worse).any(axis=0)
    repeated = np.triu(~(better | worse), k=1).any(axis=0)
    return ~(dominated | repeated)


__all__ = ["key_matrix", "pareto_fronts", "non_dominated_mask"]
