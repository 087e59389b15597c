"""Simulated annealing mapping search.

This is the search method the paper's FRW framework uses for every NoC larger
than ~3x4: start from a random mapping, repeatedly propose a local move (swap
the contents of two tiles), accept the move when it improves the objective or,
with a temperature-dependent probability, when it worsens it, and keep the
best mapping ever seen.  The schedule (initial temperature, geometric cooling,
moves per temperature, stop condition) is configurable through
:class:`AnnealingSchedule`.

When the objective advertises incremental pricing (objectives built through
:mod:`repro.core.objective` do — see :mod:`repro.eval`), the engine prices
each proposed swap with ``objective.delta`` instead of re-evaluating the
whole mapping, and only materialises the candidate mapping when the move is
accepted.  For CWM that delta is exact and O(degree); for CDCM it is the
*bounded repair* of :mod:`repro.eval.repair` — a partial reschedule of only
the disturbed packets, exact at every resync point and drift-bounded in
between.  Acceptance decisions depend on the move's delta
alone, and the incumbent cost is re-synchronised against a full evaluation
whenever a new best is recorded, so the walk follows the full-re-evaluation
path's accepted-move trajectory up to floating-point tie-breaking (an
incremental sum rounds differently than the difference of two full sums, so
a cost-neutral swap can consume the RNG differently).  Pipelines that need
bit-stable reproduction of published rows pin ``use_delta=False`` — see
:class:`repro.analysis.comparison.ComparisonConfig`.

The engine also supports multi-restart annealing (``restarts=k``): k
independent walks from per-restart seed streams, best result kept.  Restarts
are embarrassingly parallel, so ``n_workers`` fans them out over a
:class:`~repro.eval.parallel.ProcessPoolBackend`; per-restart seeds are drawn
before any work is scheduled, making serial and pooled runs bit-identical.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.mapping import Mapping
from repro.search.base import (
    Objective,
    PoolOwnerMixin,
    SearchResult,
    Searcher,
    as_objective,
    check_noc_size,
    delta_callable,
    objective_metrics,
)
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomSource, ensure_rng, spawn_seeds


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule and stop conditions for :class:`SimulatedAnnealing`.

    Attributes
    ----------
    initial_temperature:
        Starting temperature, in objective units.  When ``None`` the engine
        calibrates it from a short random walk so that roughly 80 % of
        worsening moves are initially accepted — which removes the need to
        know the objective's scale (energy in pJ can span many orders of
        magnitude between applications).
    cooling_factor:
        Geometric cooling ratio applied after every temperature plateau
        (``0 < factor < 1``).
    moves_per_temperature:
        Number of proposed moves at each temperature.  When ``None`` it
        defaults to ``8 x n`` where ``n`` is the number of tiles, which keeps
        effort proportional to the NoC size as the paper's Table 2 sweep
        requires.
    min_temperature_ratio:
        The annealing stops when the temperature falls below
        ``initial_temperature x min_temperature_ratio``.
    max_evaluations:
        Hard cap on objective evaluations (safety bound for the CDCM
        objective, whose single evaluation cost grows with the packet count).
    stall_plateaus:
        Stop early after this many consecutive plateaus without any
        improvement of the incumbent.
    """

    initial_temperature: Optional[float] = None
    cooling_factor: float = 0.95
    moves_per_temperature: Optional[int] = None
    min_temperature_ratio: float = 1e-4
    max_evaluations: int = 100_000
    stall_plateaus: int = 25

    def __post_init__(self) -> None:
        if not 0.0 < self.cooling_factor < 1.0:
            raise ConfigurationError(
                f"cooling_factor must be in (0, 1), got {self.cooling_factor}"
            )
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise ConfigurationError(
                f"initial_temperature must be positive, got {self.initial_temperature}"
            )
        if self.moves_per_temperature is not None and self.moves_per_temperature <= 0:
            raise ConfigurationError(
                f"moves_per_temperature must be positive, "
                f"got {self.moves_per_temperature}"
            )
        if not 0.0 < self.min_temperature_ratio < 1.0:
            raise ConfigurationError(
                f"min_temperature_ratio must be in (0, 1), "
                f"got {self.min_temperature_ratio}"
            )
        if self.max_evaluations <= 0:
            raise ConfigurationError(
                f"max_evaluations must be positive, got {self.max_evaluations}"
            )
        if self.stall_plateaus <= 0:
            raise ConfigurationError(
                f"stall_plateaus must be positive, got {self.stall_plateaus}"
            )


#: A reduced-effort schedule used by the test-suite and the smoke benches.
FAST_SCHEDULE = AnnealingSchedule(
    cooling_factor=0.85,
    min_temperature_ratio=1e-2,
    max_evaluations=4_000,
    stall_plateaus=8,
)


def _run_restart_payload(
    schedule: AnnealingSchedule,
    use_delta: bool,
    payload: bytes,
    seed: int,
    fresh_initial: bool,
) -> SearchResult:
    """Pool-side restart unit: unpickle ``(objective, initial)`` and run.

    The driver pickles the objective **once** and ships the same bytes to
    every restart task (a CDCM objective carries the whole application
    graph; re-pickling it per restart would multiply that cost), so this
    wrapper exists purely to move the deserialisation into the worker.
    """
    objective, initial = pickle.loads(payload)
    return _run_restart(schedule, use_delta, objective, initial, seed, fresh_initial)


def _run_restart(
    schedule: AnnealingSchedule,
    use_delta: bool,
    objective: Objective,
    initial: Mapping,
    seed: int,
    fresh_initial: bool,
) -> SearchResult:
    """Run one independent annealing restart (the unit of restart fan-out).

    Module-level so it pickles: the multi-restart driver ships
    ``(schedule, objective, initial, seed)`` to pool workers through
    :meth:`~repro.eval.parallel.BatchBackend.map`, and runs the identical
    function inline when no pool is configured — which is what keeps serial
    and pooled restarts bit-identical.

    Parameters
    ----------
    schedule, use_delta:
        Engine configuration of the restart.
    objective:
        The objective to minimise (rebuilt in the worker via the context's
        light pickling when run remotely).
    initial:
        The caller's starting mapping.
    seed:
        Integer seed of this restart's private RNG stream.
    fresh_initial:
        When True, the restart starts from a random mapping drawn from its
        own stream instead of *initial* (all restarts but the first).

    Returns
    -------
    SearchResult
        The restart's search trace.
    """
    generator = ensure_rng(seed)
    start = initial
    if fresh_initial:
        num_tiles = initial.num_tiles
        assert num_tiles is not None  # checked by the driver
        start = Mapping.random(initial.cores, num_tiles, generator)
    engine = SimulatedAnnealing(schedule, use_delta=use_delta)
    return engine.search(objective, start, generator)


class SimulatedAnnealing(PoolOwnerMixin, Searcher):
    """Simulated-annealing search over tile-swap moves.

    Parameters
    ----------
    schedule:
        Cooling schedule; defaults to :class:`AnnealingSchedule`.
    use_delta:
        Consult ``objective.delta`` for move pricing when the objective
        supports it (see :func:`repro.search.base.delta_callable`); disable to
        force full re-evaluation of every candidate (the seed behaviour, kept
        for benchmarking the evaluation engine against its baseline).
    restarts:
        Independent annealing runs per :meth:`search` call; the best result
        over all restarts is returned.  The first restart starts from the
        caller's initial mapping, later ones from fresh random mappings drawn
        from per-restart seed streams.  1 (the default) reproduces the
        single-run behaviour exactly.
    n_workers:
        Fan the restarts out over a
        :class:`~repro.eval.parallel.ProcessPoolBackend` of this size
        (requires a picklable objective — the contexts of
        :mod:`repro.core.objective` are; a non-picklable objective silently
        falls back to serial restarts).  Results are bit-identical to serial
        restarts; note that with a pool the objective's evaluation counters
        only reflect main-process work, while ``SearchResult.evaluations``
        aggregates all restarts either way.
    backend:
        Optional explicit backend for the restart fan-out (overrides
        ``n_workers``); the caller owns it.
    """

    name = "annealing"

    #: Relative tolerance separating "may have improved the incumbent best"
    #: from accumulated floating-point drift of incrementally tracked costs.
    #: Erring small is safe: a spurious trigger only costs one full
    #: re-evaluation (which re-synchronises the incumbent and then decides
    #: exactly), while a guard wider than a true improvement would skip a
    #: best-update the full path records.
    _BEST_GUARD = 1e-12

    def __init__(
        self,
        schedule: AnnealingSchedule | None = None,
        use_delta: bool = True,
        restarts: int = 1,
        n_workers: Optional[int] = None,
        backend=None,
    ) -> None:
        if restarts < 1:
            raise ConfigurationError(f"restarts must be positive, got {restarts}")
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(f"n_workers must be positive, got {n_workers}")
        self.schedule = schedule or AnnealingSchedule()
        self.use_delta = use_delta
        self.restarts = restarts
        self.n_workers = n_workers
        self._backend = backend
        self._owned_backend = None

    # ------------------------------------------------------------------
    def _restart_backend(self):
        """The backend restart fan-out goes through (``None`` = serial)."""
        return self._resolve_backend(self.n_workers)

    # ------------------------------------------------------------------
    def search(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """Minimise *objective* by annealing (optionally multi-restart).

        Parameters
        ----------
        objective:
            ``mapping -> cost`` callable; delta-capable objectives are priced
            incrementally unless ``use_delta`` is False.
        initial:
            Starting mapping (must know the NoC size).
        rng:
            Seed or generator; with ``restarts > 1`` it only seeds the
            per-restart streams, so results are reproducible regardless of
            how the restarts are scheduled.

        Returns
        -------
        SearchResult
            The single run's trace, or the aggregate of all restarts (best
            mapping overall, summed evaluations/accepted moves, history of
            global-best improvements in restart order).
        """
        objective = as_objective(objective)
        check_noc_size(objective, initial)
        if self.restarts > 1:
            return self._search_restarts(objective, initial, rng)
        return self._search_once(objective, initial, rng)

    def _search_restarts(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource,
    ) -> SearchResult:
        """Run ``restarts`` independent walks and aggregate the best."""
        if initial.num_tiles is None:
            raise ConfigurationError(
                "simulated annealing requires the initial mapping to know the NoC size"
            )
        seeds = spawn_seeds(ensure_rng(rng), self.restarts)
        backend = self._restart_backend()
        payload: Optional[bytes] = None
        if backend is not None:
            # Pickle once, ship the same bytes to every restart task; a
            # non-picklable objective silently falls back to serial restarts.
            try:
                payload = pickle.dumps(
                    (objective, initial), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                backend = None
        if backend is not None and payload is not None:
            tasks = [
                (self.schedule, self.use_delta, payload, seed, index > 0)
                for index, seed in enumerate(seeds)
            ]
            results: List[SearchResult] = backend.map(_run_restart_payload, tasks)
        else:
            results = [
                _run_restart(
                    self.schedule, self.use_delta, objective, initial, seed, index > 0
                )
                for index, seed in enumerate(seeds)
            ]

        best_index = min(
            range(len(results)), key=lambda i: (results[i].best_cost, i)
        )
        offset = 0
        history: List[Tuple[int, float]] = []
        for result in results:
            for evaluation, cost in result.history:
                if not history or cost < history[-1][1]:
                    history.append((offset + evaluation, cost))
            offset += result.evaluations
        return SearchResult(
            best_mapping=results[best_index].best_mapping,
            best_cost=results[best_index].best_cost,
            evaluations=sum(r.evaluations for r in results),
            history=history,
            accepted_moves=sum(r.accepted_moves for r in results),
            best_metrics=results[best_index].best_metrics,
        )

    def _search_once(
        self,
        objective: Objective,
        initial: Mapping,
        rng: RandomSource = None,
    ) -> SearchResult:
        """One annealing walk (the pre-restart behaviour, unchanged)."""
        generator = ensure_rng(rng)
        schedule = self.schedule
        num_tiles = initial.num_tiles
        if num_tiles is None:
            raise ConfigurationError(
                "simulated annealing requires the initial mapping to know the NoC size"
            )
        if num_tiles < 2:
            cost = objective(initial)
            return SearchResult(
                initial,
                cost,
                1,
                [(1, cost)],
                best_metrics=objective_metrics(objective, initial),
            )

        delta_fn = delta_callable(objective) if self.use_delta else None

        current = initial
        current_cost = objective(current)
        best = current
        best_cost = current_cost
        evaluations = 1
        accepted = 0
        history = [(evaluations, best_cost)]

        moves_per_temperature = schedule.moves_per_temperature or max(8, 8 * num_tiles)
        if schedule.initial_temperature is not None:
            temperature = schedule.initial_temperature
        else:
            temperature, calibration_evaluations = self._calibrate_temperature(
                objective, current, current_cost, generator, num_tiles, delta_fn
            )
            evaluations += calibration_evaluations
        floor = temperature * schedule.min_temperature_ratio

        stalled = 0
        while temperature > floor and evaluations < schedule.max_evaluations:
            improved_this_plateau = False
            for _ in range(moves_per_temperature):
                if evaluations >= schedule.max_evaluations:
                    break
                tile_a, tile_b = self._propose_tiles(current, generator, num_tiles)
                if delta_fn is not None:
                    # Incremental path: price the swap in O(degree) and only
                    # build the candidate mapping when the move is accepted.
                    delta = delta_fn(current, tile_a, tile_b)
                    evaluations += 1
                    if delta <= 0 or generator.random() < math.exp(
                        -delta / temperature
                    ):
                        current = current.swap_tiles(tile_a, tile_b)
                        current_cost += delta
                        accepted += 1
                        guard = self._BEST_GUARD * (abs(best_cost) + 1.0)
                        if current_cost < best_cost - guard:
                            # Re-synchronise against a full evaluation before
                            # recording a new best: the incumbent cost carries
                            # accumulated rounding, the best must not.  The
                            # resync is bookkeeping, not a move, so it is not
                            # charged against max_evaluations — the walk visits
                            # exactly the mappings the full path would.
                            current_cost = objective(current)
                            if current_cost < best_cost:
                                best = current
                                best_cost = current_cost
                                history.append((evaluations, best_cost))
                                improved_this_plateau = True
                else:
                    candidate = current.swap_tiles(tile_a, tile_b)
                    candidate_cost = objective(candidate)
                    evaluations += 1
                    delta = candidate_cost - current_cost
                    if delta <= 0 or generator.random() < math.exp(
                        -delta / temperature
                    ):
                        current = candidate
                        current_cost = candidate_cost
                        accepted += 1
                        if current_cost < best_cost:
                            best = current
                            best_cost = current_cost
                            history.append((evaluations, best_cost))
                            improved_this_plateau = True
            stalled = 0 if improved_this_plateau else stalled + 1
            if stalled >= schedule.stall_plateaus:
                break
            temperature *= schedule.cooling_factor

        return SearchResult(
            best_mapping=best,
            best_cost=best_cost,
            evaluations=evaluations,
            history=history,
            accepted_moves=accepted,
            best_metrics=objective_metrics(objective, best),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _propose_tiles(self, mapping: Mapping, rng, num_tiles: int) -> Tuple[int, int]:
        """Pick two distinct tiles to swap (either may be empty)."""
        tile_a = int(rng.integers(num_tiles))
        tile_b = int(rng.integers(num_tiles - 1))
        if tile_b >= tile_a:
            tile_b += 1
        # Avoid proposing a no-op when both tiles are empty.
        if mapping.core_at(tile_a) is None and mapping.core_at(tile_b) is None:
            used = mapping.used_tiles()
            if used:
                tile_a = used[int(rng.integers(len(used)))]
        return tile_a, tile_b

    def _propose(self, mapping: Mapping, rng, num_tiles: int) -> Mapping:
        """Swap the contents of two distinct tiles (either may be empty)."""
        tile_a, tile_b = self._propose_tiles(mapping, rng, num_tiles)
        return mapping.swap_tiles(tile_a, tile_b)

    def _calibrate_temperature(
        self,
        objective: Objective,
        mapping: Mapping,
        cost: float,
        rng,
        num_tiles: int,
        delta_fn=None,
        samples: int = 20,
        target_acceptance: float = 0.8,
    ) -> Tuple[float, int]:
        """Estimate an initial temperature from the cost deltas of random moves.

        Returns the temperature together with the number of objective
        evaluations spent, so the caller can charge them against the
        evaluation budget (state is deliberately not kept on the instance:
        engines must stay reusable and safe to share across searches).
        """
        deltas = []
        current = mapping
        current_cost = cost
        for _ in range(samples):
            tile_a, tile_b = self._propose_tiles(current, rng, num_tiles)
            if delta_fn is not None:
                move_delta = delta_fn(current, tile_a, tile_b)
                current = current.swap_tiles(tile_a, tile_b)
                current_cost += move_delta
                deltas.append(abs(move_delta))
            else:
                candidate = current.swap_tiles(tile_a, tile_b)
                candidate_cost = objective(candidate)
                deltas.append(abs(candidate_cost - current_cost))
                current, current_cost = candidate, candidate_cost
        mean_delta = sum(deltas) / len(deltas) if deltas else 1.0
        if mean_delta <= 0:
            return max(abs(cost), 1.0) * 0.05, samples
        return -mean_delta / math.log(target_acceptance), samples


__all__ = ["AnnealingSchedule", "SimulatedAnnealing", "FAST_SCHEDULE"]
