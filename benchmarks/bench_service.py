"""Mapping-service throughput — a weight sweep against a cold and a warm store.

The service layer (:mod:`repro.service`) claims two things:

* **identity** — service-priced vectors equal inline pricing (a context's
  ``evaluate_metrics_batch`` with no backend) exactly, whatever mix of store
  hits and misses produced them, and a warm store answers an
  identical weight sweep without re-pricing a single candidate (hit rate
  1.0).  Both are asserted *always*, like the identity halves of the other
  benches;
* **throughput** — a weight sweep re-run against a warm store completes at
  >= 3x the cold sweep points/sec on a 16x16 CDCM workload, because every
  candidate is answered from the store instead of re-scheduled.

The operating point is the acceptance workload: a 16x16 mesh, 96 cores and
128 packets, a 32-candidate population, and a three-point energy/time weight
sweep priced in-process through
``CdcmEvaluationContext(backend=ServiceBackend(store))``.  Scalarisation
weights live outside the store key, so the cold pass prices the population
exactly once (points 2 and 3 already hit) and the warm pass — a fresh
context and a fresh ``ResultStore`` over the same root, as the next run
would build them — prices nothing.

The >= 3x bar follows the suite's perf-bar convention: rates are recorded
first, then the bar can be waived on constrained or instrumented
interpreters by setting ``REPRO_BENCH_NO_PERF_BARS=1``.  The identity
assertions always run.

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_service.json`` in the working directory — the file the CI
benchmark-trajectory job uploads.  Its rate fields keep their names,
``cold_jobs_per_s`` and ``warm_jobs_per_s``: one sweep point is one job.
"""

import os
import time
from typing import NamedTuple, Tuple

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.core.mapping import Mapping
from repro.core.metrics import MetricVector
from repro.eval.context import CdcmEvaluationContext
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.service import ResultStore, ServiceBackend
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)

#: The energy/time weight sweep, one batch per point.
_SWEEP = (
    {"energy": 1.0, "time": 0.0},
    {"energy": 0.5, "time": 0.5},
    {"energy": 0.0, "time": 1.0},
)


class SweepPoint(NamedTuple):
    """The outcome of pricing the population at one sweep point."""

    vectors: Tuple[MetricVector, ...]
    costs: Tuple[float, ...]
    priced: int

    @property
    def hit_rate(self) -> float:
        """Fraction of the candidates answered without pricing."""
        return (len(self.vectors) - self.priced) / len(self.vectors)


def _workload():
    spec = TgffSpec(
        name="service-16x16",
        num_cores=96,
        num_packets=128,
        total_bits=128 * 4_096,
        levels=8,
    )
    cdcg = TgffLikeGenerator(BENCH_SEED).generate(spec)
    return cdcg, Platform(mesh=Mesh(16, 16))


def _population(cdcg, platform, count=32):
    return [
        Mapping.random(sorted(cdcg.cores()), platform.num_tiles, rng=BENCH_SEED + i)
        for i in range(count)
    ]


def _run_sweep(store, cdcg, platform, population):
    """Price the weight sweep through *store*; return (points, elapsed s)."""
    start = time.perf_counter()
    service = ServiceBackend(store)
    context = CdcmEvaluationContext(cdcg, platform, backend=service)
    points = []
    for weights in _SWEEP:
        priced_before = service.priced
        vectors = context.evaluate_metrics_batch(population)
        points.append(
            SweepPoint(
                vectors=tuple(vectors),
                costs=tuple(v.weighted_sum(weights, strict=False) for v in vectors),
                priced=service.priced - priced_before,
            )
        )
    return points, time.perf_counter() - start


@pytest.mark.benchmark(group="service-throughput")
def test_service_warm_sweep_throughput(benchmark, tmp_path):
    cdcg, platform = _workload()
    population = _population(cdcg, platform)
    serial = CdcmEvaluationContext(
        cdcg, platform, cache_size=0
    ).evaluate_metrics_batch(population)
    root = tmp_path / "store"

    def run():
        cold_results, cold_elapsed = _run_sweep(
            ResultStore(root), cdcg, platform, population
        )
        # A fresh store over the same root = the next day's run: cold
        # context, cold memo, warm *store*.
        warm_results, warm_elapsed = _run_sweep(
            ResultStore(root), cdcg, platform, population
        )
        return cold_results, cold_elapsed, warm_results, warm_elapsed

    cold_results, cold_elapsed, warm_results, warm_elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    cold_rate = len(_SWEEP) / cold_elapsed
    warm_rate = len(_SWEEP) / warm_elapsed

    # Identity half, always asserted: service == serial, cold and warm, and
    # the warm sweep re-priced nothing.
    for result in (*cold_results, *warm_results):
        assert list(result.vectors) == serial
    assert cold_results[0].priced == len(population)
    assert all(r.priced == 0 for r in cold_results[1:])  # weights reuse vectors
    assert all(r.priced == 0 for r in warm_results)
    assert all(r.hit_rate == 1.0 for r in warm_results)
    assert [r.costs for r in warm_results] == [r.costs for r in cold_results]

    emit(
        "Mapping service - weight-sweep points/sec, cold vs warm store "
        "(16x16 mesh, 96 cores, 32 candidates, 3-point sweep)",
        f"{'store':<8} {'points/s':>10} {'sweep s':>10} {'priced':>8}\n"
        f"{'cold':<8} {cold_rate:>10.3f} {cold_elapsed:>10.4f} "
        f"{sum(r.priced for r in cold_results):>8}\n"
        f"{'warm':<8} {warm_rate:>10.3f} {warm_elapsed:>10.4f} "
        f"{sum(r.priced for r in warm_results):>8}\n"
        f"speedup: {warm_rate / cold_rate:.2f}x  "
        f"warm hit rate: {warm_results[-1].hit_rate:.2f}",
    )
    record_sample(
        "BENCH_service.json",
        {
            "bench": "bench_service",
            "half": "warm-sweep",
            "cold_jobs_per_s": cold_rate,
            "warm_jobs_per_s": warm_rate,
            "speedup": warm_rate / cold_rate,
            "warm_hit_rate": warm_results[-1].hit_rate,
            "population": len(population),
        },
    )
    if _SKIP_PERF_BARS:
        pytest.skip(
            ">= 3x bar waived via REPRO_BENCH_NO_PERF_BARS (identity checks "
            "above already ran)"
        )
    # The acceptance bar: a warm store answers the identical sweep at >= 3x
    # the cold sweep points/sec.
    assert warm_rate >= 3.0 * cold_rate
