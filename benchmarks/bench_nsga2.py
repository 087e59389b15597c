"""Benchmark: NSGA-II population-front search vs. the weight-sweep front.

Pins the population-front engine's two claims to numbers on the
image-encoder workload (4x3 mesh, CDCM pricing):

* **quality** — under a shared reference, the NSGA-II front's hypervolume is
  at least that of a budget-matched random-pool weight sweep (the PR 3 way
  of producing fronts), and the returned front is mutually non-dominated;
* **throughput** — evaluations/second of the NSGA-II run (generation
  pricing through ``evaluate_metrics_batch``), recorded into
  ``BENCH_nsga2.json`` with the hypervolume ratio when
  ``REPRO_BENCH_RECORD=1`` so the trajectory tracks both.

A second bench times the population loop itself where pricing is cheap:
NSGA-II and the GA over load-aware CWM on an 8x8 mesh with 48 cores (the
problem of the ``cwm-nsga2`` perfbench workload), bred and priced as tile
rows.  It records both evals/s rates and has no bar.

Deterministic: every stochastic input is seeded with ``BENCH_SEED``.
"""

from __future__ import annotations

import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.analysis.pareto import hypervolume, weight_sweep_front
from repro.codesign.load import LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.workloads.embedded import image_encoder
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

FRONT_KEYS = ("dynamic_energy", "time")
PARAMS = Nsga2Parameters(population_size=24, generations=16)
SWEEP_WEIGHTS = 9


@pytest.mark.benchmark(group="nsga2-front")
def test_nsga2_front_quality_and_throughput(benchmark):
    cdcg = image_encoder()
    platform = Platform(mesh=Mesh(4, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=BENCH_SEED)

    def run():
        context = CdcmEvaluationContext(cdcg, platform)
        start = time.perf_counter()
        result = NSGA2Search(PARAMS, keys=FRONT_KEYS).search(
            context, initial, rng=BENCH_SEED
        )
        elapsed = time.perf_counter() - start
        pool = [
            Mapping.random(cdcg.cores(), platform.num_tiles, rng=BENCH_SEED + i)
            for i in range(result.evaluations)
        ]
        sweep = weight_sweep_front(
            context, pool, weights=SWEEP_WEIGHTS, keys=FRONT_KEYS
        )
        return result, sweep, elapsed

    result, sweep, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    union = list(result.front) + list(sweep.front)
    reference = {key: max(p.metrics[key] for p in union) for key in FRONT_KEYS}
    nsga2_hv = hypervolume(result.front, reference=reference, keys=FRONT_KEYS)
    sweep_hv = hypervolume(sweep.front, reference=reference, keys=FRONT_KEYS)
    rate = result.evaluations / elapsed
    # None (not inf) when the sweep front is fully dominated: the trajectory
    # file must stay strictly finite-numeric for tools/plot_bench.py.
    ratio = nsga2_hv / sweep_hv if sweep_hv > 0 else None

    emit(
        "NSGA-II - front quality vs budget-matched weight sweep (image encoder, 4x3)",
        "\n".join(
            [
                f"NSGA-II front: {len(result.front)} point(s), "
                f"{result.evaluations} evaluations in {elapsed:.2f}s "
                f"({rate:,.1f} evals/s)",
                f"sweep front:   {len(sweep.front)} point(s) from "
                f"{SWEEP_WEIGHTS} weight vectors over {result.evaluations} candidates",
                f"hypervolume:   NSGA-II {nsga2_hv:,.0f} vs sweep {sweep_hv:,.0f} "
                + (
                    f"({ratio:.2f}x, shared reference)"
                    if ratio is not None
                    else "(sweep front fully dominated)"
                ),
            ]
        ),
    )
    record_sample(
        "BENCH_nsga2.json",
        {
            "bench": "nsga2_front",
            "evals_per_s": rate,
            "front_size": len(result.front),
            "nsga2_hypervolume": nsga2_hv,
            "sweep_hypervolume": sweep_hv,
            "hypervolume_ratio": ratio,
        },
    )

    # The acceptance bars of the population-front engine: a clean front that
    # is at least as good as the scalarisation sweep under the same budget.
    for a in result.front:
        for b in result.front:
            assert a is b or not a.metrics.dominates(b.metrics, FRONT_KEYS)
    assert nsga2_hv >= sweep_hv


#: The ``cwm-nsga2`` perfbench problem: 48 cores on an 8x8 mesh.
CWM_SPEC = TgffSpec(name="cwm-48", num_cores=48, num_packets=120, total_bits=120 * 2_000)
CWM_NSGA2 = Nsga2Parameters(population_size=128, generations=20)
CWM_GENETIC = GeneticParameters(population_size=128, generations=20)
CWM_KEYS = ("dynamic_energy", "max_link_load")
#: Searches timed per engine (median reported).
CWM_REPEATS = 5


def _median_rate(search, repeats):
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = search()
        rates.append(result.evaluations / (time.perf_counter() - start))
    return sorted(rates)[len(rates) // 2], result


@pytest.mark.benchmark(group="nsga2-front")
def test_cwm_population_loop_throughput(benchmark):
    cwg = cdcg_to_cwg(TgffLikeGenerator(BENCH_SEED).generate(CWM_SPEC))
    platform = Platform(mesh=Mesh(8, 8))
    initial = Mapping.random(sorted(cwg.cores), platform.num_tiles, rng=BENCH_SEED)

    def nsga2():
        context = LoadAwareCwmContext(cwg, platform)
        return NSGA2Search(CWM_NSGA2, keys=CWM_KEYS).search(
            context, initial, rng=BENCH_SEED
        )

    def genetic():
        context = LoadAwareCwmContext(cwg, platform)
        return GeneticSearch(CWM_GENETIC).search(context, initial, rng=BENCH_SEED)

    def run():
        return _median_rate(nsga2, CWM_REPEATS), _median_rate(genetic, CWM_REPEATS)

    (nsga2_rate, front_run), (genetic_rate, genetic_run) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "Population loop - evals/s over load-aware CWM (8x8 mesh, 48 cores, "
        f"pop 128 x 20 generations, median of {CWM_REPEATS})",
        "\n".join(
            [
                f"NSGA-II: {nsga2_rate:>10,.0f} evals/s "
                f"({front_run.evaluations} evaluations, front of "
                f"{len(front_run.front)})",
                f"GA:      {genetic_rate:>10,.0f} evals/s "
                f"({genetic_run.evaluations} evaluations, best "
                f"{genetic_run.best_cost:,.1f})",
            ]
        ),
    )
    record_sample(
        "BENCH_nsga2.json",
        {
            "bench": "cwm_population_loop",
            "nsga2_evals_per_s": nsga2_rate,
            "genetic_evals_per_s": genetic_rate,
        },
    )
