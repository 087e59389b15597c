"""Throughput of the parallel batch-pricing backend — inline vs process pool.

The parallel backend claims two things: (1) pooled pricing is *bit-identical*
to serial pricing, so seeded GA/exhaustive results do not depend on
``n_workers``; (2) for workloads whose per-candidate cost dwarfs the IPC
overhead — CDCM replays, the expensive model of the paper — a
``ProcessPoolBackend(n_workers=4)`` at least doubles GA evaluations/sec on a
16x16 mesh.  This bench pins both:

* ``parallel-identity`` group — seeded GA (16x16 CDCM) and exhaustive
  (2x3 CWM) runs priced inline (``backend=None``) and through
  ``ProcessPoolBackend`` must return the same cost, the same mapping and the
  same history;
* ``parallel-throughput`` group — GA evaluations/sec on an 8x8 mesh (CWM,
  where per-candidate pricing is microseconds and the pool is *expected* to
  lose: the numbers are printed so the overhead stays visible) and on a
  16x16 mesh (CDCM, where the pool must win).

The >= 2x assertion needs real parallel hardware; on single-CPU runners the
throughput comparison still prints, but the bar is skipped (matching how the
suite gates GPU- or effort-dependent benches).

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_parallel.json`` in the working directory — the file the README's
benchmark-trajectory section tracks.
"""

import os
import time

import pytest

from conftest import emit, record_sample
from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective, cwm_objective
from repro.eval.parallel import ProcessPoolBackend
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SEED = 20050307
N_WORKERS = 4

#: The >= 2x bar only holds where >= 2 CPUs are actually schedulable.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

GA_PARAMS = GeneticParameters(population_size=16, generations=2)


def _workload(mesh, num_cores, num_packets, generator_seed):
    spec = TgffSpec(
        name=f"parallel-{mesh.width}x{mesh.height}",
        num_cores=num_cores,
        num_packets=num_packets,
        total_bits=num_packets * 2_000,
    )
    cdcg = TgffLikeGenerator(generator_seed).generate(spec)
    return cdcg, cdcg_to_cwg(cdcg), Platform(mesh=mesh)


def _run_ga(objective, initial, backend):
    engine = GeneticSearch(GA_PARAMS, backend=backend)
    start = time.perf_counter()
    result = engine.search(objective, initial, rng=SEED)
    elapsed = time.perf_counter() - start
    return result, result.evaluations / elapsed


def _record(payload):
    record_sample("BENCH_parallel.json", payload)


@pytest.mark.benchmark(group="parallel-identity")
def test_seeded_results_bit_identical_across_backends(benchmark):
    cdcg, _, platform = _workload(Mesh(16, 16), num_cores=96, num_packets=160, generator_seed=11)
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=5)

    tiny_cdcg, tiny_cwg, tiny_platform = _workload(
        Mesh(2, 3), num_cores=4, num_packets=10, generator_seed=2
    )
    tiny_initial = Mapping.random(tiny_cwg.cores, 6, rng=1)

    def run():
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            ga_serial = GeneticSearch(GA_PARAMS, backend=None).search(
                cdcm_objective(cdcg, platform), initial, rng=SEED
            )
            ga_pooled = GeneticSearch(GA_PARAMS, backend=pool).search(
                cdcm_objective(cdcg, platform), initial, rng=SEED
            )
            es_serial = ExhaustiveSearch().search(
                cwm_objective(tiny_cwg, tiny_platform), tiny_initial
            )
            es_pooled = ExhaustiveSearch(batch_size=64, backend=pool).search(
                cwm_objective(tiny_cwg, tiny_platform), tiny_initial
            )
        return ga_serial, ga_pooled, es_serial, es_pooled

    ga_serial, ga_pooled, es_serial, es_pooled = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    emit(
        "Parallel backend - seeded GA (16x16 CDCM) and exhaustive (2x3 CWM) "
        "across backends",
        "\n".join(
            [
                f"GA  serial best: {ga_serial.best_cost:.6f}  pooled best: {ga_pooled.best_cost:.6f}",
                f"ES  serial best: {es_serial.best_cost:.6f}  pooled best: {es_pooled.best_cost:.6f}",
            ]
        ),
    )
    assert ga_pooled.best_cost == ga_serial.best_cost
    assert ga_pooled.best_mapping == ga_serial.best_mapping
    assert ga_pooled.history == ga_serial.history
    assert es_pooled.best_cost == es_serial.best_cost
    assert es_pooled.best_mapping == es_serial.best_mapping
    assert es_pooled.evaluations == es_serial.evaluations


@pytest.mark.benchmark(group="parallel-throughput")
def test_ga_throughput_serial_vs_pool(benchmark):
    # 8x8 / CWM: microsecond pricing, the pool's fixed costs dominate —
    # reported so the overhead stays visible in the trajectory.
    cheap_cdcg, cheap_cwg, cheap_platform = _workload(
        Mesh(8, 8), num_cores=48, num_packets=120, generator_seed=7
    )
    cheap_initial = Mapping.random(cheap_cwg.cores, 64, rng=3)
    # 16x16 / CDCM: millisecond replays, the pool's target workload.
    cdcg, _, platform = _workload(Mesh(16, 16), num_cores=96, num_packets=160, generator_seed=11)
    initial = Mapping.random(cdcg.cores(), 256, rng=3)

    def run():
        with ProcessPoolBackend(n_workers=N_WORKERS, min_batch_size=2) as pool:
            cheap_serial, cheap_serial_rate = _run_ga(
                cwm_objective(cheap_cwg, cheap_platform), cheap_initial, None
            )
            cheap_pooled, cheap_pooled_rate = _run_ga(
                cwm_objective(cheap_cwg, cheap_platform), cheap_initial, pool
            )
            serial, serial_rate = _run_ga(
                cdcm_objective(cdcg, platform), initial, None
            )
            pooled, pooled_rate = _run_ga(
                cdcm_objective(cdcg, platform), initial, pool
            )
        assert cheap_pooled.best_cost == cheap_serial.best_cost
        assert pooled.best_cost == serial.best_cost
        return {
            "cwm_8x8": (cheap_serial_rate, cheap_pooled_rate),
            "cdcm_16x16": (serial_rate, pooled_rate),
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'workload':<14} {'serial evals/s':>15} {'pooled evals/s':>15} {'speedup':>8}"]
    for label, (serial_rate, pooled_rate) in rates.items():
        lines.append(
            f"{label:<14} {serial_rate:>15,.1f} {pooled_rate:>15,.1f} "
            f"{pooled_rate / serial_rate:>7.2f}x"
        )
    lines.append(f"schedulable CPUs: {_CPUS}, pool size: {N_WORKERS}")
    emit(
        "Parallel backend - GA pricing throughput, inline vs "
        "ProcessPoolBackend(4)",
        "\n".join(lines),
    )

    serial_rate, pooled_rate = rates["cdcm_16x16"]
    _record(
        {
            "bench": "bench_parallel",
            "n_workers": N_WORKERS,
            "cpus": _CPUS,
            "cdcm_16x16_serial_evals_per_s": serial_rate,
            "cdcm_16x16_pooled_evals_per_s": pooled_rate,
            "speedup": pooled_rate / serial_rate,
        }
    )
    if _CPUS < 2:
        pytest.skip(
            f"only {_CPUS} schedulable CPU(s): the >= 2x bar needs parallel "
            f"hardware (identity checks above already ran)"
        )
    # The acceptance bar of the parallel backend: at least 2x GA evals/sec on
    # the 16x16 CDCM workload.
    assert pooled_rate >= 2.0 * serial_rate
