"""Throughput of the CWM array pricing kernel — scalar loop vs NumPy batch.

The vectorised kernel (:mod:`repro.eval.vector`) claims two things: (1) the
array path is *bit-identical* to the scalar per-candidate loop, so the
``vectorize`` gate never changes a result; (2) pricing a whole generation as
one ``(pop, cores)`` gather is at least an order of magnitude faster than the
scalar batch path, which is what makes population engines (GA / NSGA-II /
exhaustive chunks) cheap on the CWM model.  This bench pins both on an 8x8
mesh with a 48-core TGFF-like CWG at populations 256 and 4096:

* identity — every population is priced through both a ``vectorize=False``
  and a ``vectorize=True`` context (memo disabled so the kernel does all the
  work) and the metric vectors must compare exactly equal; the raw kernel
  output must equal the scalar costs too;
* throughput — four candidates/sec rates per population:

  - ``scalar``: the per-candidate batch path (``vectorize=False``);
  - ``context``: the vectorised context fed *Mapping objects* — it pays the
    per-candidate dict→row conversion;
  - ``rows``: the same context fed the ``(pop, cores)`` array and its core
    order (the array form of ``evaluate_metrics_batch`` the population
    engines price through): in-batch dedup on row bytes, then the kernel;
  - ``array``: :meth:`~repro.eval.vector.VectorizedCwmKernel.price` on the
    population already in ``(pop, cores)`` array form — the hot path the
    kernel is built for, with no per-candidate Python objects.

Two acceptance bars at population 4096: the array path prices >= 10x the
candidates/sec of the scalar batch path, and the ``rows`` path delivers
>= 50 % of the raw array rate.  The identity assertions always run; the bars
follow the suite's perf-bar convention (cf. the >= 2x pool bar in
``bench_parallel.py``): rates are recorded first, then the bars can be
waived on constrained or instrumented interpreters by setting
``REPRO_BENCH_NO_PERF_BARS=1``.

A second case times the link-load gather
(:meth:`~repro.eval.vector.VectorizedCwmKernel.link_load_stats`) on its
own, beside the energy kernel, at 128 rows (one ``cwm-nsga2`` brood) and
4096 rows, and checks both against the per-candidate loop of
``LoadAwareCwmContext``; it records its rows/s and sets no bar.

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_vector.json`` in the working directory — the file the CI
benchmark-trajectory job uploads.
"""

import os
import statistics
import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.codesign.load import LoadAwareCwmContext
from repro.core.mapping import Mapping
from repro.eval.context import CwmEvaluationContext
from repro.eval.vector import population_to_array
from repro.graphs.convert import cdcg_to_cwg
from repro.noc.platform import Platform
from repro.noc.topology import Mesh
from repro.utils.rng import ensure_rng
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

POPULATIONS = (256, 4096)

#: Perf bars can be waived (rates are still printed and recorded) on
#: constrained runners — same spirit as the CPU gate in bench_parallel.
_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)


def _workload():
    spec = TgffSpec(
        name="vector-8x8",
        num_cores=48,
        num_packets=120,
        total_bits=120 * 2_000,
    )
    cdcg = TgffLikeGenerator(BENCH_SEED).generate(spec)
    return cdcg_to_cwg(cdcg), Platform(mesh=Mesh(8, 8))


def _population(cwg, num_tiles, size, rng):
    return [Mapping.random(sorted(cwg.cores), num_tiles, rng) for _ in range(size)]


def _timed(fn, size):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, size / elapsed


@pytest.mark.benchmark(group="vector-throughput")
def test_cwm_array_kernel_throughput(benchmark):
    cwg, platform = _workload()
    order = sorted(cwg.cores)
    rng = ensure_rng(BENCH_SEED)
    populations = {
        size: _population(cwg, platform.num_tiles, size, rng) for size in POPULATIONS
    }

    def run():
        results = {}
        for size, population in populations.items():
            # cache_size=0 disables the memo so every candidate actually hits
            # the pricing path under measurement.
            scalar_ctx = CwmEvaluationContext(
                cwg, platform, cache_size=0, vectorize=False
            )
            vector_ctx = CwmEvaluationContext(
                cwg, platform, cache_size=0, vectorize=True
            )
            kernel = vector_ctx.vector_kernel()  # bind outside the timed region
            tiles = population_to_array(
                population, order, num_tiles=platform.num_tiles
            )

            scalar_metrics, scalar_rate = _timed(
                lambda: scalar_ctx.evaluate_metrics_batch(population), size
            )
            vector_metrics, context_rate = _timed(
                lambda: vector_ctx.evaluate_metrics_batch(population), size
            )
            row_values, rows_rate = _timed(
                lambda: vector_ctx.evaluate_metrics_batch(tiles, cores=order), size
            )
            costs, array_rate = _timed(lambda: kernel.price(tiles), size)

            # The gate's contract: bit-identical results, always.
            assert vector_metrics == scalar_metrics
            expected = [metric["dynamic_energy"] for metric in scalar_metrics]
            assert [float(cost) for cost in costs] == expected
            assert row_values[:, 0].tolist() == expected
            results[size] = (scalar_rate, context_rate, rows_rate, array_rate)
        return results

    rates = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"{'population':<12} {'scalar cand/s':>14} {'context cand/s':>15} "
        f"{'rows cand/s':>12} {'array cand/s':>14} {'speedup':>8} {'rows/array':>11}"
    ]
    for size, (scalar_rate, context_rate, rows_rate, array_rate) in rates.items():
        lines.append(
            f"{size:<12} {scalar_rate:>14,.0f} {context_rate:>15,.0f} "
            f"{rows_rate:>12,.0f} {array_rate:>14,.0f} "
            f"{array_rate / scalar_rate:>7.1f}x {rows_rate / array_rate:>11.2f}"
        )
    emit(
        "Array pricing kernel - CWM candidates/sec, scalar batch path vs "
        "vectorised context (Mappings, then rows) vs raw (pop, cores) array "
        "(8x8 mesh, 48 cores)",
        "\n".join(lines),
    )

    scalar_rate, context_rate, rows_rate, array_rate = rates[4096]
    record_sample(
        "BENCH_vector.json",
        {
            "bench": "bench_vector",
            "pop_256_scalar_cand_per_s": rates[256][0],
            "pop_256_context_cand_per_s": rates[256][1],
            "pop_256_rows_cand_per_s": rates[256][2],
            "pop_256_array_cand_per_s": rates[256][3],
            "pop_4096_scalar_cand_per_s": scalar_rate,
            "pop_4096_context_cand_per_s": context_rate,
            "pop_4096_rows_cand_per_s": rows_rate,
            "pop_4096_array_cand_per_s": array_rate,
            "speedup_4096": array_rate / scalar_rate,
            "rows_to_array_4096": rows_rate / array_rate,
        },
    )
    if _SKIP_PERF_BARS:
        pytest.skip(
            "REPRO_BENCH_NO_PERF_BARS=1: >= 10x and >= 50 % bars waived "
            "(identity checks above already ran)"
        )
    # The acceptance bar of the array kernel: >= 10x candidates/sec over the
    # scalar batch path for a pop-4096 generation in array form.
    assert array_rate >= 10.0 * scalar_rate
    # The context's array form keeps at least half of the raw kernel rate.
    assert rows_rate >= 0.5 * array_rate


#: Row counts of the link-load gather case: one ``cwm-nsga2`` brood, and a
#: population large enough to span many row blocks.
GATHER_ROWS = (128, 4096)


def _median_rate(fn, rows, repeats):
    """Rows/s of *fn* from the median of *repeats* timed calls, and its result."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return result, rows / statistics.median(seconds)


@pytest.mark.benchmark(group="vector-throughput")
def test_link_load_gather_throughput(benchmark):
    """Rows/s of ``link_load_stats`` beside the energy kernel; no bar.

    The gather is the load half of every load-aware CWM chunk, priced in
    cache-sized row blocks; the energy kernel prices the same rows.  Both
    must equal the per-candidate loop of ``LoadAwareCwmContext`` exactly.
    """
    cwg, platform = _workload()
    order = sorted(cwg.cores)
    rng = ensure_rng(BENCH_SEED)
    context = LoadAwareCwmContext(cwg, platform, cache_size=0)
    kernel = context.vector_kernel()
    populations = {
        rows: _population(cwg, platform.num_tiles, rows, rng) for rows in GATHER_ROWS
    }

    def run():
        results = {}
        for rows, population in populations.items():
            tiles = population_to_array(population, order, num_tiles=platform.num_tiles)
            repeats = 25 if rows < 1000 else 5
            (peaks, totals), gather_rate = _median_rate(
                lambda: kernel.link_load_stats(tiles), rows, repeats
            )
            energies, energy_rate = _median_rate(
                lambda: kernel.price(tiles), rows, repeats
            )
            scalar = [context._compute_metrics(mapping) for mapping in population]
            assert energies.tolist() == [vector["dynamic_energy"] for vector in scalar]
            assert peaks.tolist() == [vector["max_link_load"] for vector in scalar]
            spreads = peaks - totals / context.route_table.num_links
            assert spreads.tolist() == [vector["link_load_spread"] for vector in scalar]
            results[rows] = (gather_rate, energy_rate)
        return results

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'rows':<8} {'gather rows/s':>14} {'energy rows/s':>14}"]
    for rows, (gather_rate, energy_rate) in rates.items():
        lines.append(f"{rows:<8} {gather_rate:>14,.0f} {energy_rate:>14,.0f}")
    emit(
        f"Link-load gather - rows/s of link_load_stats beside the energy kernel "
        f"({kernel.num_edges} edges, 48 cores, 8x8 mesh, median of timed calls)",
        "\n".join(lines),
    )
    sample = {"bench": "bench_vector_link_load"}
    for rows, (gather_rate, energy_rate) in rates.items():
        sample[f"pop_{rows}_gather_rows_per_s"] = gather_rate
        sample[f"pop_{rows}_energy_rows_per_s"] = energy_rate
    record_sample("BENCH_vector.json", sample)
