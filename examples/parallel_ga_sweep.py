#!/usr/bin/env python3
"""Parallel genetic mapping search on a 16x16 torus with ProcessPoolBackend.

This example demonstrates the parallel half of the evaluation engine
(`repro.eval.parallel`) end to end on a large NoC:

1. **warm-up** — a 16x16 torus sits exactly at the eager/lazy route table
   threshold; `warm_route_table` forces the eager build (from XY's next-hop
   array, in process) and registers the result process-wide so every later
   evaluation (and every forked worker) reuses it;
2. **pooled GA pricing** — each GA generation is priced as one
   `evaluate_batch` call whose misses fan out over
   `ProcessPoolBackend(n_workers=4)`,
   first under the cheap CWM objective, then under the expensive
   contention-aware CDCM objective where the pool actually pays off;
3. **determinism** — the same seeded search is repeated inline
   (`backend=None`) and the results are asserted identical: `n_workers`
   changes wall-clock time, never the answer.

Run with:  python examples/parallel_ga_sweep.py
(add --workers N to change the pool size; set REPRO_EXAMPLES_SMOKE=1 for the
tiny-parameter CI smoke configuration)
"""

import os
import sys
import time

from repro import Platform, Torus
from repro.core.mapping import Mapping
from repro.core.objective import cdcm_objective, cwm_objective
from repro.eval.parallel import ProcessPoolBackend, warm_route_table
from repro.graphs.convert import cdcg_to_cwg
from repro.search.genetic import GeneticParameters, GeneticSearch
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0", "false")

SEED = 2005


def main() -> None:
    n_workers = 2 if SMOKE else 4
    if "--workers" in sys.argv:
        n_workers = int(sys.argv[sys.argv.index("--workers") + 1])

    torus = Torus(16, 16)
    platform = Platform(mesh=torus)
    spec = TgffSpec(
        name="parallel-sweep",
        num_cores=96,
        num_packets=160,
        total_bits=320_000,
    )
    cdcg = TgffLikeGenerator(42).generate(spec)
    cwg = cdcg_to_cwg(cdcg)
    print(
        f"application: {cdcg.num_cores} cores, {cdcg.num_packets} packets "
        f"on a {torus} ({platform.num_tiles} tiles)\n"
    )

    with ProcessPoolBackend(n_workers=n_workers, min_batch_size=2) as pool:
        # 1. Warm the shared route table before the pool forks its workers.
        start = time.perf_counter()
        table = warm_route_table(platform)
        print(
            f"route table: {platform.num_tiles ** 2:,} pairs warmed in "
            f"{time.perf_counter() - start:.2f}s "
            f"(precomputed={table.is_precomputed})"
        )

        # 2. Pooled GA under both models.
        params = GeneticParameters(
            population_size=16, generations=2 if SMOKE else 3
        )
        initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=SEED)

        for label, objective_factory in (
            ("cwm", lambda: cwm_objective(cwg, platform)),
            ("cdcm", lambda: cdcm_objective(cdcg, platform)),
        ):
            start = time.perf_counter()
            pooled = GeneticSearch(params, backend=pool).search(
                objective_factory(), initial, rng=SEED
            )
            pooled_elapsed = time.perf_counter() - start

            start = time.perf_counter()
            serial = GeneticSearch(params, backend=None).search(
                objective_factory(), initial, rng=SEED
            )
            serial_elapsed = time.perf_counter() - start

            # 3. Same seed, same answer — regardless of n_workers.
            assert pooled.best_cost == serial.best_cost
            assert pooled.best_mapping == serial.best_mapping
            print(
                f"{label:<5} GA: best {pooled.best_cost:,.1f} in "
                f"{pooled.evaluations} evaluations | "
                f"pooled {pooled_elapsed:.2f}s vs serial {serial_elapsed:.2f}s "
                f"({serial_elapsed / pooled_elapsed:.2f}x)"
            )

    print(
        "\npooled and serial runs returned identical mappings — "
        "n_workers trades wall-clock time only."
    )


if __name__ == "__main__":
    main()
