#!/usr/bin/env python3
"""Cross-run weight sweeps through the mapping service (`repro.service`).

This example demonstrates the service layer end to end:

1. **cold sweep** — a `ServiceBackend` over an empty `ResultStore` prices a
   candidate population once for a three-point energy/time weight sweep;
   scalarisation weights live outside the store key, so points 2 and 3
   reuse the vectors of point 1;
2. **warm sweep** — a *fresh* context and a fresh store over the same
   directory (the "next day's" process) repeat the identical sweep and
   re-price zero candidates: hit rate 1.0, and the costs are bit-identical
   to the cold pass and to inline pricing.

Run with:  python examples/service_sweep.py
(set REPRO_EXAMPLES_SMOKE=1 for the tiny-parameter CI smoke configuration)
"""

import os
import tempfile
import time

from repro import (
    CdcmEvaluationContext,
    Mapping,
    Mesh,
    Platform,
    ResultStore,
    ServiceBackend,
)
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

SMOKE = os.environ.get("REPRO_EXAMPLES_SMOKE", "") not in ("", "0", "false")

SEED = 2005

SWEEP = (
    {"energy": 1.0, "time": 0.0},
    {"energy": 0.5, "time": 0.5},
    {"energy": 0.0, "time": 1.0},
)


def run_sweep(root, cdcg, platform, population):
    """Price every sweep point through a store at *root*.

    Returns the costs per point, the candidates priced per point and the
    elapsed time.
    """
    start = time.perf_counter()
    service = ServiceBackend(ResultStore(root))
    context = CdcmEvaluationContext(cdcg, platform, backend=service)
    costs, priced = [], []
    for weights in SWEEP:
        before = service.priced
        vectors = context.evaluate_metrics_batch(population)
        costs.append([v.weighted_sum(weights, strict=False) for v in vectors])
        priced.append(service.priced - before)
    return costs, priced, time.perf_counter() - start


def main() -> None:
    side = 4 if SMOKE else 8
    platform = Platform(mesh=Mesh(side, side))
    spec = TgffSpec(
        name="service-sweep",
        num_cores=(side * side) - 4,
        num_packets=20 if SMOKE else 96,
        total_bits=40_000 if SMOKE else 240_000,
    )
    cdcg = TgffLikeGenerator(SEED).generate(spec)
    population = [
        Mapping.random(sorted(cdcg.cores()), platform.num_tiles, rng=SEED + i)
        for i in range(8 if SMOKE else 24)
    ]
    print(
        f"application: {cdcg.num_cores} cores, {cdcg.num_packets} packets "
        f"on a {side}x{side} mesh; {len(population)} candidates, "
        f"{len(SWEEP)}-point weight sweep\n"
    )

    with tempfile.TemporaryDirectory(prefix="repro-example-store-") as root:
        # --- 1. cold sweep: the store starts empty --------------------
        cold, cold_priced, cold_s = run_sweep(root, cdcg, platform, population)
        print(
            f"cold sweep: {cold_s:.3f}s, priced {sum(cold_priced)} candidates "
            f"(points 2+ reuse point 1's vectors: {cold_priced})"
        )

        # --- 2. warm sweep: a fresh context and store, the same root --
        warm, warm_priced, warm_s = run_sweep(root, cdcg, platform, population)
        print(
            f"warm sweep: {warm_s:.3f}s, priced {sum(warm_priced)} candidates, "
            f"speedup {cold_s / warm_s:.1f}x"
        )
        assert warm_priced == [0] * len(SWEEP)
        assert warm == cold
        print(f"balanced-weights winner: cost {min(warm[1]):,.0f}")

    inline = CdcmEvaluationContext(
        cdcg, platform, cache_size=0
    ).evaluate_metrics_batch(population)
    expected = [[v.weighted_sum(w, strict=False) for v in inline] for w in SWEEP]
    assert warm == expected, "the store must never change a cost"
    print("warm costs bit-identical to inline pricing: OK")


if __name__ == "__main__":
    main()
