"""Benchmark: routing×mapping co-design vs fixed-XY mapping-only search.

Pins the co-design subsystem's claims to numbers on the hub gather/scatter
hotspot workload (4x3 mesh, CDCM pricing) — the workload where every gather
converges on the hub tile, so deterministic XY funnels the whole volume onto
one mesh column while a synthesized table can spread it over all minimal
paths:

* **certification throughput** — tables certified per second through the
  deadlock gate (:meth:`~repro.codesign.synthesis.TableSynthesizer.certify`,
  repair policy) over a batch of random minimal tables;
* **closed-form gate** — on the 6x6 fabric of the ``codesign-nsga3``
  perfbench workload and on 8x8, ``validate_deadlock_free`` built from the
  next-hop trees against the per-pair route walk (a wrapper that forwards
  only ``route()``): the same graph and witness for every table, and at
  least 3x the checks per second on 8x8;
* **front quality** — under a shared reference, the co-design NSGA-III
  front's n-dimensional hypervolume (energy × time × congestion) is at
  least that of a budget-matched fixed-XY mapping-only NSGA-II front — the
  reason the routing belongs in the genome.

The hypervolume and closed-form speed-up bars are perf-style bars: waive
them on constrained or instrumented interpreters with
``REPRO_BENCH_NO_PERF_BARS=1``.  The identity assertions (every front
routing certifies deadlock-free, front points reprice bit-identically, gate
counters add up, the closed form equals the route walk) always run.

Set ``REPRO_BENCH_RECORD=1`` to append the measured rates to
``BENCH_codesign.json`` in the working directory — the file the CI
benchmark-trajectory job uploads.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import BENCH_SEED, emit, record_sample
from repro.analysis.pareto import hypervolume
from repro.codesign import (
    CodesignParameters,
    CodesignSearch,
    SynthesizedRouting,
    TableSynthesizer,
)
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.noc.deadlock import (
    channel_dependency_graph,
    find_cycle,
    validate_deadlock_free,
)
from repro.noc.platform import Platform
from repro.noc.routing import RoutingAlgorithm
from repro.noc.topology import Mesh
from repro.search.nsga2 import NSGA2Search, Nsga2Parameters
from repro.workloads.embedded import hub_gather_scatter

_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)

FRONT_KEYS = ("energy", "time", "max_link_utilisation")
CODESIGN_PARAMS = CodesignParameters(population_size=16, generations=10)
NUM_TABLES = 64

#: Random and mutated tables per fabric in the closed-form gate case.
GATE_TABLES = 16
#: Timed passes over the tables per path; the fastest pass counts.
GATE_ROUNDS = 3
#: Required closed-form speed-up over the route walk on 8x8.
GATE_SPEEDUP_BAR = 3.0


class RouteWalk(RoutingAlgorithm):
    """Forwards only ``route()``, so the gate walks every tile pair."""

    def __init__(self, inner: RoutingAlgorithm) -> None:
        self.inner = inner
        self.name = inner.name

    def route(self, topology, source, target):
        return self.inner.route(topology, source, target)


@pytest.mark.benchmark(group="codesign-gate")
def test_certification_throughput(benchmark):
    mesh = Mesh(4, 3)
    synthesizer = TableSynthesizer(mesh)
    tables = [synthesizer.random_table(rng=BENCH_SEED + i) for i in range(NUM_TABLES)]

    def run():
        start = time.perf_counter()
        results = [synthesizer.certify(table, policy="repair") for table in tables]
        elapsed = time.perf_counter() - start
        return results, elapsed

    results, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    rate = len(results) / elapsed
    repaired = sum(1 for r in results if r.repaired)

    # The gate's contract is not waivable: every repaired-or-clean table
    # must come out certified and actually deadlock-free.
    for result in results:
        assert result.certified
        assert validate_deadlock_free(
            mesh, result.routing, raise_on_cycle=False
        ).deadlock_free

    emit(
        "co-design - deadlock-gate throughput (random minimal tables, 4x3)",
        f"{len(results)} tables certified in {elapsed:.2f}s "
        f"({rate:,.1f} tables/s), {repaired} repaired",
    )
    record_sample(
        "BENCH_codesign.json",
        {
            "bench": "codesign_gate",
            "tables_per_s": rate,
            "tables": len(results),
            "repaired": repaired,
        },
    )


@pytest.mark.benchmark(group="codesign-gate")
@pytest.mark.parametrize("size", [6, 8])
def test_closed_form_gate_against_route_walk(benchmark, size):
    mesh = Mesh(size, size)
    synthesizer = TableSynthesizer(mesh)
    seeds = list(synthesizer.seed_tables().values())
    tables = list(seeds)
    for i in range(GATE_TABLES // 2):
        tables.append(synthesizer.random_table(rng=BENCH_SEED + i))
        tables.append(
            synthesizer.mutate(
                seeds[i % len(seeds)], rng=BENCH_SEED + i, mutations=12
            )
        )
    routings = [SynthesizedRouting(table) for table in tables]
    walks = [RouteWalk(routing) for routing in routings]

    # Identity (never waived): the same graph and the same witness.
    cyclic = 0
    for routing, walk in zip(routings, walks):
        graph = channel_dependency_graph(mesh, routing)
        walk_graph = channel_dependency_graph(mesh, walk)
        assert graph == walk_graph
        witness = find_cycle(graph)
        assert witness == find_cycle(walk_graph)
        cyclic += bool(witness)

    def check_all(candidates):
        start = time.perf_counter()
        for routing in candidates:
            validate_deadlock_free(mesh, routing, raise_on_cycle=False)
        return time.perf_counter() - start

    def run():
        walk_s = closed_s = float("inf")
        for _ in range(GATE_ROUNDS):
            walk_s = min(walk_s, check_all(walks))
            closed_s = min(closed_s, check_all(routings))
        return walk_s, closed_s

    walk_s, closed_s = benchmark.pedantic(run, rounds=1, iterations=1)
    walk_rate = len(tables) / walk_s
    closed_rate = len(tables) / closed_s
    speedup = walk_s / closed_s

    emit(
        f"co-design - deadlock gate, closed form vs route walk ({size}x{size})",
        f"{len(tables)} tables ({cyclic} cyclic): route walk "
        f"{walk_rate:,.1f} checks/s, closed form {closed_rate:,.1f} checks/s "
        f"({speedup:.1f}x)",
    )
    record_sample(
        "BENCH_codesign.json",
        {
            "bench": "codesign_gate_closed_form",
            "fabric": f"{size}x{size}",
            "route_walk_checks_per_s": walk_rate,
            "closed_form_checks_per_s": closed_rate,
            "speedup": speedup,
            "tables": len(tables),
            "cyclic": cyclic,
        },
    )

    if size != 8:
        return
    if _SKIP_PERF_BARS:
        emit(
            "co-design - perf bar status",
            "closed-form gate bar waived via REPRO_BENCH_NO_PERF_BARS "
            "(graph and witness identity checks ran)",
        )
        return
    assert speedup >= GATE_SPEEDUP_BAR, (
        f"closed-form gate ran {speedup:.2f}x the route walk on 8x8, "
        f"below the {GATE_SPEEDUP_BAR}x bar"
    )


@pytest.mark.benchmark(group="codesign-front")
def test_codesign_front_vs_fixed_xy_nsga2(benchmark):
    cdcg = hub_gather_scatter()
    platform = Platform(mesh=Mesh(4, 3))
    initial = Mapping.random(cdcg.cores(), platform.num_tiles, rng=BENCH_SEED)

    def run():
        engine = CodesignSearch(cdcg, platform, CODESIGN_PARAMS)
        start = time.perf_counter()
        result = engine.search(initial=initial, rng=BENCH_SEED)
        elapsed = time.perf_counter() - start

        # Budget-matched baseline: mapping-only NSGA-II on the fixed XY
        # platform, same population and generations => same evaluations.
        context = CdcmEvaluationContext(cdcg, platform)
        baseline = NSGA2Search(
            Nsga2Parameters(
                population_size=CODESIGN_PARAMS.population_size,
                generations=CODESIGN_PARAMS.generations,
            ),
            keys=FRONT_KEYS,
        ).search(context, initial, rng=BENCH_SEED)
        return result, baseline, elapsed

    result, baseline, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.evaluations == baseline.evaluations

    # Identity assertions (never waived): the gate held, the front routings
    # are deadlock-free and the front reprices bit-identically.
    assert result.tables_certified >= 1
    for point, routing in zip(result.front, result.front_routings):
        assert validate_deadlock_free(
            platform.mesh, routing, raise_on_cycle=False
        ).deadlock_free
        context = CdcmEvaluationContext(cdcg, platform.with_routing(routing))
        assert context.metrics(point.mapping) == point.metrics

    union = list(result.front) + list(baseline.front)
    reference = {key: max(p.metrics[key] for p in union) for key in FRONT_KEYS}
    codesign_hv = hypervolume(result.front, reference=reference, keys=FRONT_KEYS)
    baseline_hv = hypervolume(baseline.front, reference=reference, keys=FRONT_KEYS)
    ratio = codesign_hv / baseline_hv if baseline_hv > 0 else None
    rate = result.evaluations / elapsed

    emit(
        "co-design - NSGA-III front vs budget-matched fixed-XY NSGA-II "
        "(hub gather/scatter hotspot, 4x3)",
        "\n".join(
            [
                f"co-design front: {len(result.front)} point(s), "
                f"{result.evaluations} evaluations in {elapsed:.2f}s "
                f"({rate:,.1f} evals/s)",
                f"gate traffic:    {result.tables_certified} certified, "
                f"{result.tables_repaired} repaired, "
                f"{result.tables_rejected} rejected",
                f"baseline front:  {len(baseline.front)} point(s) "
                f"(fixed XY, mapping-only NSGA-II, same budget)",
                f"hypervolume:     co-design {codesign_hv:,.0f} vs "
                f"fixed-XY {baseline_hv:,.0f} "
                + (
                    f"({ratio:.2f}x, shared reference)"
                    if ratio is not None
                    else "(baseline front fully dominated)"
                ),
            ]
        ),
    )
    record_sample(
        "BENCH_codesign.json",
        {
            "bench": "codesign_front",
            "evals_per_s": rate,
            "front_size": len(result.front),
            "codesign_hypervolume": codesign_hv,
            "baseline_hypervolume": baseline_hv,
            "hypervolume_ratio": ratio,
            "tables_certified": result.tables_certified,
            "tables_repaired": result.tables_repaired,
            "tables_rejected": result.tables_rejected,
        },
    )

    if _SKIP_PERF_BARS:
        emit(
            "co-design - perf bar status",
            "hypervolume bar waived via REPRO_BENCH_NO_PERF_BARS (identity "
            "and deadlock-gate checks ran)",
        )
        return
    # Widening the genome must not lose front quality at matched budget.
    assert codesign_hv >= baseline_hv
