"""Microbenchmarks of the CDCM scheduler (the cost driver of every CDCM search).

Measures how one schedule replay scales with the number of packets and with
the NoC size — the quantities behind the paper's NDP-proportional complexity
claim — plus the raw throughput on the embedded applications.  The packet
sweep also times ``schedule_subset`` over every packet on the same
instances: both entry points run one replay loop, and the repair engine
reaches it through the subset call.

Schedulers price packet paths off the shared
:class:`~repro.eval.route_table.RouteTable`; the table is built (and cached)
when the scheduler is constructed, outside the timed region, so the numbers
below measure the replay itself, exactly as a search loop experiences it.

The last case prices the 12x10 Table 1 row through a memo-less
``CdcmEvaluationContext`` (the lean replay, no Figure-3 records) and through
``CdcmEvaluator.evaluate(...).metric_vector()`` (the recorded replay), and
asserts the lean path at >= 5x the recorded one.  Like the other perf bars
of the suite, the bar can be waived with ``REPRO_BENCH_NO_PERF_BARS=1``;
``REPRO_BENCH_RECORD=1`` appends both rates to ``BENCH_scheduler.json``.

The report-path case times one ``CdcmEvaluator.evaluate`` report on the
``codesign-nsga3`` shape (30 cores, 120 packets on 6x6) and on the 16x16
``cdcm-repair-sa`` shape (96 cores, 128 packets): ``evaluate()`` alone,
``evaluate()`` followed by reading the Figure-3 lists (built on first read),
and the lean ``metrics()``.  It asserts equal execution times, energies and
vectors and sets no bar; ``REPRO_BENCH_RECORD=1`` appends the three times.

The fresh-table case prices the co-design shape (30 cores, 120 packets on
6x6) on 20 distinct certified synthesized routings, each through a fresh
``CdcmEvaluator`` on a fresh table, as co-design prices every new routing.
It then replays the same mappings through a second fresh evaluator on each
table, and again through the first, now warm, evaluators.  Route link ids
are memoised on the table, so only the first replay on a table walks its
routes: the second evaluator pays its own CDCG set-up and no walk.  It
asserts equal vectors and sets no bar; ``REPRO_BENCH_RECORD=1`` appends the
three per-replay times.
"""

import os
import time

import pytest

from conftest import emit, record_sample
from repro.codesign import TableSynthesizer
from repro.core.cdcm import CdcmEvaluator
from repro.core.mapping import Mapping
from repro.eval.context import CdcmEvaluationContext
from repro.eval.route_table import RouteTable, get_route_table
from repro.noc.platform import Platform
from repro.noc.scheduler import CdcmScheduler
from repro.noc.topology import Mesh
from repro.workloads.embedded import embedded_applications
from repro.workloads.suite import table1_suite
from repro.workloads.tgff import TgffLikeGenerator, TgffSpec

_SKIP_PERF_BARS = os.environ.get("REPRO_BENCH_NO_PERF_BARS", "0") not in (
    "0",
    "",
    "false",
)


def _benchmark_case(num_cores: int, num_packets: int, mesh: Mesh, seed: int = 1):
    spec = TgffSpec(
        name=f"sched-{num_packets}",
        num_cores=num_cores,
        num_packets=num_packets,
        total_bits=num_packets * 640,
    )
    cdcg = TgffLikeGenerator(seed).generate(spec)
    platform = Platform(mesh=mesh)
    mapping = Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed)
    scheduler = CdcmScheduler(platform, route_table=get_route_table(platform))
    return scheduler, cdcg, mapping


@pytest.mark.benchmark(group="scheduler-packets")
@pytest.mark.parametrize("num_packets", [25, 100, 400])
def test_scheduler_scales_with_packets(benchmark, num_packets):
    scheduler, cdcg, mapping = _benchmark_case(
        num_cores=12, num_packets=num_packets, mesh=Mesh(4, 4)
    )
    result = benchmark(scheduler.schedule, cdcg, mapping)
    assert result.execution_time > 0
    assert len(result.packet_schedules) == num_packets


@pytest.mark.benchmark(group="scheduler-packets")
@pytest.mark.parametrize("num_packets", [25, 100, 400])
def test_full_cover_subset_scales_with_packets(benchmark, num_packets):
    scheduler, cdcg, mapping = _benchmark_case(
        num_cores=12, num_packets=num_packets, mesh=Mesh(4, 4)
    )
    tile_of = mapping.assignments()
    names = [p.name for p in cdcg.packets]
    result = benchmark(scheduler.schedule_subset, cdcg, tile_of, names)
    assert len(result.schedules) == num_packets
    assert result.schedules == scheduler.schedule(cdcg, mapping).packet_schedules


@pytest.mark.benchmark(group="scheduler-mesh")
@pytest.mark.parametrize("width,height", [(3, 3), (6, 6), (10, 10)])
def test_scheduler_scales_with_mesh(benchmark, width, height):
    mesh = Mesh(width, height)
    scheduler, cdcg, mapping = _benchmark_case(
        num_cores=min(20, mesh.num_tiles), num_packets=150, mesh=mesh
    )
    result = benchmark(scheduler.schedule, cdcg, mapping)
    assert result.execution_time > 0


@pytest.mark.benchmark(group="scheduler-embedded")
@pytest.mark.parametrize("app_name", ["fft8", "object-recognition", "image-encoder"])
def test_scheduler_on_embedded_applications(benchmark, app_name):
    cdcg = embedded_applications()[app_name]
    platform = Platform(mesh=Mesh(3, 3))
    mapping = Mapping.random(cdcg.cores(), platform.num_tiles, rng=2)
    scheduler = CdcmScheduler(platform)
    result = benchmark(scheduler.schedule, cdcg, mapping)
    assert result.execution_time >= cdcg.critical_path_time()


def _median_seconds(fn, mappings, rounds: int) -> float:
    """Median wall time of one call of *fn* over *mappings*, *rounds* passes."""
    times = []
    for _ in range(rounds):
        for mapping in mappings:
            start = time.perf_counter()
            fn(mapping)
            times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


@pytest.mark.benchmark(group="scheduler-lean")
def test_lean_pricing_beats_the_recorded_replay(benchmark):
    entry = next(e for e in table1_suite() if e.name == "12x10")
    cdcg = entry.build()
    platform = Platform(mesh=entry.mesh)
    mappings = [
        Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed) for seed in range(8)
    ]
    context = CdcmEvaluationContext(cdcg, platform, cache_size=0)
    evaluator = CdcmEvaluator(platform)
    for mapping in mappings:
        recorded = evaluator.evaluate(cdcg, mapping).metric_vector()
        assert context.metrics(mapping) == recorded

    def run():
        lean = _median_seconds(context.metrics, mappings, rounds=8)
        recorded = _median_seconds(
            lambda m: evaluator.evaluate(cdcg, m).metric_vector(), mappings, rounds=2
        )
        return lean, recorded

    lean, recorded = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "CDCM pricing - lean replay vs recorded replay (12x10 Table 1 row)",
        f"{'path':<10} {'ms/candidate':>13} {'candidates/s':>13}\n"
        f"{'lean':<10} {lean * 1e3:>13.3f} {1 / lean:>13,.0f}\n"
        f"{'recorded':<10} {recorded * 1e3:>13.3f} {1 / recorded:>13,.0f}\n"
        f"speedup: {recorded / lean:.1f}x",
    )
    record_sample(
        "BENCH_scheduler.json",
        {
            "bench": "bench_scheduler",
            "lean_candidates_per_s": 1 / lean,
            "recorded_candidates_per_s": 1 / recorded,
            "speedup": recorded / lean,
        },
    )
    if _SKIP_PERF_BARS:
        pytest.skip(">= 5x bar waived via REPRO_BENCH_NO_PERF_BARS")
    assert recorded >= 5.0 * lean


def _certified_routings(mesh: Mesh, count: int):
    """*count* distinct certified routings: mutated seed tables, repaired.

    (A uniformly random 6x6 table almost never certifies; its repair ends on
    the fallback table.)
    """
    synthesizer = TableSynthesizer(mesh)
    seeds = list(synthesizer.seed_tables().values())
    routings = {}
    for seed in range(10 * count):
        table = synthesizer.mutate(seeds[seed % len(seeds)], rng=seed, mutations=4)
        routing = synthesizer.certify(table).routing
        routings.setdefault(routing.digest, routing)
        if len(routings) == count:
            return list(routings.values())
    raise AssertionError(f"fewer than {count} distinct certified routings")


@pytest.mark.benchmark(group="scheduler-fresh-table")
def test_fresh_table_replays(benchmark):
    spec = TgffSpec(
        name="codesign-30", num_cores=30, num_packets=120, total_bits=120 * 4_096
    )
    cdcg = TgffLikeGenerator(1).generate(spec)
    platform = Platform(mesh=Mesh(6, 6))
    platforms = [
        platform.with_routing(routing)
        for routing in _certified_routings(platform.mesh, 20)
    ]
    mappings = [
        Mapping.random(cdcg.cores(), platform.num_tiles, rng=seed)
        for seed in range(len(platforms))
    ]

    def run():
        fresh, shared, warm, vectors = [], [], [], []
        for _ in range(5):
            # Tables and evaluators are built outside the timed calls.
            bound = [(routed, RouteTable.for_platform(routed)) for routed in platforms]
            firsts = [CdcmEvaluator(routed, route_table=tab) for routed, tab in bound]
            seconds = [CdcmEvaluator(routed, route_table=tab) for routed, tab in bound]
            passes = ((fresh, firsts), (shared, seconds), (warm, firsts))
            for times, evaluators in passes:
                pass_vectors = []
                for evaluator, mapping in zip(evaluators, mappings):
                    start = time.perf_counter()
                    vector = evaluator.metrics(cdcg, mapping)
                    times.append(time.perf_counter() - start)
                    pass_vectors.append(vector)
                vectors.append(pass_vectors)
        medians = [sorted(times)[len(times) // 2] for times in (fresh, shared, warm)]
        return medians, vectors

    (fresh, shared, warm), vectors = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(pass_vectors == vectors[0] for pass_vectors in vectors)
    emit(
        "CDCM replay on a fresh route table, by a second evaluator on it, and "
        "warm (30 cores, 120 packets, 6x6, 20 certified synthesized routings)",
        f"{'replay':<16} {'ms/replay':>10}\n"
        f"{'fresh table':<16} {fresh * 1e3:>10.3f}\n"
        f"{'second evaluator':<16} {shared * 1e3:>10.3f}\n"
        f"{'warm':<16} {warm * 1e3:>10.3f}",
    )
    record_sample(
        "BENCH_scheduler.json",
        {
            "bench": "bench_scheduler_fresh_table",
            "fresh_table_replay_s": fresh,
            "second_evaluator_replay_s": shared,
            "warm_table_replay_s": warm,
        },
    )


REPORT_SHAPES = {
    "codesign-nsga3": (
        TgffSpec(name="codesign-30", num_cores=30, num_packets=120, total_bits=120 * 4_096),
        Mesh(6, 6),
    ),
    "cdcm-repair-sa": (
        TgffSpec(
            name="repair-16x16",
            num_cores=96,
            num_packets=128,
            total_bits=128 * 4_096,
            levels=8,
            computation_scale=16.0,
        ),
        Mesh(16, 16),
    ),
}


@pytest.mark.benchmark(group="scheduler-report")
@pytest.mark.parametrize("shape", sorted(REPORT_SHAPES))
def test_report_path(benchmark, shape):
    spec, mesh = REPORT_SHAPES[shape]
    cdcg = TgffLikeGenerator(1).generate(spec)
    platform = Platform(mesh=mesh)
    evaluator = CdcmEvaluator(platform)
    mapping = Mapping.random(cdcg.cores(), platform.num_tiles, rng=3)
    report = evaluator.evaluate(cdcg, mapping)
    read = evaluator.evaluate(cdcg, mapping)
    read.schedule.occupations
    lean = evaluator.metrics(cdcg, mapping)
    assert report.execution_time == read.execution_time == lean["time"]
    assert report.energy == read.energy
    assert report.total_energy == lean["energy"]
    assert report.metric_vector() == read.metric_vector() == lean

    def run():
        return (
            _median_seconds(lambda m: evaluator.evaluate(cdcg, m), [mapping], 30),
            _median_seconds(
                lambda m: evaluator.evaluate(cdcg, m).schedule.occupations, [mapping], 30
            ),
            _median_seconds(lambda m: evaluator.metrics(cdcg, m), [mapping], 30),
        )

    report_s, read_s, lean_s = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"CDCM report path ({shape} shape), median of 30",
        f"{'call':<24} {'ms':>8}\n"
        f"{'evaluate()':<24} {report_s * 1e3:>8.3f}\n"
        f"{'evaluate() + lists':<24} {read_s * 1e3:>8.3f}\n"
        f"{'metrics() (lean)':<24} {lean_s * 1e3:>8.3f}",
    )
    record_sample(
        "BENCH_scheduler.json",
        {
            "bench": f"bench_scheduler_report_{shape}",
            "evaluate_s": report_s,
            "evaluate_and_lists_s": read_s,
            "lean_metrics_s": lean_s,
        },
    )
