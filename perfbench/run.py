"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cdcm-repair-sa --seed 7 --seconds 20 --trace 0

The run sets the workload up and runs it, again and again until
``--seconds`` is spent; every set-up starts from a cold route-table cache
and every run's outputs are checked.  Times are sums of per-segment minima
over the repeats, scaled to a reference host speed (see ``laps.py``).
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced runs alternate and the last
line carries the per-layer metrics instead, and every recorded span is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from laps import (
    REFERENCE_S,
    Laps,
    SegmentMinimum,
    install as install_laps,
    reference_work,
    span_seconds,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: An untraced invocation times at least this many runs after its warm-up
#: run, however long they take.
MIN_TIMED_RUNS = 8

#: A traced invocation starts no run that would end later than this many
#: seconds into measuring, once it has one untraced and one traced run.
TRACE_LIMIT_S = 110.0


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _set_up(workload, clear_cache, laps, segments=None):
    """One set-up from a cold route-table cache; returns its state.

    The set-up's lap timestamps go into *segments*, when given.
    """
    clear_cache()
    gc.collect()
    laps.clear()
    laps.mark()
    state = workload.setup()
    laps.mark()
    if segments is not None:
        segments.add(laps.stamps)
    return state


def _run_once(workload, state, laps, tracer=None):
    """One workload run: ``(traced, wall s, result, search wall s)``.

    The result is None if the run raised; the search time is None unless
    the run is clean.  With a *tracer* the run is traced under its root span.
    """
    from tracing import CHECK_SPAN, ROOT_SPAN

    # Every run starts from the same collector state, so collections fall
    # into the same segments of every run.
    gc.collect()
    laps.clear()
    laps.mark()
    checking = contextlib.nullcontext
    if tracer is not None:
        checking = lambda: tracer.paused(CHECK_SPAN)
        tracer.armed = True
        tracer.begin(ROOT_SPAN)
    try:
        result = workload.run(state, checking, laps.mark)
    except Exception:  # the run's failure is counted, not fatal
        print(f"FAILED {workload.name} run:\n{traceback.format_exc()}", file=sys.stderr)
        result = None
    if tracer is not None:
        tracer.end()
        tracer.armed = False
    laps.mark()
    wall = span_seconds(laps.stamps, [(0, len(laps.stamps) - 1)])
    search_wall = None
    if result is not None and result.failed == 0:
        search_wall = span_seconds(laps.stamps, result.search_spans)
    return tracer is not None, wall, result, search_wall


def _measure(workload, seconds: float, laps, clear_cache):
    """Set up and run until *seconds* are spent; return the runs and minima.

    Each run works on a set-up made just before it, and the reference work
    runs between the two, so set-ups, reference and runs are all timed
    across the whole invocation.  The first run warms up and is checked but
    not timed.  A set-up and run is not started when the longest one so far
    would overrun the budget, once :data:`MIN_TIMED_RUNS` runs are timed.
    """
    setups, reference, timed = SegmentMinimum(), SegmentMinimum(), SegmentMinimum()
    runs = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        state = _set_up(workload, clear_cache, laps, setups)
        laps.clear()
        reference_work(laps)
        reference.add(laps.stamps)
        run = _run_once(workload, state, laps)
        if runs and run[3] is not None:
            timed.add(laps.stamps)
        runs.append(run)
        now = time.perf_counter()
        longest = max(longest, now - began)
        if len(runs) > MIN_TIMED_RUNS and now - start + longest > seconds:
            return runs, setups, reference, timed


def _measure_traced(workload, state, seconds: float, tracer, laps):
    """Alternate untraced and traced runs until *seconds* are spent.

    The runs start and end untraced (at least three), so the first run's
    warm-up does not bias the overhead ratio.
    """
    runs = []
    start = time.perf_counter()
    while True:
        traced = len(runs) % 2 == 1
        runs.append(_run_once(workload, state, laps, tracer if traced else None))
        elapsed = time.perf_counter() - start
        longest = max(run[1] for run in runs)
        if len(runs) >= 3 and elapsed + longest > seconds and not traced:
            return runs
        if len(runs) >= 2 and elapsed + longest > TRACE_LIMIT_S:
            return runs


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.eval.route_table import clear_route_table_cache
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload](seed)

    laps = Laps()
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        state = _set_up(workload, clear_route_table_cache, laps)
        tracer = Tracer()
        install(tracer)
        runs = _measure_traced(workload, state, args.seconds, tracer, laps)
    else:
        install_laps(laps)
        runs, setups, reference, timed = _measure(
            workload, args.seconds, laps, clear_route_table_cache
        )

    results = [result for _, _, result, _ in runs if result is not None]
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    lost = len(runs) - len(results)
    if lost:  # a run that raised outside its own bookkeeping
        attempted += lost
        failed += lost
    clean = [result for result in results if result.failed == 0]
    if not clean:
        print(f"{workload.name}: no run completed cleanly", file=sys.stderr)
        return 1
    fingerprints = {result.fingerprint for result in clean}
    deterministic = len(fingerprints) == 1
    if not deterministic:
        print(f"{workload.name}: repeated runs disagree on simulated results",
              file=sys.stderr)

    untraced = [
        (wall, result, search_wall)
        for traced, wall, result, search_wall in runs
        if not traced and search_wall is not None
    ]
    if not untraced:
        print(f"{workload.name}: no untraced run completed cleanly", file=sys.stderr)
        return 1
    walls = [wall for wall, _, _ in untraced]
    summary = {
        "host": _host(),
        "workload": workload.name,
        "seed": seed,
        "runs": len(runs),
        "run_s_samples": [wall for _, wall, _, _ in runs],
        "error_rate": failed / attempted if attempted else 1.0,
        "simulated": {"texec_ns": clean[0].texec_ns, "energy_pj": clean[0].energy_pj},
    }
    if tracer is None:
        if not (setups.aligned and timed.aligned and timed.repeats):
            print(f"{workload.name}: repeats do not line up into segments",
                  file=sys.stderr)
            return 1
        summary["segments"] = {"setup": len(setups.best), "run": len(timed.best),
                               "timed_runs": timed.repeats}
        # Host seconds, scaled to the reference host speed (see laps.py).
        scale = REFERENCE_S / reference.seconds()
        summary["unscaled_s"] = {"reference": reference.seconds(),
                                 "setup": setups.seconds(), "run": timed.seconds()}
        run_s = timed.seconds() * scale
        search_s = timed.seconds(untraced[0][1].search_spans) * scale
        setup_s = setups.seconds() * scale
        metrics = {
            "evals_per_s": (clean[0].evaluations / search_s, "1/s"),
            "run_s": (run_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "best_texec_ns": (clean[0].texec_ns, "ns"),
            "best_energy_pj": (clean[0].energy_pj, "pJ"),
        }
    else:
        from tracing import layer_metrics

        traced_runs = [(wall, result) for traced, wall, result, _ in runs if traced]
        counters = {}
        for _, result in traced_runs:
            for key, value in (result.counters if result else {}).items():
                counters[key] = counters.get(key, 0) + value
        layers = layer_metrics(tracer, counters, len(traced_runs))
        layers["trace.overhead_ratio"] = statistics.median(
            wall for wall, _ in traced_runs
        ) / statistics.median(walls)
        layers["error_rate"] = summary["error_rate"]
        metrics = {
            name: (value, _layer_unit(name)) for name, value in layers.items()
        }
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{workload.name}-{seed}.jsonl"
        tracer.write(str(trace_path), summary)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "error_rate")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
