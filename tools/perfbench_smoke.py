#!/usr/bin/env python
"""Smoke-run every repo benchmark workload, untraced and traced.

The benchmark (``perfbench/``, declared by ``BENCHMARK.json``) wraps library
functions by name for its lap timestamps and its traced layer table, so a
renamed or removed function breaks every benchmark invocation while the
test suite stays green.  This gate runs ``perfbench/run.py --workload W
--seconds 1`` for every workload named in ``BENCHMARK.json``, once with
``--trace 0`` and once with ``--trace 1``, and fails unless each invocation
exits 0 and its last output line reports ``"correct": true`` and
``"failed": 0``.  Times are not checked: one second buys the minimum number
of runs, enough to exercise every wrapped function and every output check.

CI runs this as the ``perfbench-smoke`` job; locally::

    python tools/perfbench_smoke.py

Exits non-zero when any invocation fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "perfbench" / "run.py"

#: Per-invocation wall-clock budget, generous even for shared CI runners.
TIMEOUT_SECONDS = 600


def _verdict(completed: subprocess.CompletedProcess) -> str:
    """``""`` for a clean invocation, else why it failed."""
    if completed.returncode != 0:
        return f"exit {completed.returncode}"
    lines = completed.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "last output line is not a JSON summary"
    if summary.get("correct") is not True or summary.get("failed") != 0:
        return f"correct={summary.get('correct')!r}, failed={summary.get('failed')!r}"
    return ""


def main() -> int:
    """Run every benchmark workload untraced and traced; report pass/fail."""
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    failures = []
    for name in workloads:
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            command = [
                sys.executable, str(RUNNER), "--workload", name,
                "--seconds", "1", "--trace", str(trace),
            ]
            start = time.perf_counter()
            try:
                completed = subprocess.run(
                    command,
                    cwd=REPO_ROOT,
                    capture_output=True,
                    text=True,
                    timeout=TIMEOUT_SECONDS,
                )
            except subprocess.TimeoutExpired:
                print(f"FAIL  {label} (timeout after {TIMEOUT_SECONDS}s)")
                failures.append(label)
                continue
            elapsed = time.perf_counter() - start
            problem = _verdict(completed)
            if problem:
                print(f"FAIL  {label} ({problem}, {elapsed:.1f}s)")
                output = (completed.stdout + completed.stderr).strip()
                if output:
                    print("\n".join(f"      {line}" for line in output.splitlines()[-25:]))
                failures.append(label)
            else:
                print(f"ok    {label} ({elapsed:.1f}s)")

    total = 2 * len(workloads)
    if failures:
        print(f"\nperfbench_smoke: {len(failures)} of {total} invocation(s) failed: "
              f"{', '.join(failures)}")
        return 1
    print(f"\nperfbench_smoke: all {total} invocation(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
