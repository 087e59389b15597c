"""Check that simulated results depend only on the seed.

For every workload and two seeds (the default one, which the golden Table 2
rows are recorded for, and a second one nobody tunes against), run the
benchmark once untraced and once traced, each in its own process, and
require identical simulated execution time and energy.  Within each run the
benchmark already requires repeated (and traced) workload runs to agree.

Run from the repository root::

    python3 perfbench/check_determinism.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-table2", "cdcm-repair-sa", "cwm-nsga2", "codesign-nsga3")
SEEDS = (20050307, 11)


def _simulated(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return json.loads(lines[-2])["simulated"]


def main() -> int:
    mismatches = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            untraced = _simulated(workload, seed, 0)
            traced = _simulated(workload, seed, 1)
            same = untraced == traced
            mismatches += not same
            print(f"{workload:16s} seed {seed:>9}: {untraced} "
                  f"{'identical' if same else f'DIFFERS traced {traced}'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
