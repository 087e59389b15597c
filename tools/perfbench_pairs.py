#!/usr/bin/env python
"""Compare two revisions with alternating benchmark pairs (the gain protocol).

A speed claim rests on paired benchmark invocations, not on one run each:
this host changes speed in phases, so one pair says little, and the side
that runs first or second gains or loses by where the phases fall.  This
tool runs ``perfbench/run.py`` on a parent revision and on the change, one
process at a time, alternating which side goes first (odd pairs run the
parent first), and reads the two JSON lines each invocation prints.

Per end-to-end metric named in ``BENCHMARK.json`` it prints:

* both medians and both quartiles (``statistics.quantiles``, inclusive);
* the pair wins: pairs in which the change reads better than the parent;
* the gap: the change median minus the parent median, signed so that a
  positive gap is better, against the spread of the parent's quartiles;
* the gain verdict: at least nine in ten pairs won and a gap above the
  parent's spread;
* the bound check: the change median is no worse than the parent median by
  more than the metric's bound.

Beside them it prints the same statistics over each invocation's plain wall
times (the median of ``run_s_samples`` on its summary line), so a reading
of the segment-minimum metrics that the wall clock does not share shows in
the table.  It checks that ``best_*``, ``correct`` and ``failed`` agree in
every pair and prints the host line.  ``--out`` writes one JSON record of
everything printed.

The parent tree is exported with ``git archive`` into a temporary directory,
removed afterwards; the change is the repository checkout as it stands, or
another revision exported the same way.  Nothing under ``perfbench/`` is
edited.  From the repository root::

    python tools/perfbench_pairs.py --parent HEAD~1 --workload cwm-nsga2 \\
        --seed 7919 --pairs 10 --seconds 40 --out pairs.json

Exits 1 when a pair disagrees or a metric breaks its bound, else 0.  Ten
pairs of one workload at 40 s take about 15 minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win for a gain (nine in ten).
WIN_SHARE = 0.9

#: Per-invocation wall-clock budget beyond ``--seconds``.
TIMEOUT_MARGIN_S = 600

#: Keys that must read the same on both sides of every pair.
AGREEING = ("best_texec_ns", "best_energy_pj", "correct", "failed")


@dataclass(frozen=True)
class Invocation:
    """What one ``perfbench/run.py`` invocation printed."""

    metrics: Dict[str, float]
    correct: bool
    failed: int
    #: Median wall time of the invocation's runs (``run_s_samples``).
    wall_s: float
    host: Dict[str, object]

    def agreeing(self) -> Dict[str, object]:
        """The values both sides of a pair must share."""
        values = {key: self.metrics.get(key) for key in AGREEING[:2]}
        values.update(correct=self.correct, failed=self.failed)
        return values


def parse_invocation(stdout: str) -> Invocation:
    """Read an invocation's summary line and its last (metrics) line."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("expected a summary line and a metrics line")
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    return Invocation(
        metrics={
            name: float(entry["value"]) for name, entry in result["metrics"].items()
        },
        correct=bool(result["correct"]),
        failed=int(result["failed"]),
        wall_s=statistics.median(summary["run_s_samples"]),
        host=summary["host"],
    )


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of *values* (inclusive method; one value repeats)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float] = None,
) -> Dict[str, object]:
    """The protocol's statistics for one metric over paired readings.

    *parent* and *change* are aligned by pair; *better* is ``"higher"`` or
    ``"lower"``; *bound* is the largest relative worsening allowed (none
    when ``None``).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("expected the same, non-zero number of readings per side")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (c_median - p_median) + 0.0  # no negative zero
    spread = p_q3 - p_q1
    record: Dict[str, object] = {
        "parent": list(parent),
        "change": list(change),
        "parent_median": p_median,
        "parent_quartiles": [p_q1, p_q3],
        "change_median": c_median,
        "change_quartiles": [c_q1, c_q3],
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_spread": spread,
        "gain": wins >= math.ceil(WIN_SHARE * len(parent)) and gap > spread,
    }
    if bound is not None:
        worse = -gap / abs(p_median) if p_median else (math.inf if gap < 0 else 0.0)
        record["worse_by"] = worse
        record["within_bound"] = worse <= bound
    return record


def disagreements(
    parents: Sequence[Invocation], changes: Sequence[Invocation]
) -> List[str]:
    """One line per pair and key on which the two sides differ."""
    lines = []
    for number, (parent, change) in enumerate(zip(parents, changes), start=1):
        theirs, ours = parent.agreeing(), change.agreeing()
        for key in AGREEING:
            if theirs[key] != ours[key]:
                lines.append(f"pair {number}: {key} {theirs[key]!r} -> {ours[key]!r}")
    return lines


def summarise(
    workload: str,
    parents: Sequence[Invocation],
    changes: Sequence[Invocation],
    end_to_end: Sequence[dict],
) -> Dict[str, object]:
    """The workload's record: every end-to-end metric, the wall times, agreement."""
    metrics = {}
    for entry in end_to_end:
        name = entry["name"]
        if all(name in side.metrics for side in (*parents, *changes)):
            metrics[name] = compare(
                [side.metrics[name] for side in parents],
                [side.metrics[name] for side in changes],
                entry["better"],
                entry.get("bound"),
            )
    return {
        "workload": workload,
        "metrics": metrics,
        "wall_s": compare(
            [side.wall_s for side in parents],
            [side.wall_s for side in changes],
            "lower",
        ),
        "disagreements": disagreements(parents, changes),
        "host": (changes or parents)[0].host,
    }


def _number(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def format_record(record: Dict[str, object]) -> List[str]:
    """The printed table of one workload's record."""
    lines = [f"== {record['workload']}  host {json.dumps(record['host'], sort_keys=True)}"]
    rows = [(name, stats) for name, stats in record["metrics"].items()]
    rows.append(("wall_s (median run_s_samples)", record["wall_s"]))
    for name, stats in rows:
        p_q1, p_q3 = stats["parent_quartiles"]
        c_q1, c_q3 = stats["change_quartiles"]
        verdict = "GAIN" if stats["gain"] else "no gain"
        if "within_bound" in stats:
            verdict += ", within bound" if stats["within_bound"] else ", BOUND BROKEN"
        lines.append(
            f"{name:32s} {_number(stats['parent_median'])} "
            f"[{_number(p_q1)}, {_number(p_q3)}] -> {_number(stats['change_median'])} "
            f"[{_number(c_q1)}, {_number(c_q3)}]  wins {stats['wins']}/{stats['pairs']}"
            f"  gap {_number(stats['gap'])} vs spread {_number(stats['parent_spread'])}"
            f"  {verdict}"
        )
    problems = record["disagreements"]
    lines.append("pairs agree on " + ", ".join(AGREEING) if not problems
                 else "DISAGREE: " + "; ".join(problems))
    return lines


def failed(record: Dict[str, object]) -> bool:
    """Whether a pair disagrees or a metric breaks its bound."""
    broken = any(
        stats.get("within_bound") is False for stats in record["metrics"].values()
    )
    return broken or bool(record["disagreements"])


def export_tree(revision: str, into: Path) -> Path:
    """Export the committed files of *revision* under *into*; return the root."""
    archive = into / "tree.tar"
    with archive.open("wb") as handle:
        subprocess.run(
            ["git", "archive", "--format=tar", revision],
            cwd=REPO_ROOT, stdout=handle, check=True,
        )
    root = into / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")
    archive.unlink()
    return root


def invoke(tree: Path, workload: str, seed: int, seconds: float) -> Invocation:
    """One untraced benchmark invocation on *tree*."""
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=tree, capture_output=True, text=True,
        timeout=seconds + TIMEOUT_MARGIN_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} on {tree} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()[-2000:]}"
        )
    return parse_invocation(completed.stdout)


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default=None,
                        help="revision of the change (default: the checkout as it stands)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    end_to_end = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = []
    with tempfile.TemporaryDirectory(prefix="perfbench-pairs-") as scratch:
        scratch = Path(scratch)
        (scratch / "parent").mkdir()
        trees = {"parent": export_tree(args.parent, scratch / "parent")}
        if args.change is None:
            trees["change"] = REPO_ROOT
        else:
            (scratch / "change").mkdir()
            trees["change"] = export_tree(args.change, scratch / "change")
        for workload in args.workload:
            readings: Dict[str, List[Invocation]] = {"parent": [], "change": []}
            for number in range(1, args.pairs + 1):
                order = ("parent", "change") if number % 2 else ("change", "parent")
                for side in order:
                    readings[side].append(
                        invoke(trees[side], workload, args.seed, args.seconds)
                    )
                print(f"{workload}: pair {number}/{args.pairs} done", flush=True)
            record = summarise(
                workload, readings["parent"], readings["change"], end_to_end
            )
            print("\n".join(format_record(record)), flush=True)
            records.append(record)
    args.out.write_text(json.dumps({
        "parent": args.parent,
        "change": args.change or "checkout",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": records,
    }, indent=1))
    return 1 if any(failed(record) for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
