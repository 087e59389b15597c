"""The gain-protocol tool (``tools/perfbench_pairs.py``) on canned output lines.

No benchmark is started: the statistics, the verdicts and the agreement
check run on the two JSON lines an invocation of ``perfbench/run.py``
prints, written out here by hand.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perfbench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the tool's dataclass looks itself up
    spec.loader.exec_module(module)
    return module


pairs = _load_tool()

HOST = {"cpus": 2, "python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}

END_TO_END = [
    {"name": "evals_per_s", "better": "higher", "bound": 0.25},
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "best_texec_ns", "better": "lower", "bound": 0.2},
    {"name": "best_energy_pj", "better": "lower", "bound": 0.2},
]


def _output(evals, run_s, samples, texec=100.0, energy=5.0, failed=0):
    """The two last lines of an untraced invocation."""
    summary = {"host": HOST, "workload": "w", "seed": 1, "runs": len(samples),
               "run_s_samples": samples, "error_rate": 0.0}
    metrics = {
        "evals_per_s": {"value": evals, "unit": "1/s"},
        "run_s": {"value": run_s, "unit": "s"},
        "best_texec_ns": {"value": texec, "unit": "ns"},
        "best_energy_pj": {"value": energy, "unit": "pJ"},
    }
    result = {"correct": failed == 0, "attempted": 4, "failed": failed,
              "metrics": metrics}
    return "progress noise\n" + json.dumps(summary) + "\n" + json.dumps(result) + "\n"


def test_parse_reads_metrics_wall_median_and_host():
    invocation = pairs.parse_invocation(_output(20_000.0, 0.15, [0.3, 0.2, 0.25]))
    assert invocation.metrics["evals_per_s"] == 20_000.0
    assert invocation.wall_s == 0.25
    assert invocation.host == HOST
    assert invocation.correct and invocation.failed == 0


def test_parse_rejects_truncated_output():
    with pytest.raises(ValueError):
        pairs.parse_invocation(json.dumps({"correct": True}))


def test_quartiles_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_gain_needs_nine_of_ten_wins_and_a_gap_above_the_spread():
    parent = [100.0 + index for index in range(10)]  # quartiles 102.25, 106.75
    change = [value + 20.0 for value in parent]
    stats = pairs.compare(parent, change, "higher", 0.25)
    assert stats["wins"] == 10
    assert stats["gap"] == pytest.approx(20.0)
    assert stats["parent_spread"] == pytest.approx(4.5)
    assert stats["gain"] and stats["within_bound"]

    # Eight wins are not enough, however large the gap.
    eight = change[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert pairs.compare(parent, eight, "higher")["wins"] == 8
    assert not pairs.compare(parent, eight, "higher")["gain"]

    # Ten wins by less than the parent's spread are not a gain either.
    narrow = [value + 1.0 for value in parent]
    stats = pairs.compare(parent, narrow, "higher")
    assert stats["wins"] == 10 and not stats["gain"]
    assert "within_bound" not in stats


def test_lower_is_better_and_the_bound():
    parent = [1.0] * 10
    faster = [0.8] * 10
    stats = pairs.compare(parent, faster, "lower", 0.25)
    assert stats["wins"] == 10 and stats["gap"] == pytest.approx(0.2)
    assert stats["gain"]  # a zero spread is beaten by any positive gap
    slower = pairs.compare(parent, [1.3] * 10, "lower", 0.25)
    assert slower["wins"] == 0
    assert slower["worse_by"] == pytest.approx(0.3)
    assert not slower["within_bound"]
    assert pairs.compare(parent, [1.2] * 10, "lower", 0.25)["within_bound"]


def test_ties_are_not_wins():
    stats = pairs.compare([5.0, 5.0], [5.0, 5.0], "lower", 0.2)
    assert stats["wins"] == 0 and not stats["gain"] and stats["within_bound"]


def test_summary_table_and_agreement():
    parents = [pairs.parse_invocation(_output(20_000.0 + i, 0.15, [0.2, 0.21]))
               for i in range(10)]
    changes = [pairs.parse_invocation(_output(24_000.0 + i, 0.12, [0.17, 0.18]))
               for i in range(10)]
    record = pairs.summarise("cwm-nsga2", parents, changes, END_TO_END)
    assert record["metrics"]["evals_per_s"]["gain"]
    assert record["metrics"]["run_s"]["gain"]
    assert record["wall_s"]["wins"] == 10
    assert record["disagreements"] == []
    assert not pairs.failed(record)
    table = "\n".join(pairs.format_record(record))
    assert "evals_per_s" in table and "wins 10/10" in table and "GAIN" in table
    assert "wall_s" in table and '"numpy": "2.4.6"' in table
    assert "pairs agree" in table


def test_a_pair_that_disagrees_fails_the_record():
    parents = [pairs.parse_invocation(_output(1.0, 1.0, [1.0])) for _ in range(2)]
    changes = [
        pairs.parse_invocation(_output(1.0, 1.0, [1.0])),
        pairs.parse_invocation(_output(1.0, 1.0, [1.0], energy=4.0, failed=1)),
    ]
    record = pairs.summarise("w", parents, changes, END_TO_END)
    assert record["disagreements"] == [
        "pair 2: best_energy_pj 5.0 -> 4.0",
        "pair 2: correct True -> False",
        "pair 2: failed 0 -> 1",
    ]
    assert pairs.failed(record)
    assert "DISAGREE" in "\n".join(pairs.format_record(record))


def test_compare_rejects_unpaired_readings():
    with pytest.raises(ValueError):
        pairs.compare([1.0, 2.0], [1.0], "lower")
