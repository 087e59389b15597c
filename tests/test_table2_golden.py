"""The 15 small-NoC Table 2 rows stay byte-identical to the golden file.

``perfbench/workloads.py`` defines the ``paper-table2`` workload: CWM and
CDCM annealing on every small-NoC row of Table 1 at the default seed, with
the quick schedule, then a fresh re-price of both mappings.  Its golden rows
(``perfbench/golden/paper-table2.json``) print every digit of each row's ETR
and ECS values.  This test loads that file without changing it, the way
``tests/test_trace_points.py`` loads ``perfbench/tracing.py``, runs the
workload once and requires every row to match its golden line.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_paper_table2_rows_match_the_golden_file(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    golden = json.loads((PERFBENCH / "golden" / "paper-table2.json").read_text())["rows"]
    table = workloads.PaperTable2(workloads.DEFAULT_SEED)
    rows = table.setup()
    stamps = iter(range(1_000))
    result = table.run(rows, contextlib.nullcontext, lambda: next(stamps))
    assert (result.attempted, result.failed) == (15, 0)
    lines, _, _ = result.fingerprint
    assert list(lines) == golden
