"""Record the golden ``paper-table2`` rows for the default seed.

Run from the repository root only when a change is meant to alter the
reproduced Table 2 rows::

    python3 perfbench/record_golden.py

The benchmark then requires every ``paper-table2`` run at the default seed
to reproduce these rows byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from laps import Laps
    from workloads import DEFAULT_SEED, GOLDEN_TABLE2, PaperTable2

    workload = PaperTable2(DEFAULT_SEED, check_golden=False)
    result = workload.run(workload.setup(), contextlib.nullcontext, Laps().mark)
    if result.failed:
        print("a row failed its checks; nothing recorded", file=sys.stderr)
        return 1
    lines = list(result.fingerprint[0])
    GOLDEN_TABLE2.parent.mkdir(exist_ok=True)
    GOLDEN_TABLE2.write_text(
        json.dumps({"seed": DEFAULT_SEED, "rows": lines}, indent=1) + "\n"
    )
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
