"""Record the report hashes that every benchmark run checks.

    python3 bench/record.py

Runs each workload, and the bundled-table analyses, at the reference
seed and writes their CSV and JSON SHA-256 hashes to bench/expected.json.
Reports are meant to stay byte-identical, so re-record only for a change
that states why its output differs.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import EXPECTED, REFERENCE_SEED, RUN_DEADLINE_S, SRC, WORK, _child
from workloads import WORKLOADS


def main():
    if not (SRC / "leastdiff" / "__init__.py").is_file():
        print(f"error: no leastdiff package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    reports, host = {}, None
    for name in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        result = _child(name, REFERENCE_SEED, workdir,
                        time.monotonic() + RUN_DEADLINE_S, reference=True)
        shutil.rmtree(workdir)
        if result is None or result["exit"] != 0:
            print(f"error: {name} failed", file=sys.stderr)
            return 1
        reports[name] = {"csv": result["csv"], "json": result["json"]}
        for bundled, got in result["bundled"].items():
            reports[bundled] = {"csv": got["csv"], "json": got["json"]}
        host = result["host"]
    EXPECTED.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "recorded_on": host, "reports": reports},
        indent=2,
    ) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
