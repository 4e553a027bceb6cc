"""Golden reports: the bundled-table analyses at default flags must hash
to the SHA-256 values the benchmark records in bench/expected.json.

The hashes pin the exact bytes of the CSV and JSON reports, so they only
hold on the numpy and scipy versions they were recorded with; on any
other version the test is skipped.
"""
import hashlib
import json
from pathlib import Path

import numpy
import pytest
import scipy

from conftest import run_cli
from leastdiff import datasets

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.filterwarnings("ignore::leastdiff.NonpositiveControlWarning")
@pytest.mark.parametrize("name, argv", [
    ("cholesterol-relative", ["analyze", datasets.cholesterol_path()]),
    ("plaque-size-raw",
     ["analyze", datasets.plaque_size_path(), "--scale", "raw"]),
])
def test_bundled_analysis_matches_recorded_hashes(tmp_path, name, argv):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    recorded = expected["recorded_on"]
    if (numpy.__version__, scipy.__version__) != (
        recorded["numpy"], recorded["scipy"]
    ):
        pytest.skip(
            f"hashes recorded on numpy {recorded['numpy']} / scipy "
            f"{recorded['scipy']}, running numpy {numpy.__version__} / "
            f"scipy {scipy.__version__}"
        )
    out_csv, out_json = tmp_path / "report.csv", tmp_path / "report.json"
    code, _ = run_cli(argv + ["--out-csv", str(out_csv),
                              "--out-json", str(out_json)])
    assert code == 0
    want = expected["reports"][name]
    assert _sha256(out_csv) == want["csv"]
    assert _sha256(out_json) == want["json"]
