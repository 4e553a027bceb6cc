"""End-to-end command line checks: exit codes, output formats, determinism.

Runs the real entry point in-process via conftest.run_cli, so exit codes
and stdout are exactly what a shell invocation would see.
"""
import csv
import io
import json
import subprocess
import sys

import pytest

import leastdiff as ld
from conftest import run_cli
from leastdiff.analyze import ANALYSIS_COLUMNS
from leastdiff.cli import CORRELATE_COLUMNS, RISK_COLUMNS

GOOD_TABLE = """\
id,label_control,xbar,sx,m,label_experiment,ybar,sy,n,units,alpha,source
1,control,100,5,10,treated,60,5,10,mg/dL,0.05,trial-a
2,control,100,10,10,treated,99,10,10,mg/dL,0.05,trial-b
3,placebo,80,8,12,dose,64,6,9,,1/20,trial-c
"""

# control group mean sits within a couple of standard errors of zero, so
# the relative posterior is withheld
FRAIL_TABLE = """\
id,label_control,xbar,sx,m,label_experiment,ybar,sy,n,units,alpha,source
1,control,0.5,2.0,4,treated,2.0,1.0,4,,0.05,frail
"""


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = tuple(rows[0])
    return header, [dict(zip(header, cells)) for cells in rows[1:]]


def assert_json_matches_csv(json_row, csv_row, columns):
    # the CSV is the JSON rounded to 6 significant digits, nothing more
    for col in columns:
        value = json_row[col]
        cell = csv_row[col]
        if value is None:
            assert cell in ("", "nan")
        elif isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif isinstance(value, int):
            assert cell == str(value)
        elif isinstance(value, float):
            assert cell == f"{value:.6g}"
        else:
            assert cell == value


@pytest.fixture
def studies_file(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text(GOOD_TABLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def frail_file(tmp_path):
    path = tmp_path / "frail.csv"
    path.write_text(FRAIL_TABLE, encoding="utf-8")
    return str(path)


class TestAnalyzeCommand:
    def test_stdout_csv_by_default(self, studies_file):
        code, out = run_cli(
            ["analyze", studies_file, "--draws", "2000"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ANALYSIS_COLUMNS
        assert [r["id"] for r in rows] == ["1", "2", "3"]
        assert rows[2]["alpha"] == "0.05"

    def test_designations_on_known_rows(self, studies_file):
        code, out = run_cli(
            ["analyze", studies_file, "--draws", "2000"])
        assert code == 0
        _, rows = parse_csv(out)
        # a 40% drop clears the default 20% region; a 1% drop cannot even
        # leave zero behind
        assert rows[0]["designation"] == "practically_significant"
        assert rows[0]["practically_significant"] == "true"
        assert float(rows[0]["r_delta_l"]) < -0.2
        assert rows[1]["designation"] == "no_posterior_significance"
        assert rows[1]["practically_significant"] == "false"
        assert rows[1]["r_delta_l"] == "0"

    def test_rerun_and_workers_are_byte_identical(self, studies_file):
        argv = ["analyze", studies_file, "--draws", "2000"]
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        code_c, out_c = run_cli(argv + ["--workers", "2"])
        assert code_a == code_b == code_c == 0
        assert out_a == out_b == out_c

    def test_appending_a_row_leaves_earlier_rows_unchanged(
            self, studies_file, tmp_path):
        longer = tmp_path / "longer.csv"
        longer.write_text(
            GOOD_TABLE + "4,control,50,4,10,treated,40,4,10,,0.05,trial-d\n",
            encoding="utf-8")
        code_a, out_a = run_cli(["analyze", studies_file, "--draws", "2000"])
        code_b, out_b = run_cli(["analyze", str(longer), "--draws", "2000"])
        assert code_a == code_b == 0
        lines_a, lines_b = out_a.splitlines(), out_b.splitlines()
        assert len(lines_b) == len(lines_a) + 1
        assert lines_b[:len(lines_a)] == lines_a

    def test_analyze_never_imports_scipy_stats(self):
        # scipy.stats costs about a second to import and only the
        # simulation benchmarks use it
        script = (
            "import io, sys, contextlib\n"
            "import leastdiff.cli as cli\n"
            "from leastdiff.datasets import cholesterol_path\n"
            "assert 'scipy.stats' not in sys.modules, 'on import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['analyze', cholesterol_path(),"
            " '--draws', '1000'])\n"
            "assert code == 0, code\n"
            "assert 'scipy.stats' not in sys.modules, 'after analyze'\n"
        )
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_out_csv_file_equals_stdout(self, studies_file, tmp_path):
        argv = ["analyze", studies_file, "--draws", "2000"]
        _, streamed = run_cli(argv)
        target = tmp_path / "report.csv"
        code, out = run_cli(argv + ["--out-csv", str(target)])
        assert code == 0
        assert out == ""
        with open(target, encoding="utf-8", newline="") as handle:
            assert handle.read() == streamed

    def test_json_report_matches_csv_cells(self, studies_file, tmp_path):
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        code, _ = run_cli(
            ["analyze", studies_file, "--draws", "2000", "--seed", "5",
             "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["meta"]["scale"] == "relative"
        assert payload["meta"]["draws"] == 2000
        assert payload["meta"]["seed"] == 5
        with open(csv_path, encoding="utf-8", newline="") as handle:
            _, rows = parse_csv(handle.read())
        assert len(payload["rows"]) == len(rows) == 3
        for json_row, csv_row in zip(payload["rows"], rows):
            assert_json_matches_csv(json_row, csv_row, ANALYSIS_COLUMNS)

    def test_thresholds_must_straddle_zero(self, studies_file, capsys):
        code, _ = run_cli(
            ["analyze", studies_file, "--neg-threshold", "0.1"])
        assert code == 2
        assert "straddle" in capsys.readouterr().err

    def test_schema_violation_names_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text(GOOD_TABLE.replace("100,5,10,treated",
                                           "100,oops,10,treated"),
                        encoding="utf-8")
        code, _ = run_cli(["analyze", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err
        assert "'sx'" in err

    def test_empty_table_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(GOOD_TABLE.splitlines()[0] + "\n", encoding="utf-8")
        code, _ = run_cli(["analyze", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_control_stops_relative_analysis(self, frail_file,
                                                         capsys):
        with pytest.warns(ld.NonpositiveControlWarning):
            code, _ = run_cli(["analyze", frail_file, "--draws", "2000"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_raw_scale_tolerates_frail_control(self, frail_file):
        with pytest.warns(ld.NonpositiveControlWarning):
            code, out = run_cli(
                ["analyze", frail_file, "--scale", "raw",
                 "--neg-threshold", "-0.5", "--pos-threshold", "0.5",
                 "--draws", "2000"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1


class TestRiskCommand:
    ARGV = ["risk", "--pairs", "50", "--samples", "2", "--draws", "1000",
            "--candidates", "xbar_dm,rnd", "--seed", "3"]

    def test_small_run_shape(self):
        code, out = run_cli(self.ARGV)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == RISK_COLUMNS
        # two candidates scored against each of the four raw measures
        assert len(rows) == 8
        assert {r["candidate"] for r in rows} == {"xbar_dm", "rnd"}
        assert all(r["n_trials"] == "100" for r in rows)

    def test_rerun_and_workers_are_byte_identical(self):
        _, out_a = run_cli(self.ARGV)
        _, out_b = run_cli(self.ARGV)
        _, out_c = run_cli(self.ARGV + ["--workers", "2"])
        assert out_a == out_b == out_c

    def test_oracle_reference_row_has_zero_error(self):
        code, out = run_cli(self.ARGV + ["--with-oracle"])
        assert code == 0
        _, rows = parse_csv(out)
        oracle_rows = [r for r in rows if r["candidate"] == "oracle"]
        assert len(oracle_rows) == 4
        assert all(r["mean_error"] == "0" for r in oracle_rows)

    def test_unknown_candidate_is_an_input_error(self, capsys):
        code, _ = run_cli(["risk", "--candidates", "xbar_dm,bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_measure_must_belong_to_scale(self, capsys):
        code, _ = run_cli(["risk", "--scale", "raw",
                           "--independent", "r_mu_dm"])
        assert code == 2
        assert ("measure r_mu_dm is not scored on the raw scale"
                in capsys.readouterr().err)

    def test_pair_count_floor(self, capsys):
        code, _ = run_cli(["risk", "--pairs", "49", "--samples", "2",
                           "--candidates", "rnd"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCorrelateCommand:
    ARGV = ["correlate", "--measure", "mu_dm", "--steps", "5",
            "--samples", "3", "--draws", "1000",
            "--candidates", "xbar_dm,rnd", "--seed", "7"]

    def test_small_run_shape(self):
        code, out = run_cli(self.ARGV)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CORRELATE_COLUMNS
        assert len(rows) == 2
        for row in rows:
            assert row["measure"] == "mu_dm"
            assert -1.0 <= float(row["rho"]) <= 1.0

    def test_rerun_is_byte_identical(self):
        _, out_a = run_cli(self.ARGV)
        _, out_b = run_cli(self.ARGV)
        assert out_a == out_b

    def test_json_report_matches_csv_cells(self, tmp_path):
        csv_path = tmp_path / "ladder.csv"
        json_path = tmp_path / "ladder.json"
        code, _ = run_cli(self.ARGV + ["--out-csv", str(csv_path),
                                       "--out-json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["meta"]["seed"] == 7
        assert payload["meta"]["series"]["mu_dm"]["couplings"]
        with open(csv_path, encoding="utf-8", newline="") as handle:
            _, rows = parse_csv(handle.read())
        assert len(payload["rows"]) == len(rows) == 2
        for json_row, csv_row in zip(payload["rows"], rows):
            assert_json_matches_csv(json_row, csv_row, CORRELATE_COLUMNS)

    def test_ladder_floor_is_an_input_error(self, capsys):
        code, _ = run_cli(["correlate", "--steps", "4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_alpha_ladder_cap_is_infeasible(self, capsys):
        code, _ = run_cli(["correlate", "--measure", "alpha_dm",
                           "--steps", "11", "--samples", "3",
                           "--candidates", "rnd"])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_measure_must_belong_to_scale(self, capsys):
        code, _ = run_cli(["correlate", "--scale", "raw",
                           "--measure", "r_mu_dm"])
        assert code == 2
        assert "r_mu_dm" in capsys.readouterr().err
