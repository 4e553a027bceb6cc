"""Study-table CSV schema, output formatting, bundled data, analysis layer."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leastdiff as ld
from leastdiff import (
    Designation,
    GroupSummary,
    InputError,
    NonpositiveControl,
    NullRegion,
    Scale,
    StudyRecord,
    StudyTableRow,
    analyze_studies,
)
from leastdiff.analyze import analysis_csv_rows, analysis_json_payload
from leastdiff.datasets import load_cholesterol, load_plaque_size
from leastdiff.tables import (
    STUDY_COLUMNS,
    format_full,
    format_number,
    read_studies_csv,
    write_csv,
    write_studies_csv,
)

HEADER = ",".join(STUDY_COLUMNS)


def read_text(text):
    return read_studies_csv(io.StringIO(text))


class TestReadStudiesCsv:
    def test_happy_path(self):
        rows = read_text(
            HEADER + "\n"
            'S1,Vehicle,100,12,8,Drug,70,9,6,mg/dL,0.05/2,"xx 123, F1"\n'
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.row_id == "S1"
        assert row.record.control == GroupSummary(100.0, 12.0, 8)
        assert row.record.experiment == GroupSummary(70.0, 9.0, 6)
        assert row.record.alpha_dm == 0.025
        assert row.record.source_id == "xx 123, F1"
        assert row.record.units == "mg/dL"

    def test_blank_lines_skipped(self):
        rows = read_text(
            HEADER + "\n\n"
            "A,c,1,0.5,5,e,2,0.5,5,u,0.05,s\n\n"
            "B,c,1,0.5,5,e,2,0.5,5,u,0.05,s\n"
        )
        assert [r.row_id for r in rows] == ["A", "B"]

    def test_header_must_match_exactly(self):
        with pytest.raises(InputError):
            read_text("id,xbar\nS1,1\n")
        with pytest.raises(InputError):
            read_text(HEADER.upper() + "\nS1,c,1,0.5,5,e,2,0.5,5,u,0.05,s\n")

    def test_empty_table_rejected(self):
        with pytest.raises(InputError):
            read_text(HEADER + "\n")

    def test_cell_count_enforced(self):
        with pytest.raises(InputError, match="row 2"):
            read_text(HEADER + "\nS1,c,1,0.5,5,e,2,0.5,5,u,0.05\n")

    def test_bad_number_names_row_and_column(self):
        with pytest.raises(InputError, match="row 2, column 'xbar'"):
            read_text(HEADER + "\nS1,c,abc,0.5,5,e,2,0.5,5,u,0.05,s\n")
        with pytest.raises(InputError, match="row 3, column 'n'"):
            read_text(
                HEADER + "\n"
                "S1,c,1,0.5,5,e,2,0.5,5,u,0.05,s\n"
                "S2,c,1,0.5,5,e,2,0.5,5.5,u,0.05,s\n"
            )

    def test_bad_alpha_names_row_and_column(self):
        with pytest.raises(InputError, match="row 2, column 'alpha'"):
            read_text(HEADER + "\nS1,c,1,0.5,5,e,2,0.5,5,u,0.9,s\n")
        with pytest.raises(InputError, match="column 'alpha'"):
            read_text(HEADER + "\nS1,c,1,0.5,5,e,2,0.5,5,u,nope,s\n")

    def test_summary_violations_name_the_cell(self):
        with pytest.raises(InputError, match="row 2"):
            read_text(HEADER + "\nS1,c,1,-0.5,5,e,2,0.5,5,u,0.05,s\n")
        with pytest.raises(InputError, match="row 2"):
            read_text(HEADER + "\nS1,c,1,0.5,1,e,2,0.5,5,u,0.05,s\n")

    def test_accepts_path(self, tmp_path):
        target = tmp_path / "studies.csv"
        target.write_text(HEADER + "\nS1,c,1,0.5,5,e,2,0.5,5,u,0.05,s\n")
        assert read_studies_csv(target)[0].row_id == "S1"

    def test_byte_order_mark_skipped_on_a_path(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        target = tmp_path / "studies.csv"
        target.write_text(HEADER + "\n" + ROW + "\n", encoding="utf-8-sig")
        assert read_studies_csv(target)[0].row_id == "S1"

    def test_byte_order_mark_skipped_on_a_stream(self, tmp_path):
        target = tmp_path / "studies.csv"
        target.write_text(HEADER + "\n" + ROW + "\n", encoding="utf-8-sig")
        with open(target, encoding="utf-8", newline="") as handle:
            assert read_studies_csv(handle)[0].row_id == "S1"
        assert read_text("\ufeff" + HEADER + "\n" + ROW + "\n")


ROW = "S1,c,1,0.5,5,e,2,0.5,5,u,0.05,s"
NUMBER_COLUMNS = ("xbar", "sx", "m", "ybar", "sy", "n", "alpha")

# The ASCII cell grammar, written as the characters each kind of cell may
# hold; within them, Python's own float() and int() give the value.
_SPACE = " \t\n\r\f\v"
_FLOAT_CHARS = frozenset(_SPACE + "+-.eE0123456789")
_INT_CHARS = frozenset(_SPACE + "+-0123456789")
_ALPHA_CHARS = frozenset(_SPACE + "./0123456789")
NUMBER_FORM = r"\A\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*\Z"
ALPHA_FORM = r"\A\s*(\d+\.?\d*|\.\d+)\s*(/\s*\d+\s*)?\Z"


def table_with(column, text):
    """A one-row study table whose cell in ``column`` holds ``text``."""
    cells = dict(zip(STUDY_COLUMNS, ROW.split(",")))
    cells[column] = text
    buffer = io.StringIO()
    csv.writer(buffer).writerows(
        [STUDY_COLUMNS, [cells[c] for c in STUDY_COLUMNS]])
    return buffer.getvalue()


def ascii_cell_value(column, text):
    """The value the ASCII grammar gives the cell, or None when the text is
    outside the grammar or the value outside the column's range."""
    try:
        if column == "alpha":
            if not set(text) <= _ALPHA_CHARS:
                return None
            parts = text.split("/")
            if len(parts) > 2:
                return None
            value = float(parts[0]) / (int(parts[1]) if parts[1:] else 1)
            return value if 0.0 < value < 0.5 else None
        if column in ("m", "n"):
            value = int(text) if set(text) <= _INT_CHARS else None
            return value if value is not None and value >= 2 else None
        value = float(text) if set(text) <= _FLOAT_CHARS else math.nan
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if not math.isfinite(value) or (column in ("sx", "sy") and value < 0):
        return None
    return value


def cell_value(record, column):
    return {
        "xbar": record.control.mean, "sx": record.control.sd,
        "m": record.control.size, "ybar": record.experiment.mean,
        "sy": record.experiment.sd, "n": record.experiment.size,
        "alpha": record.alpha_dm,
    }[column]


class TestHostileCells:
    @settings(max_examples=400, deadline=None)
    @given(
        column=st.sampled_from(NUMBER_COLUMNS),
        text=st.one_of(st.text(max_size=12), *(
            # number-shaped text, with any Unicode digit and space or ASCII
            st.from_regex(re.compile(form, flags))
            for form in (NUMBER_FORM, ALPHA_FORM)
            for flags in (0, re.ASCII)
        )),
    )
    @example(column="xbar", text="1_00")
    @example(column="m", text="１０")
    @example(column="alpha", text="٠.٠٥")
    @example(column="sx", text="\u00a00.5")
    @example(column="sy", text="inf")
    @example(column="ybar", text=" -1.5e2 ")
    @example(column="alpha", text="0.05/" + "9" * 400)
    @example(column="n", text="1" * 5000)
    def test_cell_reads_as_the_ascii_grammar_or_names_itself(
        self, column, text
    ):
        want = ascii_cell_value(column, text)
        try:
            rows = read_text(table_with(column, text))
        except InputError as exc:
            assert want is None, str(exc)
            named = re.match(r"row 2, column '([^']*)'", str(exc))
            assert named and column in named.group(1).split("/"), str(exc)
            return
        assert want is not None
        assert cell_value(rows[0].record, column) == want


class TestRoundTrip:
    def test_random_tables_survive_a_write_read_cycle(self, rng):
        rows = []
        for i in range(30):
            ctl = GroupSummary(float(rng.uniform(-100, 3000)),
                               float(rng.uniform(0, 500)),
                               int(rng.integers(2, 40)))
            exp = GroupSummary(float(rng.uniform(-100, 3000)),
                               float(rng.uniform(0, 500)),
                               int(rng.integers(2, 40)))
            record = StudyRecord(
                ctl, exp, float(rng.uniform(0.001, 0.499)),
                units="um^2" if i % 3 else "",
                label_control=f"ctl {i}, with comma",
                label_experiment=f'exp "{i}"',
                source_id=f"src {i}",
            )
            rows.append(StudyTableRow(str(i), record))
        buffer = io.StringIO()
        write_studies_csv(rows, buffer)
        back = read_studies_csv(io.StringIO(buffer.getvalue()))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.row_id == b.row_id
            assert a.record == b.record  # float fields must survive exactly

    def test_scientific_notation_mean_round_trips(self):
        record = StudyRecord(GroupSummary(1.5e-07, 2e-08, 5),
                             GroupSummary(3e-07, 1e-08, 5), 0.05)
        buffer = io.StringIO()
        write_studies_csv([StudyTableRow("t", record)], buffer)
        back = read_studies_csv(io.StringIO(buffer.getvalue()))
        assert back[0].record == record


class TestBundledDatasets:
    def test_cholesterol_shape(self):
        rows = load_cholesterol()
        assert len(rows) == 14
        assert [r.row_id for r in rows] == [str(i) for i in range(1, 15)]
        first = rows[0].record
        assert first.control.mean == 1335.0
        assert first.experiment.mean == 934.0
        assert first.alpha_dm == pytest.approx(0.05 / 6)
        assert first.units == "mg/dL"

    def test_plaque_size_shape(self):
        rows = load_plaque_size()
        assert len(rows) == 14
        assert rows[0].record.control.sd == 100000.0
        assert rows[12].record.units == ""  # one study reports no units
        last = rows[13].record
        assert last.control.mean == 0.68
        assert last.experiment.mean == 0.06

    def test_all_alphas_parse_below_half(self):
        for rows in (load_cholesterol(), load_plaque_size()):
            assert all(0 < r.record.alpha_dm < 0.5 for r in rows)


class TestFormatters:
    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(True) == "true"
        assert format_number(False) == "false"
        assert format_number(7) == "7"
        assert format_number(float("nan")) == "nan"
        assert format_number(0.123456789) == "0.123457"
        assert format_number(-30.0) == "-30"

    def test_format_full(self):
        assert format_full(float("nan")) is None
        assert format_full(np.int64(5)) == 5
        assert type(format_full(np.float64(0.5))) is float
        assert format_full("text") == "text"

    def test_render_csv_text(self):
        buffer = io.StringIO()
        write_csv(("a", "b"), [{"a": "x,y", "b": 0.5}], buffer)
        assert buffer.getvalue().splitlines() == ["a,b", '"x,y",0.5']


class TestAnalyzeStudies:
    @pytest.fixture
    def two_rows(self):
        strong = StudyRecord(GroupSummary(100.0, 5.0, 10),
                             GroupSummary(60.0, 5.0, 10), 0.05)
        null = StudyRecord(GroupSummary(100.0, 10.0, 10),
                           GroupSummary(99.0, 10.0, 10), 0.05)
        return [StudyTableRow("strong", strong), StudyTableRow("null", null)]

    def test_relative_analysis(self, two_rows):
        results = analyze_studies(two_rows, k_draws=2000, seed=1)
        strong, null = results
        assert strong.stats.r_delta_l < -0.2
        assert strong.designation is Designation.PRACTICALLY_SIGNIFICANT
        assert strong.practically_significant
        assert null.stats.r_delta_l == 0.0
        assert null.designation is Designation.NO_POSTERIOR_SIGNIFICANCE
        assert not null.practically_significant
        assert strong.bounds.scale is Scale.RELATIVE

    def test_raw_analysis_uses_raw_bounds(self, two_rows):
        results = analyze_studies(
            two_rows, scale=Scale.RAW,
            region=NullRegion(-10.0, 10.0, Scale.RAW), k_draws=2000, seed=1)
        assert results[0].bounds.scale is Scale.RAW
        assert results[0].stats.delta_l < -10.0

    def test_region_scale_must_match(self, two_rows):
        with pytest.raises(ld.OutOfRange):
            analyze_studies(two_rows, scale=Scale.RELATIVE,
                            region=NullRegion(-10.0, 10.0, Scale.RAW),
                            k_draws=2000)

    def test_worker_count_is_invisible(self, two_rows):
        serial = analyze_studies(two_rows, k_draws=2000, seed=9, workers=1)
        parallel = analyze_studies(two_rows, k_draws=2000, seed=9, workers=2)
        for a, b in zip(serial, parallel):
            assert a.stats == b.stats
            assert a.bounds == b.bounds

    def test_nonpositive_control_names_the_study(self):
        bad = StudyTableRow("frail", StudyRecord(
            GroupSummary(0.5, 2.0, 4), GroupSummary(2.0, 1.0, 4), 0.05))
        with pytest.warns(ld.NonpositiveControlWarning):
            with pytest.raises(NonpositiveControl, match="frail"):
                analyze_studies([bad], k_draws=2000, seed=0)

    def test_csv_rows_carry_all_columns(self, two_rows):
        results = analyze_studies(two_rows, k_draws=2000, seed=1)
        csv_rows = analysis_csv_rows(results)
        from leastdiff.analyze import ANALYSIS_COLUMNS
        assert set(csv_rows[0]) == set(ANALYSIS_COLUMNS)
        assert csv_rows[0]["id"] == "strong"

    def test_json_payload_meta(self, two_rows):
        results = analyze_studies(two_rows, k_draws=2000, seed=1)
        payload = analysis_json_payload(
            results, Scale.RELATIVE, NullRegion(-0.2, 0.2, Scale.RELATIVE),
            2000, 1)
        assert payload["meta"]["scale"] == "relative"
        assert payload["meta"]["neg_threshold"] == -0.2
        assert payload["meta"]["draws"] == 2000
        assert len(payload["rows"]) == 2
        json.dumps(payload, allow_nan=False)  # payload must be clean JSON
