"""Reading and writing study tables and report files.

The study CSV schema mirrors how two-group comparisons are reported in
publications: one row per comparison, group summaries side by side,
with the decision tail mass in plain or fraction form ("0.05/6").

    id,label_control,xbar,sx,m,label_experiment,ybar,sy,n,units,alpha,source

Floats are written in shortest round-trip form so a table survives a
write/read cycle bit-exactly. Report CSVs round to 6 significant digits
for human eyes; the JSON renderings carry full precision.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GroupSummary,
    InputError,
    OutOfRange,
    ParseError,
    StudyRecord,
    parse_alpha,
)

__all__ = [
    "STUDY_COLUMNS",
    "StudyTableRow",
    "read_studies_csv",
    "write_studies_csv",
    "format_number",
    "format_full",
    "format_full_row",
    "write_csv",
    "write_json",
    "render_csv_text",
]

STUDY_COLUMNS = (
    "id",
    "label_control",
    "xbar",
    "sx",
    "m",
    "label_experiment",
    "ybar",
    "sy",
    "n",
    "units",
    "alpha",
    "source",
)


@dataclass(frozen=True)
class StudyTableRow:
    """One table row: the study plus its table-local identifier."""

    row_id: str
    record: StudyRecord


def _cell_error(row: int, column: str, problem: str) -> InputError:
    return InputError(f"row {row}, column {column!r}: {problem}")


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _cell_error(row, column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise _cell_error(row, column, f"not finite: {text!r}")
    return value


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _cell_error(row, column, f"not an integer: {text!r}") from None


def read_studies_csv(source) -> list[StudyTableRow]:
    """Parse a study table from a path or an open text stream.

    Raises InputError naming the offending row and column on any schema
    violation; an empty table (no data rows) is also an error.
    """
    if hasattr(source, "read"):
        return _read_studies(source, getattr(source, "name", "<stream>"))
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _read_studies(handle, str(source))


def _read_studies(handle, name: str) -> list[StudyTableRow]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{name}: empty file, expected a header row") from None
    if tuple(h.strip() for h in header) != STUDY_COLUMNS:
        raise InputError(
            f"{name}: header must be exactly {','.join(STUDY_COLUMNS)}, "
            f"got {','.join(header)}"
        )
    rows: list[StudyTableRow] = []
    for row_number, cells in enumerate(reader, start=2):
        if not cells or all(not c.strip() for c in cells):
            continue
        if len(cells) != len(STUDY_COLUMNS):
            raise InputError(
                f"row {row_number}: expected {len(STUDY_COLUMNS)} cells, "
                f"got {len(cells)}"
            )
        cell = dict(zip(STUDY_COLUMNS, cells))
        try:
            control = GroupSummary(
                mean=_parse_float(cell["xbar"], row_number, "xbar"),
                sd=_parse_float(cell["sx"], row_number, "sx"),
                size=_parse_int(cell["m"], row_number, "m"),
            )
        except OutOfRange as exc:
            raise _cell_error(row_number, "xbar/sx/m", str(exc)) from None
        try:
            experiment = GroupSummary(
                mean=_parse_float(cell["ybar"], row_number, "ybar"),
                sd=_parse_float(cell["sy"], row_number, "sy"),
                size=_parse_int(cell["n"], row_number, "n"),
            )
        except OutOfRange as exc:
            raise _cell_error(row_number, "ybar/sy/n", str(exc)) from None
        try:
            alpha = parse_alpha(cell["alpha"])
        except (ParseError, OutOfRange) as exc:
            raise _cell_error(row_number, "alpha", str(exc)) from None
        rows.append(
            StudyTableRow(
                row_id=cell["id"].strip(),
                record=StudyRecord(
                    control=control,
                    experiment=experiment,
                    alpha_dm=alpha,
                    units=cell["units"],
                    label_control=cell["label_control"],
                    label_experiment=cell["label_experiment"],
                    source_id=cell["source"],
                ),
            )
        )
    if not rows:
        raise InputError(f"{name}: no data rows")
    return rows


def _roundtrip_float(value: float) -> str:
    """Shortest decimal string that parses back to the same float.

    Kept positional (no exponent) so the alpha column stays inside the
    plain-decimal grammar of parse_alpha.
    """
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = np.format_float_positional(value, unique=True, trim="0")
    return text


def write_studies_csv(rows, target) -> None:
    """Write study rows back out in the study CSV schema."""
    if hasattr(target, "write"):
        _write_studies(rows, target)
        return
    with open(target, "w", encoding="utf-8", newline="") as handle:
        _write_studies(rows, handle)


def _write_studies(rows, handle) -> None:
    writer = csv.writer(handle)
    writer.writerow(STUDY_COLUMNS)
    for row in rows:
        r = row.record
        writer.writerow(
            [
                row.row_id,
                r.label_control,
                _roundtrip_float(r.control.mean),
                _roundtrip_float(r.control.sd),
                r.control.size,
                r.label_experiment,
                _roundtrip_float(r.experiment.mean),
                _roundtrip_float(r.experiment.sd),
                r.experiment.size,
                r.units,
                _roundtrip_float(r.alpha_dm),
                r.source_id,
            ]
        )


# ---------------------------------------------------------------------------
# report rendering


def format_number(value) -> str:
    """CSV cell for a numeric value: 6 significant digits, blank for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def format_full(value):
    """JSON-ready value at full precision."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def format_full_row(row) -> dict:
    """JSON rendering of a report row: each value through format_full.

    A report row is one dict of raw values; write_csv renders the same
    dict with format_number.
    """
    return {key: format_full(value) for key, value in row.items()}


def write_csv(columns, rows, target) -> None:
    """Write a tidy report CSV: dict rows rendered with format_number."""
    def _emit(handle):
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    row[col] if isinstance(row[col], str) else format_number(row[col])
                    for col in columns
                ]
            )

    if hasattr(target, "write"):
        _emit(target)
        return
    with open(target, "w", encoding="utf-8", newline="") as handle:
        _emit(handle)


def write_json(payload, target) -> None:
    """Write a JSON report; floats keep full precision."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    if hasattr(target, "write"):
        target.write(text + "\n")
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def render_csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    write_csv(columns, rows, buffer)
    return buffer.getvalue()
