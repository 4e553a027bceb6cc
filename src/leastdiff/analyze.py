"""Study-table analysis: candidate statistics plus a practical reading.

This is the workflow behind the analyze command: take a table of
published two-group comparisons, sample each study's posterior, compute
the full candidate-statistic bundle, and designate each row against the
chosen practical-significance thresholds on the requested scale.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hypothesis import designate
from .model import (
    CANDIDATES,
    CandidateStatistics,
    CredibleBounds,
    Designation,
    NonpositiveControl,
    NullRegion,
    OutOfRange,
    Scale,
    StudyRecord,
)
from .parallel import pmap
from .posterior import credible_bounds_sorted, sample_posterior
from .rng import child_seed
from .stats import candidate_suite
from .tables import StudyTableRow, format_full_row

__all__ = [
    "AnalysisRow",
    "analyze_studies",
    "ANALYSIS_COLUMNS",
    "analysis_csv_rows",
    "analysis_json_payload",
]


@dataclass(frozen=True)
class AnalysisRow:
    """Everything the analyze command reports for one study."""

    row_id: str
    record: StudyRecord
    stats: CandidateStatistics
    bounds: CredibleBounds
    designation: Designation

    @property
    def practically_significant(self) -> bool:
        return self.designation is Designation.PRACTICALLY_SIGNIFICANT


ANALYSIS_COLUMNS = (
    ("id", "label_control", "label_experiment", "units", "alpha")
    + CANDIDATES
    + ("bound_lo", "bound_hi", "designation", "practically_significant")
)


def _analyze_one(task):
    (index, row, scale, region, k_draws, seed) = task
    record = row.record
    draws = sample_posterior(record, k_draws, child_seed(seed, "analyze", index))
    if scale is Scale.RELATIVE and draws.rel_diff is None:
        raise NonpositiveControl(
            f"study {row.row_id!r}: control posterior is not safely positive; "
            "relative analysis is unavailable"
        )
    suite = candidate_suite(record, region, draws)
    if scale is Scale.RELATIVE:
        values = draws.sorted_rel_diff
        delta = suite.r_delta_l
    else:
        values = draws.sorted_diff
        delta = suite.delta_l
    bounds = credible_bounds_sorted(values, record.alpha_dm, scale)
    return AnalysisRow(
        row_id=row.row_id,
        record=record,
        stats=suite,
        bounds=bounds,
        designation=designate(delta, region),
    )


def analyze_studies(
    rows,
    scale: Scale = Scale.RELATIVE,
    region: NullRegion | None = None,
    k_draws: int = 10000,
    seed: int = 0,
    workers: int = 1,
) -> list[AnalysisRow]:
    """Analyze a list of StudyTableRow against one practical null region.

    The region must match the analysis scale; by default a +-20% region
    on the relative scale. Each row gets an independent posterior
    substream derived from the seed and the row's position, so appending
    rows never changes an earlier row's numbers. Reordering rows does:
    a row that moves draws from another position's stream.
    """
    rows = list(rows)
    for row in rows:
        if not isinstance(row, StudyTableRow):
            raise OutOfRange(
                "analyze_studies expects StudyTableRow items; wrap bare "
                "records with StudyTableRow(row_id=..., record=...)"
            )
    scale = Scale(scale)
    if region is None:
        region = NullRegion(-0.2, 0.2, scale)
    if region.scale is not scale:
        raise OutOfRange(
            f"analysis scale is {scale.value} but the null region is on the "
            f"{region.scale.value} scale"
        )
    tasks = [
        (index, row, scale, region, k_draws, seed)
        for index, row in enumerate(rows)
    ]
    return pmap(_analyze_one, tasks, workers)


def analysis_csv_rows(results) -> list[dict]:
    """One report row of raw values per AnalysisRow, in ANALYSIS_COLUMNS
    order; write_csv renders it at 6 significant digits."""
    out = []
    for res in results:
        row = {
            "id": res.row_id,
            "label_control": res.record.label_control,
            "label_experiment": res.record.label_experiment,
            "units": res.record.units,
            "alpha": res.record.alpha_dm,
        }
        for name in CANDIDATES:
            row[name] = getattr(res.stats, name)
        row["bound_lo"] = res.bounds.lo
        row["bound_hi"] = res.bounds.hi
        row["designation"] = res.designation.value
        row["practically_significant"] = res.practically_significant
        out.append(row)
    return out


def analysis_json_payload(results, scale, region, k_draws, seed) -> dict:
    """Full-precision JSON rendering of an analysis run: the CSV rows
    rendered with format_full_row."""
    return {
        "meta": {
            "scale": scale.value,
            "neg_threshold": region.neg_threshold,
            "pos_threshold": region.pos_threshold,
            "draws": k_draws,
            "seed": seed,
        },
        "rows": [format_full_row(row) for row in analysis_csv_rows(results)],
    }
