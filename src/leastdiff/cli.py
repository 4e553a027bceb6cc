"""Command-line interface: analyze study tables, run the benchmarks.

Three subcommands:

* ``analyze``: read a study CSV, emit candidate statistics, credible
  bounds, and practical-significance designations per row.
* ``risk``: run a comparison-pair decision-risk study and emit the
  per-candidate, per-measure error table.
* ``correlate``: sweep strength ladders and emit Spearman correlations
  of each candidate with each measure.

Every command is a pure function of (inputs, flags, seed): reruns are
byte-identical, including across worker counts.

Exit codes: 0 success, 2 input error, 3 relative-scale analysis
infeasible, 4 simulation infeasible.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .analyze import (
    ANALYSIS_COLUMNS,
    analysis_csv_rows,
    analysis_json_payload,
    analyze_studies,
)
from .model import (
    CANDIDATES,
    CorrelationRow,
    InfeasibleSeries,
    InputError,
    Measure,
    NonpositiveControl,
    NullRegion,
    OutOfRange,
    ParseError,
    RAW_MEASURES,
    RELATIVE_MEASURES,
    RegimeInfeasible,
    RiskRow,
    Scale,
    SignRegime,
)
from .riskbench import (
    ORACLE,
    default_base_config,
    generate_comparison_pairs,
    generate_series,
    run_comparison_study,
    spearman_study,
)
from .tables import (
    format_full,
    format_full_row,
    read_studies_csv,
    write_csv,
    write_json,
)

__all__ = ["main", "build_parser"]

DEFAULT_SEED = 20260815

RISK_COLUMNS = tuple(field.name for field in dataclasses.fields(RiskRow))
CORRELATE_COLUMNS = tuple(
    field.name for field in dataclasses.fields(CorrelationRow)
)

# desk-scale defaults; --full-scale restores the big campaign counts
DESK_PAIRS, FULL_PAIRS = 200, 1000
DESK_PAIR_SAMPLES, FULL_PAIR_SAMPLES = 50, 100
DESK_LADDER_STEPS = 10
DESK_LADDER_SAMPLES, FULL_LADDER_SAMPLES = 200, 1000


def _add_common(parser: argparse.ArgumentParser, default_draws: int) -> None:
    parser.add_argument(
        "--draws", type=int, default=default_draws, metavar="K",
        help=f"posterior draws per dataset (default {default_draws})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, metavar="N",
        help=f"master seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="worker processes (default 1); output is identical either way",
    )
    parser.add_argument(
        "--out-csv", metavar="PATH",
        help="write the CSV report here (default: stdout)",
    )
    parser.add_argument(
        "--out-json", metavar="PATH",
        help="also write a full-precision JSON report here",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leastdiff",
        description=(
            "Least difference in means: practical-significance statistics "
            "for two-group studies, with decision-risk benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a study table (CSV) of two-group summaries"
    )
    p_analyze.add_argument("input", help="study CSV path")
    p_analyze.add_argument(
        "--scale", choices=[s.value for s in Scale], default="relative",
        help="analysis scale (default relative)",
    )
    p_analyze.add_argument(
        "--neg-threshold", type=float, default=-0.2, metavar="D",
        help="lower practical threshold (default -0.2)",
    )
    p_analyze.add_argument(
        "--pos-threshold", type=float, default=0.2, metavar="D",
        help="upper practical threshold (default 0.2)",
    )
    _add_common(p_analyze, default_draws=10000)
    p_analyze.set_defaults(func=cmd_analyze)

    p_risk = sub.add_parser(
        "risk", help="decision-risk benchmark on comparison pairs"
    )
    p_risk.add_argument(
        "--scale", choices=[s.value for s in Scale], default="raw",
        help="measure scale (default raw)",
    )
    p_risk.add_argument(
        "--regime", choices=[r.value for r in SignRegime], default="positive",
        help="sign regime of every generated config (default positive)",
    )
    p_risk.add_argument(
        "--independent",
        choices=[m.value for m in Measure] + ["simultaneous"],
        default="simultaneous",
        help="the measure the pairs are built to probe (default simultaneous)",
    )
    p_risk.add_argument(
        "--pairs", type=int, default=DESK_PAIRS, metavar="N",
        help=f"comparison pairs (default {DESK_PAIRS})",
    )
    p_risk.add_argument(
        "--samples", type=int, default=DESK_PAIR_SAMPLES, metavar="N",
        help=f"samples per pair (default {DESK_PAIR_SAMPLES})",
    )
    p_risk.add_argument(
        "--candidates", metavar="LIST",
        help="comma-separated candidate subset (default: all)",
    )
    p_risk.add_argument(
        "--with-oracle", action="store_true",
        help="add the ground-truth oracle as a reference row",
    )
    p_risk.add_argument(
        "--full-scale", action="store_true",
        help=f"use the full campaign counts ({FULL_PAIRS} pairs x "
             f"{FULL_PAIR_SAMPLES} samples)",
    )
    _add_common(p_risk, default_draws=2000)
    p_risk.set_defaults(func=cmd_risk)

    p_corr = sub.add_parser(
        "correlate", help="strength-ladder Spearman correlation benchmark"
    )
    p_corr.add_argument(
        "--scale", choices=[s.value for s in Scale], default="raw",
        help="measure scale (default raw)",
    )
    p_corr.add_argument(
        "--regime", choices=[r.value for r in SignRegime], default="positive",
        help="sign regime of the base config (default positive)",
    )
    p_corr.add_argument(
        "--measure",
        choices=[m.value for m in Measure] + ["all"],
        default="all",
        help="which measure ladder to sweep (default: all of the scale)",
    )
    p_corr.add_argument(
        "--steps", type=int, default=DESK_LADDER_STEPS, metavar="N",
        help=f"ladder rungs per measure (default {DESK_LADDER_STEPS})",
    )
    p_corr.add_argument(
        "--samples", type=int, default=DESK_LADDER_SAMPLES, metavar="N",
        help=f"samples per config (default {DESK_LADDER_SAMPLES})",
    )
    p_corr.add_argument(
        "--candidates", metavar="LIST",
        help="comma-separated candidate subset (default: all)",
    )
    p_corr.add_argument(
        "--full-scale", action="store_true",
        help=f"use the full campaign count ({FULL_LADDER_SAMPLES} samples "
             "per config)",
    )
    _add_common(p_corr, default_draws=2000)
    p_corr.set_defaults(func=cmd_correlate)

    return parser


def _parse_candidates(text: str | None, allow_oracle: bool = False):
    if text is None:
        return CANDIDATES
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise InputError("--candidates must name at least one statistic")
    for name in names:
        if name not in CANDIDATES and not (allow_oracle and name == ORACLE):
            raise InputError(f"unknown candidate statistic {name!r}")
    return names


def _write_report(columns, rows, payload, args) -> None:
    if args.out_csv:
        write_csv(columns, rows, args.out_csv)
    else:
        write_csv(columns, rows, sys.stdout)
    if args.out_json:
        write_json(payload, args.out_json)


def cmd_analyze(args) -> int:
    scale = Scale(args.scale)
    if not args.neg_threshold < 0.0 < args.pos_threshold:
        raise InputError(
            "thresholds must straddle zero: "
            f"got ({args.neg_threshold}, {args.pos_threshold})"
        )
    region = NullRegion(args.neg_threshold, args.pos_threshold, scale)
    rows = read_studies_csv(args.input)
    results = analyze_studies(
        rows,
        scale=scale,
        region=region,
        k_draws=args.draws,
        seed=args.seed,
        workers=args.workers,
    )
    payload = analysis_json_payload(
        results, scale, region, args.draws, args.seed
    )
    _write_report(ANALYSIS_COLUMNS, analysis_csv_rows(results), payload, args)
    return 0


def cmd_risk(args) -> int:
    scale = Scale(args.scale)
    independent = (
        None if args.independent == "simultaneous"
        else Measure(args.independent)
    )
    candidates = _parse_candidates(args.candidates, allow_oracle=True)
    if args.with_oracle and ORACLE not in candidates:
        candidates = candidates + (ORACLE,)
    n_pairs = FULL_PAIRS if args.full_scale else args.pairs
    n_samples = FULL_PAIR_SAMPLES if args.full_scale else args.samples

    batch = generate_comparison_pairs(
        independent,
        SignRegime(args.regime),
        n_pairs,
        args.seed,
        scale=scale,
    )
    report = run_comparison_study(
        batch,
        n_samples=n_samples,
        k_draws=args.draws,
        candidates=candidates,
        seed=args.seed,
        workers=args.workers,
    )
    rows = [dataclasses.asdict(r) for r in report.rows]
    payload = {
        "meta": {
            "scale": report.scale.value,
            "regime": report.regime.value,
            "independent": report.independent,
            "n_pairs": report.n_pairs,
            "n_samples": report.n_samples,
            "draws": report.k_draws,
            "seed": report.seed,
            "regenerations": report.regenerations,
            "winner_fractions": format_full_row(report.winner_fractions),
            "agreement_fractions": format_full_row(
                report.agreement_fractions
            ),
            "ks_statistic": format_full(report.ks_statistic),
        },
        "rows": [format_full_row(row) for row in rows],
    }
    _write_report(RISK_COLUMNS, rows, payload, args)
    return 0


def cmd_correlate(args) -> int:
    scale = Scale(args.scale)
    regime = SignRegime(args.regime)
    scale_measures = RAW_MEASURES if scale is Scale.RAW else RELATIVE_MEASURES
    if args.measure == "all":
        measures = scale_measures
    else:
        one = Measure(args.measure)
        if one not in scale_measures:
            raise InputError(
                f"measure {one.value} is not part of the {scale.value} scale"
            )
        measures = (one,)
    candidates = _parse_candidates(args.candidates)
    n_samples = FULL_LADDER_SAMPLES if args.full_scale else args.samples
    base = default_base_config(scale, regime)

    rows = []
    series_meta = {}
    for measure in measures:
        series = generate_series(measure, args.steps, base=base, scale=scale)
        report = spearman_study(
            series,
            n_samples=n_samples,
            k_draws=args.draws,
            seed=args.seed,
            candidates=candidates,
            workers=args.workers,
        )
        series_meta[measure.value] = {"couplings": list(series.couplings)}
        rows.extend(dataclasses.asdict(r) for r in report.rows)
    payload = {
        "meta": {
            "scale": scale.value,
            "regime": regime.value,
            "steps": args.steps,
            "n_samples": n_samples,
            "draws": args.draws,
            "seed": args.seed,
            "series": series_meta,
        },
        "rows": [format_full_row(row) for row in rows],
    }
    _write_report(CORRELATE_COLUMNS, rows, payload, args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonpositiveControl as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RegimeInfeasible, InfeasibleSeries) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
