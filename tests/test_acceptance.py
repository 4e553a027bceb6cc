"""Ten end-to-end acceptance gates, one printed PASS/FAIL line each.

Every test prints its verdict through the capture plug so a plain test
log shows the ten lines at a glance. Together they pin the toolkit's
core promises: reproduction of the bundled study tables, threshold
invariance of the least difference, the exact zero-bracketing rule,
shortcut/scan agreement, Monte Carlo stability, better-than-random
benchmark risk, ladder correlations, oracle-level numerical accuracy,
and byte-stable parallel output.

The stability gate judges Monte Carlo agreement by the estimator's own
sampling error: the least difference is a tail quantile of the draws,
so its 100,000-draw value must fall inside the distribution-free
binomial rank interval of the 10,000-draw quantile, not within a fixed
relative tolerance that the rarest-tail studies cannot meet.
"""
import contextlib
import csv
import io
import math
import os
import time

import numpy as np
import pytest

import leastdiff as ld
import oracles
from conftest import run_cli
from leastdiff.cli import DEFAULT_SEED
from leastdiff.datasets import cholesterol_path, load_cholesterol, load_plaque_size
from leastdiff.model import Scale, SignRegime

# gates on the benchmark families are corrected across the whole
# candidate table, not just the statistics a run happened to request
BONFERRONI_P = 0.05 / len(ld.CANDIDATES)

# whole-percent relative drops recorded alongside the bundled tables
CHOLESTEROL_DROP_PCT = (
    -30, -33, -21, -45, -29, -36, -31, -31, -45, -52, -58, -56, -69, -82,
)
PLAQUE_DROP_PCT = (
    -51, -52, -28, -55, -24, -47, -69, -48, -73, -91, -66, -82, -73, -91,
)

# the simulation gates run on every core; gate 10 shows that reports do
# not depend on the worker count
WORKERS = os.cpu_count() or 1


@contextlib.contextmanager
def verdict(capsys, number):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS")


def csv_rows(text):
    parsed = list(csv.reader(io.StringIO(text)))
    header = parsed[0]
    return [dict(zip(header, cells)) for cells in parsed[1:]]


def column(rows, name):
    return [row[name] for row in rows]


def test_criterion_01_relative_drop_reproduction(capsys):
    # every bundled row's relative difference in means matches its
    # recorded whole-percent drop within one percentage point
    with verdict(capsys, 1):
        start = time.perf_counter()
        tables = (
            (load_cholesterol(), CHOLESTEROL_DROP_PCT),
            (load_plaque_size(), PLAQUE_DROP_PCT),
        )
        for rows, drops in tables:
            assert len(rows) == len(drops) == 14
            for row, want_pct in zip(rows, drops):
                record = row.record
                got_pct = 100.0 * ld.relative_mean_difference(
                    record.control, record.experiment
                )
                assert abs(got_pct - want_pct) <= 1.0, (row.row_id, got_pct)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_threshold_invariance(capsys):
    # moving the practical threshold re-labels studies but cannot move
    # the least-difference estimates themselves
    with verdict(capsys, 2):
        start = time.perf_counter()
        reports = {}
        for neg in ("-0.10", "-0.20", "-0.25"):
            code, out = run_cli(
                ["analyze", cholesterol_path(), "--draws", "10000",
                 "--neg-threshold", neg])
            assert code == 0
            reports[neg] = csv_rows(out)
        baseline = column(reports["-0.10"], "r_delta_l")
        assert column(reports["-0.20"], "r_delta_l") == baseline
        assert column(reports["-0.25"], "r_delta_l") == baseline
        flags = {
            neg: column(rows, "practically_significant")
            for neg, rows in reports.items()
        }
        assert flags["-0.10"] != flags["-0.25"]
        assert time.perf_counter() - start < 60.0


def test_criterion_03_zero_bracketing_gate(capsys, rng):
    # the least difference is zero exactly when the credible bounds
    # bracket or touch zero, on both scales, with no tolerance
    with verdict(capsys, 3):
        n_zero = n_signed = 0
        for _ in range(1000):
            mean_x = rng.uniform(10.0, 100.0)
            control = ld.GroupSummary(
                mean_x, rng.uniform(mean_x / 40.0, mean_x / 8.0),
                int(rng.integers(8, 30)),
            )
            experiment = ld.GroupSummary(
                mean_x * rng.uniform(0.3, 1.7),
                rng.uniform(mean_x / 40.0, mean_x / 8.0),
                int(rng.integers(8, 30)),
            )
            record = ld.StudyRecord(control, experiment, 0.05)
            draws = ld.sample_posterior(record, 1000, int(rng.integers(2**31)))
            res = ld.effect_strength(record, draws)

            raw_straddles = res.bounds_raw.lo <= 0.0 <= res.bounds_raw.hi
            assert (res.delta_l == 0.0) == raw_straddles
            assert res.r_delta_l is not None
            rel_straddles = res.bounds_rel.lo <= 0.0 <= res.bounds_rel.hi
            assert (res.r_delta_l == 0.0) == rel_straddles
            n_zero += raw_straddles
            n_signed += not raw_straddles
        # the draw ranges must exercise both branches heavily
        assert n_zero > 30 and n_signed > 30


def test_criterion_04_shortcut_vs_scan(capsys, rng):
    with verdict(capsys, 4):
        grid = 10000
        for i in range(1000):
            lo = rng.uniform(-50.0, 50.0)
            hi = lo + rng.uniform(1e-6, 60.0)
            bounds = ld.CredibleBounds(lo, hi, 0.05, Scale.RAW)
            if i % 50 == 0:
                sign_ref = 0.0
            else:
                sign_ref = 1.0 if i % 2 else -1.0
            direct = ld.least_difference(bounds, sign_ref)
            scanned = oracles.least_difference_scan(bounds, grid, sign_ref)
            spacing = (hi - lo) / (grid - 1)
            assert abs(direct - scanned) <= spacing, (lo, hi, sign_ref)


# studies 1, 2, 6, 10 and 13 have a few nonpositive control-mean draws:
# their relative draws are kept and flagged with this warning
@pytest.mark.filterwarnings("ignore::leastdiff.model.NonpositiveControlWarning")
def test_criterion_05_monte_carlo_stability(capsys):
    # the relative least difference at 10,000 draws must agree with its
    # 100,000-draw value for every bundled cholesterol study and 20
    # seeds, to within the 10,000-draw estimator's own sampling error.
    # The least difference is the credible bound nearest zero, i.e. the
    # alpha_dm or 1 - alpha_dm quantile of the relative draws, so the
    # 100,000-draw value must fall inside the distribution-free binomial
    # rank interval for that quantile of the 10,000 sorted draws, held
    # at 99% familywise over all study/seed pairs.
    with verdict(capsys, 5):
        start = time.perf_counter()
        rows = load_cholesterol()
        seeds = range(20)
        comparisons = len(rows) * len(seeds)

        def relative(row, k, seed):
            draws = ld.sample_posterior(row.record, k, seed)
            assert draws.rel_diff is not None, (
                f"study {row.row_id}: relative draws withheld at k={k}"
            )
            return draws, ld.effect_strength(row.record, draws)

        offenders = []
        for row in rows:
            alpha = row.record.alpha_dm
            for seed in seeds:
                draws, small = relative(row, 10_000, seed)
                _, big = relative(row, 100_000, seed)
                bounds = big.bounds_rel
                near_hi = abs(bounds.hi) <= abs(bounds.lo)
                q = 1.0 - alpha if near_hi else alpha
                sorted_rel = np.sort(draws.rel_diff)
                lo, hi = oracles.quantile_rank_interval(
                    sorted_rel, q, 0.99, comparisons
                )
                if not lo <= big.r_delta_l <= hi:
                    # one standard error: half the one-sigma rank interval
                    se_lo, se_hi = oracles.quantile_rank_interval(
                        sorted_rel, q, math.erf(2 ** -0.5)
                    )
                    gap = (big.r_delta_l - small.r_delta_l) / (
                        (se_hi - se_lo) / 2.0
                    )
                    offenders.append(
                        f"study {row.row_id} seed {seed}: "
                        f"10k {small.r_delta_l:.6g}, "
                        f"100k {big.r_delta_l:.6g}, "
                        f"interval [{lo:.6g}, {hi:.6g}], {gap:+.2f} se"
                    )
        assert not offenders, (
            f"{len(offenders)} of {comparisons} study/seed pairs outside "
            "the 99% familywise rank interval:\n" + "\n".join(offenders)
        )
        assert time.perf_counter() - start < 300.0


def test_criterion_06_single_measure_risk(capsys):
    # with one measure varied at a time, the gated least-difference
    # statistic must beat coin flipping on every measure in both sign
    # regimes at desk scale
    with verdict(capsys, 6):
        start = time.perf_counter()
        jobs = [
            (measure, regime, Scale.RAW, "delta_l")
            for measure in ld.RAW_MEASURES
            for regime in (SignRegime.POSITIVE, SignRegime.NEGATIVE)
        ] + [
            (measure, regime, Scale.RELATIVE, "r_delta_l")
            for measure in ld.RELATIVE_MEASURES
            for regime in (SignRegime.POSITIVE, SignRegime.NEGATIVE)
        ]
        failures = []
        for measure, regime, scale, cand in jobs:
            batch = ld.generate_comparison_pairs(
                measure, regime, 200, DEFAULT_SEED, scale=scale
            )
            report = ld.run_comparison_study(
                batch, n_samples=50, k_draws=2000,
                candidates=(cand,), seed=DEFAULT_SEED, workers=WORKERS,
            )
            row = report.row(cand, measure)
            if not (row.mean_error < 0.5 and row.p_value < BONFERRONI_P):
                failures.append(
                    (cand, measure.value, regime.value,
                     row.mean_error, row.p_value)
                )
        assert not failures, failures
        assert time.perf_counter() - start < 600.0


def test_criterion_07_simultaneous_risk(capsys):
    # with all measures varying at once, the same statistics must stay
    # better than random against every measure's ground truth
    with verdict(capsys, 7):
        start = time.perf_counter()
        failures = []
        for scale, cand, measures in (
            (Scale.RAW, "delta_l", ld.RAW_MEASURES),
            (Scale.RELATIVE, "r_delta_l", ld.RELATIVE_MEASURES),
        ):
            for regime in (SignRegime.POSITIVE, SignRegime.NEGATIVE):
                batch = ld.generate_comparison_pairs(
                    None, regime, 200, DEFAULT_SEED, scale=scale
                )
                report = ld.run_comparison_study(
                    batch, n_samples=50, k_draws=2000,
                    candidates=(cand,), seed=DEFAULT_SEED, workers=WORKERS,
                )
                for measure in measures:
                    row = report.row(cand, measure)
                    if not (row.mean_error < 0.5
                            and row.p_value < BONFERRONI_P):
                        failures.append(
                            (cand, regime.value, measure.value,
                             row.mean_error, row.p_value)
                        )
        assert not failures, failures
        assert time.perf_counter() - start < 600.0


def test_criterion_08_ladder_correlations(capsys):
    # the gated statistic's mean must rank-correlate significantly with
    # every strength ladder, while a coin-flip candidate stays quiet in
    # at least 90% of seeded reruns
    with verdict(capsys, 8):
        ladders = [
            (measure, Scale.RAW, "delta_l") for measure in ld.RAW_MEASURES
        ] + [
            (measure, Scale.RELATIVE, "r_delta_l")
            for measure in ld.RELATIVE_MEASURES
        ]
        failures = []
        all_series = []
        for measure, scale, cand in ladders:
            base = ld.default_base_config(scale, SignRegime.POSITIVE)
            series = ld.generate_series(measure, 10, base=base, scale=scale)
            all_series.append(series)
            report = ld.spearman_study(
                series, n_samples=200, k_draws=2000,
                seed=DEFAULT_SEED, candidates=(cand,), workers=WORKERS,
            )
            row = report.row(cand, measure)
            if not row.significant:
                failures.append((cand, measure.value, row.rho,
                                 row.ci_lo, row.ci_hi))
        assert not failures, failures

        clean_reruns = 0
        for rerun in range(20):
            seed = DEFAULT_SEED + 1 + rerun
            quiet = True
            for series in all_series:
                report = ld.spearman_study(
                    series, n_samples=200, k_draws=2000,
                    seed=seed, candidates=("rnd",), workers=WORKERS,
                )
                if report.row("rnd", series.measure).significant:
                    quiet = False
                    break
            clean_reruns += quiet
        assert clean_reruns >= 18, f"only {clean_reruns}/20 reruns quiet"


def test_criterion_09_oracle_equivalence(capsys, rng):
    # closed-form statistics against quadrature and grid-count oracles
    with verdict(capsys, 9):
        def group():
            return ld.GroupSummary(
                rng.uniform(-5.0, 5.0), rng.uniform(0.3, 4.0),
                int(rng.integers(3, 40)),
            )

        for _ in range(100):
            a, b = group(), group()
            want = oracles.welch_p_oracle(
                (a.mean, a.sd, a.size), (b.mean, b.sd, b.size)
            )
            assert abs(ld.welch_p(a, b) - want) <= 1e-6

        for _ in range(100):
            a, b = group(), group()
            want = oracles.cohens_d_oracle(
                (a.mean, a.sd, a.size), (b.mean, b.sd, b.size)
            )
            assert abs(ld.cohens_d(a, b) - want) <= 1e-6

        for _ in range(100):
            a, b = group(), group()
            neg = -rng.uniform(0.2, 4.0)
            pos = rng.uniform(0.2, 4.0)
            margins = ld.NullRegion(neg, pos, Scale.RAW)
            want = oracles.tost_p_oracle(
                (a.mean, a.sd, a.size), (b.mean, b.sd, b.size), neg, pos
            )
            assert abs(ld.tost_p(a, b, margins) - want) <= 1e-6

        for _ in range(100):
            neg = -rng.uniform(0.3, 3.0)
            pos = rng.uniform(0.3, 3.0)
            center = rng.uniform(-4.0, 4.0)
            width = rng.uniform(1e-3, 4.0 * (pos - neg))
            interval = ld.CredibleBounds(
                center - width / 2.0, center + width / 2.0, 0.05, Scale.RAW
            )
            region = ld.NullRegion(neg, pos, Scale.RAW)
            want = oracles.sgpv_oracle(interval.lo, interval.hi, neg, pos)
            assert abs(ld.sgpv(interval, region) - want) <= 1e-6


def test_criterion_10_worker_count_determinism(capsys, tmp_path):
    # the benchmark command's file output cannot depend on how many
    # worker processes produced it
    with verdict(capsys, 10):
        outputs = []
        for workers in (1, 4, 8):
            target = tmp_path / f"risk-w{workers}.csv"
            code, out = run_cli(
                ["risk", "--pairs", "50", "--samples", "2",
                 "--draws", "1000", "--candidates", "delta_l,rnd",
                 "--seed", str(DEFAULT_SEED), "--workers", str(workers),
                 "--out-csv", str(target)])
            assert code == 0
            assert out == ""
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert b"delta_l" in outputs[0]
