"""Simulation campaigns: population sampling, pair design, scoring."""

import dataclasses
import math

import numpy as np
import pytest

import leastdiff as ld
from leastdiff import (
    CANDIDATES,
    ComparisonPair,
    InfeasibleSeries,
    Measure,
    OutOfRange,
    PopulationConfig,
    Scale,
    SignRegime,
    Winner,
    ZeroVarianceWarning,
)
from leastdiff.riskbench import (
    ALPHA_GRID,
    ORACLE,
    _pair_worker,
    default_base_config,
    draw_sample,
    expected_t_ratio,
    fairness_band,
    generate_comparison_pairs,
    generate_series,
    run_comparison_study,
    spearman_study,
)
from leastdiff.rng import substream

import oracles


BASE = PopulationConfig(50.0, 65.0, 10.0, 10.0, 16, 16, 0.05)


class TestDrawSample:
    def test_shapes_follow_config(self):
        s = draw_sample(BASE, substream(0, "data"))
        assert s.x.size == 16 and s.y.size == 16

    def test_zero_noise_is_constant(self):
        cfg = PopulationConfig(50.0, 65.0, 0.0, 0.0, 5, 5, 0.05)
        s = draw_sample(cfg, substream(0, "data"))
        assert np.all(s.x == 50.0) and np.all(s.y == 65.0)

    def test_same_substream_same_sample(self):
        a = draw_sample(BASE, substream(3, "data", 7))
        b = draw_sample(BASE, substream(3, "data", 7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_sample_mean_concentrates(self):
        cfg = PopulationConfig(50.0, 65.0, 2.0, 2.0, 10000, 10000, 0.05)
        s = draw_sample(cfg, substream(1, "data"))
        assert s.x.mean() == pytest.approx(50.0, abs=4 * 2.0 / 100)
        assert s.y.mean() == pytest.approx(65.0, abs=4 * 2.0 / 100)


class TestTRatio:
    def test_null_config_hovers_near_zero(self):
        cfg = PopulationConfig(50.0, 50.0, 5.0, 5.0, 30, 30, 0.05)
        r = expected_t_ratio(cfg, substream(0, "probe"), n_probe=200)
        assert abs(r) < 0.3

    def test_doubling_mean_gap_doubles_the_ratio(self):
        twice = dataclasses.replace(BASE, mu_y=80.0)  # gap 15 -> 30
        r1 = expected_t_ratio(BASE, substream(2, "probe"), n_probe=400)
        r2 = expected_t_ratio(twice, substream(2, "probe"), n_probe=400)
        assert r2 / r1 == pytest.approx(2.0, rel=0.1)

    def test_smaller_alpha_shrinks_the_ratio(self):
        s = draw_sample(BASE, substream(5, "data"))
        loose = oracles.t_ratio(s, 0.05)
        tight = oracles.t_ratio(s, 0.005)
        assert abs(tight) < abs(loose)
        assert math.copysign(1, tight) == math.copysign(1, loose)

    def test_zero_variance_convention(self):
        cfg = PopulationConfig(1.0, 2.0, 0.0, 0.0, 5, 5, 0.05)
        s = draw_sample(cfg, substream(0, "data"))
        with pytest.warns(ZeroVarianceWarning):
            assert oracles.t_ratio(s, 0.05) == math.inf

    @staticmethod
    def _probe_loop(config, rng, n_probe):
        # the per-probe definition: successive samples, ratios summed in order
        total = 0.0
        for _ in range(n_probe):
            total += oracles.t_ratio(
                draw_sample(config, rng), config.alpha_dm
            )
        return total / n_probe

    @pytest.mark.filterwarnings("ignore::leastdiff.ZeroVarianceWarning")
    def test_batched_probes_equal_the_probe_loop(self):
        r = np.random.default_rng(11)
        configs = [
            PopulationConfig(1.0, 2.0, 0.0, 0.0, 5, 5, 0.05),
            PopulationConfig(3.0, 3.0, 0.0, 0.0, 4, 6, 0.01),
            PopulationConfig(0.1, 0.7, 0.0, 0.0, 3, 7, 0.05),
            PopulationConfig(10.0, 12.0, 0.0, 4.0, 8, 8, 0.025),
        ]
        for _ in range(200):
            configs.append(PopulationConfig(
                float(r.uniform(1, 100)), float(r.uniform(1, 100)),
                float(r.uniform(0, 30)), float(r.uniform(0, 30)),
                int(r.integers(2, 41)), int(r.integers(2, 41)),
                0.05 / int(r.integers(1, 11))))
        for i, cfg in enumerate(configs):
            for n_probe in (1, 50):
                want = self._probe_loop(cfg, substream(i, "probe"), n_probe)
                got = expected_t_ratio(cfg, substream(i, "probe"), n_probe)
                assert repr(got) == repr(want), (cfg, n_probe)

    def test_batched_probes_keep_the_zero_variance_warning(self):
        cfg = PopulationConfig(1.0, 2.0, 0.0, 0.0, 5, 5, 0.05)
        with pytest.warns(ZeroVarianceWarning):
            assert expected_t_ratio(cfg, substream(0, "probe")) == math.inf

    def test_analytic_value_tracks_probe_estimate(self):
        probe = expected_t_ratio(BASE, substream(8, "probe"), n_probe=3000)
        assert oracles.analytic_t_ratio(BASE) == pytest.approx(probe, rel=0.05)


class TestFairnessBand:
    def test_matches_exact_binomial_oracle(self):
        for count in (50, 200, 333):
            assert fairness_band(count) == pytest.approx(
                oracles.binom_central_band(count))

    def test_band_at_200_sits_inside_published_bracket(self):
        lo, hi = fairness_band(200)
        assert 0.38 <= lo < hi <= 0.62


class TestGenerateSeries:
    def test_mu_ladder(self):
        series = generate_series(Measure.MU_DM, 6)
        values = [c.mu_dm for c in series.configs]
        assert len(values) == 6
        assert all(b > a for a, b in zip(values, values[1:]))
        for cfg in series.configs:
            assert cfg.sigma_d == series.configs[0].sigma_d
            assert cfg.df_d == series.configs[0].df_d
            assert cfg.alpha_dm == series.configs[0].alpha_dm
        assert Measure.R_MU_DM in series.couplings

    def test_sigma_ladder_decreases_toward_strength(self):
        series = generate_series(Measure.SIGMA_D, 5)
        values = [c.sigma_d for c in series.configs]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert len({c.mu_dm for c in series.configs}) == 1
        assert len({c.df_d for c in series.configs}) == 1

    def test_df_ladder_is_integer_and_rising(self):
        series = generate_series(Measure.DF_D, 5)
        values = [c.df_d for c in series.configs]
        assert all(isinstance(c.m, int) and c.m == c.n for c in series.configs)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert len({c.mu_dm for c in series.configs}) == 1
        assert len({c.sigma_d for c in series.configs}) == 1

    def test_alpha_ladder_walks_the_grid(self):
        series = generate_series(Measure.ALPHA_DM, 10)
        values = [c.alpha_dm for c in series.configs]
        assert values == sorted(ALPHA_GRID)
        assert all(b > a for a, b in zip(values, values[1:]))
        with pytest.raises(InfeasibleSeries):
            generate_series(Measure.ALPHA_DM, 11)

    def test_relative_ladder(self):
        series = generate_series(Measure.R_MU_DM, 5, scale=Scale.RELATIVE)
        assert series.scale is Scale.RELATIVE
        values = [c.r_mu_dm for c in series.configs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_regime_base_descends(self):
        base = default_base_config(Scale.RAW, SignRegime.NEGATIVE)
        series = generate_series(Measure.MU_DM, 5, base=base)
        values = [c.mu_dm for c in series.configs]
        assert all(v < 0 for v in values)
        assert all(abs(b) > abs(a) for a, b in zip(values, values[1:]))

    def test_too_few_steps(self):
        with pytest.raises(OutOfRange):
            generate_series(Measure.MU_DM, 4)

    def test_degenerate_bases_are_infeasible(self):
        flat = dataclasses.replace(BASE, mu_y=BASE.mu_x)
        with pytest.raises(InfeasibleSeries):
            generate_series(Measure.MU_DM, 5, base=flat)
        silent = dataclasses.replace(BASE, sigma_x=0.0, sigma_y=0.0)
        with pytest.raises(InfeasibleSeries):
            generate_series(Measure.SIGMA_D, 5, base=silent)
        lopsided = dataclasses.replace(BASE, n=17)
        with pytest.raises(InfeasibleSeries):
            generate_series(Measure.DF_D, 5, base=lopsided)


class TestGenerateComparisonPairs:
    @pytest.fixture(scope="module")
    def mu_batch(self):
        return generate_comparison_pairs(Measure.MU_DM, SignRegime.POSITIVE,
                                         50, seed=11)

    def test_batch_size_and_determinism(self, mu_batch):
        assert len(mu_batch) == 50
        again = generate_comparison_pairs(Measure.MU_DM, SignRegime.POSITIVE,
                                          50, seed=11)
        assert list(again) == list(mu_batch)

    def test_experiments_share_the_control_mean(self, mu_batch):
        for pair in mu_batch:
            assert pair.exp1.mu_x == pair.exp2.mu_x

    def test_every_measure_strictly_differs(self, mu_batch):
        for pair in mu_batch:
            assert set(pair.ground_truth) == set(ld.RAW_MEASURES)
            for measure in ld.RAW_MEASURES:
                v1 = pair.exp1.measure_value(measure)
                v2 = pair.exp2.measure_value(measure)
                if measure is Measure.MU_DM:
                    v1, v2 = abs(v1), abs(v2)
                assert v1 != v2

    def test_ground_truth_matches_config_values(self, mu_batch):
        orient = {
            Measure.MU_DM: lambda c: abs(c.mu_dm),      # larger is stronger
            Measure.SIGMA_D: lambda c: -c.sigma_d,      # smaller is stronger
            Measure.DF_D: lambda c: c.df_d,
            Measure.ALPHA_DM: lambda c: c.alpha_dm,
        }
        for pair in mu_batch:
            for measure, key in orient.items():
                stronger = (Winner.EXP1
                            if key(pair.exp1) > key(pair.exp2)
                            else Winner.EXP2)
                assert pair.ground_truth[measure] is stronger

    def test_regime_filter_holds(self, mu_batch):
        for pair in mu_batch:
            assert pair.exp1.mu_dm > 0 and pair.exp2.mu_dm > 0
            assert pair.t_ratio_1 > 1.0 and pair.t_ratio_2 > 1.0

    def test_winner_fraction_inside_fairness_band(self, mu_batch):
        lo, hi = fairness_band(50)
        frac = mu_batch.winner_fractions[Measure.MU_DM.value]
        assert lo <= frac <= hi
        wins = sum(p.ground_truth[Measure.MU_DM] is Winner.EXP1
                   for p in mu_batch)
        assert frac == wins / 50

    def test_negative_regime(self):
        batch = generate_comparison_pairs(Measure.SIGMA_D,
                                          SignRegime.NEGATIVE, 50, seed=4)
        for pair in batch:
            assert pair.exp1.mu_dm < 0 and pair.exp2.mu_dm < 0
            assert pair.t_ratio_1 < -1.0 and pair.t_ratio_2 < -1.0

    def test_relative_scale_inferred_from_measure(self):
        batch = generate_comparison_pairs(Measure.R_MU_DM,
                                          SignRegime.POSITIVE, 50, seed=6)
        assert set(batch[0].ground_truth) == set(ld.RELATIVE_MEASURES)

    def test_simultaneous_needs_explicit_scale(self):
        with pytest.raises(OutOfRange):
            generate_comparison_pairs(None, SignRegime.POSITIVE, 50, seed=0)
        batch = generate_comparison_pairs(None, SignRegime.POSITIVE, 50,
                                          seed=0, scale=Scale.RAW)
        assert batch.independent is None
        lo, hi = fairness_band(50)
        for measure in ld.RAW_MEASURES:
            assert lo <= batch.winner_fractions[measure.value] <= hi

    def test_batch_records_its_design(self, mu_batch):
        assert mu_batch.scale is Scale.RAW
        assert mu_batch.regime is SignRegime.POSITIVE
        assert mu_batch.independent is Measure.MU_DM
        assert mu_batch.scored == (Measure.MU_DM,)
        batch = generate_comparison_pairs(None, SignRegime.NEGATIVE, 50,
                                          seed=2, scale=Scale.RELATIVE)
        assert batch.scale is Scale.RELATIVE
        assert batch.regime is SignRegime.NEGATIVE
        assert batch.independent is None
        assert batch.scored == ld.RELATIVE_MEASURES
        report = run_comparison_study(batch, n_samples=1, k_draws=1000,
                                      candidates=("rnd",), seed=1)
        assert (report.scale, report.regime, report.independent) == (
            batch.scale, batch.regime, "simultaneous")
        assert [row.measure for row in report.rows] == [
            m.value for m in batch.scored]
        assert report.n_pairs == len(batch)
        assert report.regenerations == batch.regenerations
        assert report.winner_fractions == batch.winner_fractions
        assert report.agreement_fractions == batch.agreement_fractions

    def test_fractions_count_the_coins(self):
        batch = generate_comparison_pairs(None, SignRegime.POSITIVE, 50,
                                          seed=0, scale=Scale.RAW)
        measures = ld.RAW_MEASURES
        assert batch.winner_fractions == {
            m.value: sum(p.ground_truth[m] is Winner.EXP1 for p in batch) / 50
            for m in measures}
        assert batch.agreement_fractions == {
            f"{a.value}&{b.value}": sum(
                p.ground_truth[a] is p.ground_truth[b] for p in batch) / 50
            for i, a in enumerate(measures) for b in measures[i + 1:]}

    def test_count_floor(self):
        with pytest.raises(OutOfRange):
            generate_comparison_pairs(Measure.MU_DM, SignRegime.POSITIVE,
                                      49, seed=0)


class TestRunComparisonStudy:
    @pytest.fixture(scope="module")
    def mini_batch(self):
        return generate_comparison_pairs(Measure.MU_DM, SignRegime.POSITIVE,
                                         50, seed=11)

    @pytest.fixture(scope="module")
    def mini_report(self, mini_batch):
        return run_comparison_study(
            mini_batch, n_samples=2, k_draws=1000,
            candidates=("xbar_dm", "delta_l", "rnd", ORACLE), seed=3)

    def test_report_shape(self, mini_batch, mini_report):
        report = mini_report
        assert {r.candidate for r in report.rows} == {
            "xbar_dm", "delta_l", "rnd", ORACLE}
        assert all(r.measure == "mu_dm" for r in report.rows)
        assert report.independent == "mu_dm"
        assert report.scale is Scale.RAW
        assert report.regime is SignRegime.POSITIVE
        assert report.n_pairs == 50 and report.n_samples == 2
        assert report.regenerations == mini_batch.regenerations

    def test_oracle_row_is_perfect(self, mini_report):
        row = mini_report.row(ORACLE, Measure.MU_DM)
        assert row.mean_error == 0.0
        assert row.n_trials == 100

    def test_strong_candidate_beats_noise(self, mini_report):
        direct = mini_report.row("xbar_dm", Measure.MU_DM)
        assert direct.mean_error < 0.5
        noise = mini_report.row("rnd", Measure.MU_DM)
        lo, hi = oracles.binom_central_band(noise.n_trials, 0.999)
        assert lo <= noise.mean_error <= hi

    def test_significance_flag_is_bonferroni(self, mini_report):
        for row in mini_report.rows:
            if row.candidate == ORACLE:
                continue
            assert row.significant == (row.p_value < 0.05 / 3)

    def test_ks_statistic_present(self, mini_report):
        assert 0.0 <= mini_report.ks_statistic <= 1.0

    def test_worker_count_is_invisible(self, mini_batch, mini_report):
        parallel = run_comparison_study(
            mini_batch, n_samples=2, k_draws=1000,
            candidates=("xbar_dm", "delta_l", "rnd", ORACLE), seed=3,
            workers=2)
        assert parallel == mini_report

    def test_rnd_fast_path_equals_full_run(self, mini_batch, mini_report):
        # rnd-only runs skip the posterior entirely; same trials, same draws
        rnd_only = run_comparison_study(
            mini_batch, n_samples=2, k_draws=1000, candidates=("rnd",),
            seed=3)
        full_row = mini_report.row("rnd", Measure.MU_DM)
        fast_row = rnd_only.row("rnd", Measure.MU_DM)
        assert fast_row.mean_error == full_row.mean_error
        assert fast_row.n_trials == full_row.n_trials

    def test_unknown_candidate_rejected(self, mini_batch):
        with pytest.raises(OutOfRange):
            run_comparison_study(mini_batch, n_samples=1, k_draws=1000,
                                 candidates=("nonsense",))


class TestPairWorker:
    """The pair worker's table of trials against the per-trial loop."""

    @staticmethod
    def _check(pair, candidates, measures, scale, n_samples=3, index=0):
        task = (index, pair, n_samples, 1000, 5, candidates, measures, scale)
        got_errors, got_trials = _pair_worker(task)
        want_errors, want_trials = oracles.pair_worker_loop(task)
        assert np.array_equal(got_errors, want_errors)
        assert np.array_equal(got_trials, want_trials)
        return dict(zip(candidates, got_trials.tolist()))

    def test_raw_batch_every_candidate(self):
        batch = generate_comparison_pairs(None, SignRegime.POSITIVE, 50,
                                          seed=0, scale=Scale.RAW)
        names = ("delta_l",) + CANDIDATES + (ORACLE, "delta_l")
        for index in (0, 7):
            trials = self._check(batch[index], names, batch.scored,
                                 batch.scale, index=index)
            assert set(trials.values()) == {3}

    def test_relative_batch_every_candidate(self):
        batch = generate_comparison_pairs(Measure.R_MU_DM,
                                          SignRegime.NEGATIVE, 50, seed=6)
        self._check(batch[0], (ORACLE,) + CANDIDATES, batch.scored,
                    batch.scale)

    def test_withheld_relative_draws(self):
        # a control mean near zero withholds the relative draws on some
        # trials: those candidates lose trials, the others keep them all
        pair = ComparisonPair(
            PopulationConfig(4.0, 6.0, 1.0, 1.0, 4, 4, 0.05),
            PopulationConfig(4.0, 7.0, 1.0, 1.0, 6, 6, 0.025),
            {Measure.R_MU_DM: Winner.EXP2, Measure.R_SIGMA_D: Winner.EXP2,
             Measure.DF_D: Winner.EXP2, Measure.ALPHA_DM: Winner.EXP1},
        )
        trials = self._check(pair, CANDIDATES + (ORACLE,),
                             ld.RELATIVE_MEASURES, Scale.RELATIVE,
                             n_samples=6)
        assert trials["xbar_dm"] == trials[ORACLE] == 6
        assert 0 < trials["r_delta_l"] < 6


class TestSpearmanStudy:
    @pytest.fixture(scope="module")
    def noiseless_report(self):
        # near-zero population noise makes the rank order deterministic:
        # xbar_dm and delta_l land within ~1e-9 of the exact mean gap
        base = dataclasses.replace(default_base_config(), sigma_x=1e-9,
                                   sigma_y=1e-9)
        series = generate_series(Measure.MU_DM, 5, base=base)
        return spearman_study(
            series, n_samples=3, k_draws=1000, seed=7,
            candidates=("xbar_dm", "delta_l", "p_sg", "rnd"))

    def test_monotone_candidates_reach_perfect_rho(self, noiseless_report):
        for cand in ("xbar_dm", "delta_l"):
            row = noiseless_report.row(cand, Measure.MU_DM)
            assert row.rho == 1.0
            assert row.ci_lo == 1.0 and row.ci_hi == 1.0
            assert row.significant

    def test_constant_candidate_has_no_rank_signal(self, noiseless_report):
        # every rung puts the whole interval past the null region, so the
        # overlap fraction is exactly 0 in every cell and the rank
        # correlation is undefined
        row = noiseless_report.row("p_sg", Measure.MU_DM)
        assert math.isnan(row.rho)
        assert not row.significant

    def test_noise_candidate_stays_quiet(self, noiseless_report):
        row = noiseless_report.row("rnd", Measure.MU_DM)
        assert abs(row.rho) < 1.0
        assert not row.significant

    def test_report_metadata(self, noiseless_report):
        assert noiseless_report.n_configs == 5
        assert noiseless_report.n_samples == 3
        assert noiseless_report.k_draws == 1000

    def test_noisy_ladder_matches_rank_oracle_direction(self):
        series = generate_series(Measure.SIGMA_D, 5)
        report = spearman_study(series, n_samples=20, k_draws=1000, seed=9,
                                candidates=("s_dm",))
        row = report.row("s_dm", Measure.SIGMA_D)
        # ranks are taken against the measure's own values, and the pooled
        # spread estimate tracks the spread parameter directly
        assert row.rho > 0
        assert row.ci_lo <= row.rho <= row.ci_hi

    def test_worker_count_is_invisible(self):
        series = generate_series(Measure.MU_DM, 5)
        a = spearman_study(series, n_samples=4, k_draws=1000, seed=2,
                           candidates=("xbar_dm", "rnd"))
        b = spearman_study(series, n_samples=4, k_draws=1000, seed=2,
                           candidates=("xbar_dm", "rnd"), workers=2)
        assert a == b

    def test_input_floors(self):
        series = generate_series(Measure.MU_DM, 5)
        short = dataclasses.replace(series, configs=series.configs[:3])
        with pytest.raises(OutOfRange):
            spearman_study(short, n_samples=4, k_draws=1000)
        with pytest.raises(OutOfRange):
            spearman_study(series, n_samples=1, k_draws=1000)

    def test_rank_rho_agrees_with_plain_oracle(self, rng):
        # the vectorised rank correlation inside the study must agree with
        # a hand-rolled Spearman on plain vectors
        from leastdiff.riskbench import _rank_rho
        for _ in range(10):
            table = np.round(rng.normal(size=(1, 9)), 1)
            x = np.arange(9, dtype=float)
            got = _rank_rho(np.argsort(np.argsort(x)) + 1.0, table)
            want = oracles.spearman_oracle(x, table[0])
            assert got[0] == pytest.approx(want, rel=1e-12)

    def test_rank_rho_degenerate_rows(self):
        from leastdiff.riskbench import _rank_rho
        x_ranks = np.arange(1.0, 10.0)
        flat = _rank_rho(x_ranks, np.zeros((1, 9)))
        assert math.isnan(flat[0])
        holed = np.arange(9.0).reshape(1, 9)
        holed[0, 4] = np.nan
        assert math.isnan(_rank_rho(x_ranks, holed)[0])
