"""Effect-strength statistics and the rival candidate suite."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

import leastdiff as ld
from leastdiff import (
    CredibleBounds,
    EmptyDraws,
    GroupSummary,
    InsufficientDraws,
    MixedSignRegime,
    NullRegion,
    OutOfRange,
    Scale,
    StudyRecord,
    ZeroPooledVariance,
    ZeroVarianceWarning,
    bayes_factor,
    candidate_suite,
    cohens_d,
    compare_candidate,
    credible_bounds,
    decide_stronger,
    effect_strength,
    equivalence_margins,
    least_difference,
    mean_difference,
    most_difference,
    relative_mean_difference,
    sample_posterior,
    sgpv,
    standard_error_dm,
    tost_p,
    welch_p,
)
from leastdiff.tables import StudyTableRow

import oracles


def bounds(lo, hi, tail=0.05, scale=Scale.RAW):
    return CredibleBounds(lo, hi, tail, scale)


def region(neg, pos, scale=Scale.RAW):
    return NullRegion(neg, pos, scale)


RAW_REGION = NullRegion(-10.0, 10.0, Scale.RAW)


class TestLeastDifference:
    def test_positive_bounds(self):
        assert least_difference(bounds(2.0, 10.0), 1.0) == 2.0

    def test_straddling_bounds(self):
        assert least_difference(bounds(-3.0, 4.0), 1.0) == 0.0
        assert least_difference(bounds(-3.0, 4.0), -1.0) == 0.0

    def test_negative_bounds(self):
        assert least_difference(bounds(-9.0, -4.0), -1.0) == -4.0

    def test_bound_touching_zero_counts_as_straddle(self):
        assert least_difference(bounds(0.0, 5.0), 1.0) == 0.0
        assert least_difference(bounds(-5.0, 0.0), -1.0) == 0.0

    def test_zero_sign_reference_forces_zero(self):
        assert least_difference(bounds(2.0, 10.0), 0.0) == 0.0

    def test_sign_comes_from_reference(self):
        assert least_difference(bounds(2.0, 10.0), -3.0) == -2.0


class TestLeastDifferenceScan:
    def test_grid_endpoint(self):
        got = oracles.least_difference_scan(bounds(2.0, 10.0), sign_ref=1.0)
        assert got == 2.0

    def test_zero_crossing(self):
        got = oracles.least_difference_scan(bounds(-3.0, 4.0), sign_ref=1.0)
        assert abs(got) <= 7.0 / 9999

    def test_grid_floor(self):
        with pytest.raises(OutOfRange):
            oracles.least_difference_scan(bounds(2.0, 10.0), grid=999)

    def test_agrees_with_shortcut(self, rng):
        for _ in range(100):
            lo = float(rng.uniform(-10, 10))
            hi = lo + float(rng.uniform(0.0, 10.0))
            sign = float(rng.choice([-1.0, 1.0]))
            b = bounds(lo, hi)
            spacing = (hi - lo) / 9999 if hi > lo else 0.0
            direct = least_difference(b, sign)
            scanned = oracles.least_difference_scan(b, sign_ref=sign)
            assert abs(direct - scanned) <= spacing + 1e-12


class TestMostDifference:
    def test_point_mass(self):
        assert most_difference([5.0] * 10, 0.05, 1.0) == 5.0
        assert most_difference([5.0] * 10, 0.05, -2.0) == -5.0
        assert most_difference([5.0] * 10, 0.05, 0.0) == 0.0

    def test_empty_draws(self):
        with pytest.raises(EmptyDraws):
            most_difference([], 0.05, 1.0)

    def test_alpha_range(self):
        with pytest.raises(OutOfRange):
            most_difference([1.0, 2.0], 0.5, 1.0)

    def test_symmetric_uniform_radius(self, rng):
        draws = rng.uniform(-1.0, 1.0, 100000)
        assert most_difference(draws, 0.05, 1.0) == pytest.approx(0.95, abs=0.01)

    def test_matches_linear_scan_oracle(self):
        for trial in range(40):
            r = np.random.default_rng(500 + trial)
            k = int(r.integers(5, 300))
            draws = r.normal(r.uniform(-2, 2), r.uniform(0.1, 2), k)
            if trial % 3 == 0:
                draws = np.round(draws, 1)  # ties, including +/- pairs
            alpha = float(r.uniform(0.01, 0.49))
            assert most_difference(draws, alpha, 1.0) == oracles.most_difference_scan(
                draws, alpha)

    def test_positive_draws_reduce_to_upper_quantile(self, rng):
        draws = rng.uniform(0.5, 3.0, 997)
        alpha = 0.07
        got = most_difference(draws, alpha, 1.0)
        arr = np.sort(draws)
        # the result is an attained draw value whose one-sided coverage
        # first reaches 1 - alpha: the (1 - alpha) upper order statistic
        idx = int(np.searchsorted(arr, got))
        assert arr[idx] == got
        assert (idx + 1) / arr.size >= 1.0 - alpha
        assert idx / arr.size < 1.0 - alpha

    def test_no_wider_than_symmetric_radius(self, toy_study):
        # the near bound can never be farther out than the symmetric radius
        for seed in range(5):
            draws = sample_posterior(toy_study, k=2000, seed=seed)
            result = effect_strength(toy_study, draws)
            if result.delta_l != 0.0:
                assert abs(result.delta_l) <= abs(result.delta_m) + 1e-12


class TestWelchP:
    def test_equal_means_give_one(self):
        g = GroupSummary(3.0, 1.0, 8)
        assert welch_p(g, GroupSummary(3.0, 2.0, 5)) == 1.0

    def test_swap_symmetry(self):
        a = GroupSummary(1.0, 1.5, 9)
        b = GroupSummary(4.0, 0.5, 14)
        assert welch_p(a, b) == pytest.approx(welch_p(b, a), rel=1e-14)

    def test_reference_case(self):
        # frozen from the quadrature oracle over the hand-written density
        p = welch_p(GroupSummary(0.0, 1.0, 10), GroupSummary(1.0, 1.0, 10))
        assert p == pytest.approx(0.038249614516114, rel=1e-10)

    def test_matches_quadrature_oracle(self, rng):
        for _ in range(20):
            ctl = (float(rng.uniform(-5, 5)), float(rng.uniform(0.2, 3.0)),
                   int(rng.integers(3, 40)))
            exp = (float(rng.uniform(-5, 5)), float(rng.uniform(0.2, 3.0)),
                   int(rng.integers(3, 40)))
            got = welch_p(GroupSummary(*ctl), GroupSummary(*exp))
            assert got == pytest.approx(oracles.welch_p_oracle(ctl, exp), abs=1e-6)

    def test_summary_route_equals_raw_sample_route(self, rng):
        # the same data offered as summaries or as raw vectors must agree;
        # scipy's Welch test on the raw vectors is the second route
        for _ in range(10):
            x = oracles.exact_moment_samples(
                float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)), 12, rng)
            y = oracles.exact_moment_samples(
                float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)), 9, rng)
            summary_p = welch_p(*ld.summarize(ld.RawSamples(x, y)))
            scipy_p = sps.ttest_ind(y, x, equal_var=False).pvalue
            assert summary_p == pytest.approx(scipy_p, rel=1e-9)

    def test_zero_variance_conventions(self):
        silent = GroupSummary(2.0, 0.0, 5)
        assert welch_p(silent, GroupSummary(2.0, 0.0, 7)) == 1.0
        with pytest.warns(ZeroVarianceWarning):
            assert welch_p(silent, GroupSummary(3.0, 0.0, 7)) == 0.0


class TestTostP:
    def test_difference_at_margin_is_half(self):
        p = tost_p(GroupSummary(0.0, 0.001, 20), GroupSummary(10.0, 0.001, 20),
                   RAW_REGION)
        assert p == pytest.approx(0.5, abs=1e-6)

    def test_deep_inside_goes_to_zero(self):
        p = tost_p(GroupSummary(0.0, 0.01, 20), GroupSummary(0.0, 0.01, 20),
                   RAW_REGION)
        assert p < 1e-12

    def test_sign_flip_symmetry(self):
        ctl = GroupSummary(0.0, 1.0, 10)
        up = tost_p(ctl, GroupSummary(4.0, 1.0, 10), RAW_REGION)
        down = tost_p(ctl, GroupSummary(-4.0, 1.0, 10), RAW_REGION)
        assert up == pytest.approx(down, rel=1e-12)

    def test_matches_quadrature_oracle(self, rng):
        for _ in range(20):
            ctl = (float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 3.0)),
                   int(rng.integers(3, 40)))
            exp = (float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 3.0)),
                   int(rng.integers(3, 40)))
            neg = float(rng.uniform(-5, -0.5))
            pos = float(rng.uniform(0.5, 5))
            got = tost_p(GroupSummary(*ctl), GroupSummary(*exp),
                         region(neg, pos))
            assert got == pytest.approx(
                oracles.tost_p_oracle(ctl, exp, neg, pos), abs=1e-6)

    def test_zero_variance_conventions(self):
        ctl = GroupSummary(0.0, 0.0, 5)
        with pytest.warns(ZeroVarianceWarning):
            assert tost_p(ctl, GroupSummary(0.0, 0.0, 5), RAW_REGION) == 0.0
        with pytest.warns(ZeroVarianceWarning):
            assert tost_p(ctl, GroupSummary(10.0, 0.0, 5), RAW_REGION) == 0.5
        with pytest.warns(ZeroVarianceWarning):
            assert tost_p(ctl, GroupSummary(20.0, 0.0, 5), RAW_REGION) == 1.0


class TestEquivalenceMargins:
    def test_raw_region_passes_through(self):
        ctl = GroupSummary(50.0, 5.0, 10)
        assert equivalence_margins(RAW_REGION, ctl) is RAW_REGION

    def test_relative_region_scales_by_control_mean(self):
        ctl = GroupSummary(50.0, 5.0, 10)
        got = equivalence_margins(region(-0.2, 0.3, Scale.RELATIVE), ctl)
        assert got.scale is Scale.RAW
        assert (got.neg_threshold, got.pos_threshold) == (-10.0, 15.0)

    def test_negative_control_mean_uses_magnitude(self):
        ctl = GroupSummary(-50.0, 5.0, 10)
        got = equivalence_margins(region(-0.2, 0.2, Scale.RELATIVE), ctl)
        assert (got.neg_threshold, got.pos_threshold) == (-10.0, 10.0)

    def test_zero_control_mean_rejected(self):
        with pytest.raises(OutOfRange):
            equivalence_margins(region(-0.2, 0.2, Scale.RELATIVE),
                                GroupSummary(0.0, 5.0, 10))


class TestSgpv:
    def test_half_overlap_with_wide_region(self):
        assert sgpv(bounds(0.0, 2.0), region(-10.0, 1.0)) == 0.5

    def test_contained_interval(self):
        assert sgpv(bounds(-0.5, 0.5), region(-1.0, 1.0)) == 1.0

    def test_disjoint_interval(self):
        assert sgpv(bounds(5.0, 6.0), region(-1.0, 1.0)) == 0.0

    def test_small_interval_correction(self):
        # interval ten times wider than twice the region: overlap 2/40,
        # correction factor 10
        assert sgpv(bounds(-11.0, 29.0), region(-1.0, 1.0)) == 0.5

    def test_point_interval_is_membership(self):
        assert sgpv(bounds(0.5, 0.5), region(-1.0, 1.0)) == 1.0
        assert sgpv(bounds(1.0, 1.0), region(-1.0, 1.0)) == 1.0
        assert sgpv(bounds(3.0, 3.0), region(-1.0, 1.0)) == 0.0

    def test_scale_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgpv(bounds(0.0, 1.0, scale=Scale.RELATIVE), region(-1.0, 1.0))

    def test_matches_grid_oracle(self, rng):
        for _ in range(15):
            lo = float(rng.uniform(-3, 2))
            hi = lo + float(rng.uniform(0.05, 4))
            neg = float(rng.uniform(-3, -0.3))
            pos = float(rng.uniform(0.3, 3))
            got = sgpv(bounds(lo, hi), region(neg, pos))
            assert got == pytest.approx(
                oracles.sgpv_oracle(lo, hi, neg, pos), abs=1e-6)


class TestBayesFactor:
    def make_draws(self, diff):
        diff = np.asarray(diff, dtype=float)
        return ld.PosteriorDraws(
            mu_x=np.ones_like(diff), mu_y=1.0 + diff, diff=diff,
            rel_diff=diff.copy(), k=diff.size, seed=0)

    def test_all_draws_outside(self):
        d = self.make_draws(np.full(999, 100.0))
        assert bayes_factor(d, RAW_REGION) == 1000.0

    def test_balanced_region(self):
        d = self.make_draws(np.linspace(-1, 1, 2000))
        assert bayes_factor(d, region(-0.5, 0.5)) == pytest.approx(1.0, abs=0.01)

    def test_widening_region_never_raises_bf(self, rng):
        d = self.make_draws(rng.normal(0, 5, 2000))
        radii = np.linspace(0.5, 20.0, 25)
        values = [bayes_factor(d, region(-r, r)) for r in radii]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_relative_region_reads_relative_draws(self, toy_study):
        draws = sample_posterior(toy_study, k=5000, seed=2)
        raw_bf = bayes_factor(draws, region(-30.0, 30.0))
        rel_bf = bayes_factor(draws, region(-0.3, 0.3, Scale.RELATIVE))
        assert raw_bf != rel_bf


class TestCohensD:
    def test_unit_pooled_sd(self):
        assert cohens_d(GroupSummary(0, 1, 10), GroupSummary(1, 1, 10)) == 1.0

    def test_antisymmetry(self):
        a = GroupSummary(1.0, 1.5, 9)
        b = GroupSummary(4.0, 0.5, 14)
        assert cohens_d(a, b) == -cohens_d(b, a)

    def test_reference_case(self):
        d = cohens_d(GroupSummary(2, 1, 3), GroupSummary(5, 2, 5))
        assert d == pytest.approx(3.0 / math.sqrt(3.0), rel=1e-14)
        assert d == pytest.approx(
            oracles.cohens_d_oracle((2, 1, 3), (5, 2, 5)), rel=1e-14)

    def test_zero_pooled_variance(self):
        with pytest.raises(ZeroPooledVariance):
            cohens_d(GroupSummary(0, 0, 5), GroupSummary(1, 0, 5))


class TestBasicDifferences:
    def test_mean_difference(self, toy_study):
        assert mean_difference(toy_study.control, toy_study.experiment) == -30.0

    def test_relative_difference(self, toy_study):
        assert relative_mean_difference(
            toy_study.control, toy_study.experiment) == pytest.approx(-0.3)

    def test_relative_needs_nonzero_control(self):
        with pytest.raises(OutOfRange):
            relative_mean_difference(GroupSummary(0, 1, 5), GroupSummary(1, 1, 5))

    def test_standard_error(self):
        se = standard_error_dm(GroupSummary(0, 3, 9), GroupSummary(0, 4, 16))
        assert se == math.sqrt(2.0)


class TestEffectStrength:
    def test_tail_defaults_to_study_alpha(self, toy_study):
        draws = sample_posterior(toy_study, k=5000, seed=1)
        a = effect_strength(toy_study, draws)
        direct = credible_bounds(draws.diff, toy_study.alpha_dm)
        assert a.bounds_raw == direct
        assert a.delta_l == least_difference(direct, a.sign_ref_raw)

    def test_zero_iff_bounds_bracket_zero(self, toy_study):
        for seed in range(20):
            r = np.random.default_rng(seed)
            ctl = GroupSummary(float(r.uniform(20, 60)), float(r.uniform(1, 5)),
                               int(r.integers(8, 20)))
            exp = GroupSummary(
                ctl.mean + float(r.normal(0, 2.0)), float(r.uniform(1, 5)),
                int(r.integers(8, 20)))
            study = StudyRecord(ctl, exp, 0.05)
            draws = sample_posterior(study, k=2000, seed=seed)
            result = effect_strength(study, draws)
            straddles = result.bounds_raw.lo <= 0.0 <= result.bounds_raw.hi
            assert (result.delta_l == 0.0) == straddles

    def test_relative_block_matches_relative_draws(self, toy_study):
        draws = sample_posterior(toy_study, k=5000, seed=4)
        result = effect_strength(toy_study, draws)
        direct = credible_bounds(draws.rel_diff, toy_study.alpha_dm,
                                 Scale.RELATIVE)
        assert result.bounds_rel.lo == direct.lo
        assert result.r_delta_l == least_difference(direct, result.sign_ref_rel)

    @pytest.mark.parametrize("tail", [0.01, 0.2])
    def test_explicit_tail_matches_public_functions(self, toy_study, tail):
        assert tail != toy_study.alpha_dm
        draws = sample_posterior(toy_study, k=5000, seed=6)
        result = effect_strength(
            dataclasses.replace(toy_study, alpha_dm=tail), draws
        )
        sign = mean_difference(toy_study.control, toy_study.experiment)
        rel_sign = sign / toy_study.control.mean
        for values, scale, ref, got in (
            (draws.diff, Scale.RAW, sign,
             (result.bounds_raw, result.delta_l, result.delta_m,
              result.sign_ref_raw)),
            (draws.rel_diff, Scale.RELATIVE, rel_sign,
             (result.bounds_rel, result.r_delta_l, result.r_delta_m,
              result.sign_ref_rel)),
        ):
            direct = credible_bounds(values, tail, scale)
            want = (direct, least_difference(direct, ref),
                    most_difference(values, tail, ref), ref)
            # repr compares floats bit for bit, 0.0 against -0.0 included
            assert repr(got) == repr(want)

    def test_too_few_draws_for_the_tail_raise(self, toy_study):
        # 1,000 draws resolve a tail mass down to 0.002, as credible_bounds
        draws = sample_posterior(toy_study, k=1000, seed=2)
        effect_strength(dataclasses.replace(toy_study, alpha_dm=0.002), draws)
        with pytest.raises(InsufficientDraws,
                           match="need at least 2000 draws"):
            effect_strength(
                dataclasses.replace(toy_study, alpha_dm=0.001), draws
            )
        with pytest.raises(InsufficientDraws):
            credible_bounds(draws.diff, 0.001)

    def test_explicit_tail_with_withheld_relative_draws(self):
        study = StudyRecord(GroupSummary(0.5, 2.0, 4),
                            GroupSummary(2.0, 1.0, 4), 0.05)
        with pytest.warns(ld.NonpositiveControlWarning):
            draws = sample_posterior(study, k=5000, seed=0)
        result = effect_strength(
            dataclasses.replace(study, alpha_dm=0.1), draws
        )
        assert result.bounds_raw == credible_bounds(draws.diff, 0.1)
        assert (result.r_delta_l, result.r_delta_m, result.bounds_rel,
                result.sign_ref_rel) == (None, None, None, None)


class TestCandidateSuite:
    @pytest.fixture
    def suite_parts(self, toy_study):
        draws = sample_posterior(toy_study, k=4000, seed=9)
        stats = candidate_suite(toy_study, RAW_REGION, draws)
        return toy_study, draws, stats

    def test_component_consistency(self, suite_parts):
        study, draws, stats = suite_parts
        assert stats.xbar_dm == mean_difference(study.control, study.experiment)
        assert stats.r_xbar_dm == pytest.approx(-0.3)
        assert stats.s_dm == standard_error_dm(study.control, study.experiment)
        assert stats.rs_dm == pytest.approx(abs(stats.s_dm / 100.0))
        assert stats.p_n == welch_p(study.control, study.experiment)
        assert stats.p_e == tost_p(study.control, study.experiment, RAW_REGION)
        assert stats.cohen_d == cohens_d(study.control, study.experiment)
        strength = effect_strength(study, draws)
        assert stats.delta_l == strength.delta_l
        assert stats.delta_m == strength.delta_m
        assert stats.r_delta_l == strength.r_delta_l
        assert stats.bf == bayes_factor(draws, RAW_REGION)
        assert 0.0 <= stats.rnd < 1.0

    def test_rnd_is_reproducible(self, suite_parts):
        study, draws, stats = suite_parts
        again = candidate_suite(study, RAW_REGION, draws)
        assert again.rnd == stats.rnd

    def test_identical_groups_zero_out(self):
        g = GroupSummary(10.0, 2.0, 8)
        study = StudyRecord(g, GroupSummary(10.0, 2.0, 8), 0.05)
        draws = sample_posterior(study, k=2000, seed=0)
        stats = candidate_suite(study, RAW_REGION, draws)
        assert stats.xbar_dm == 0.0
        assert stats.cohen_d == 0.0
        assert stats.delta_l == 0.0

    def test_threshold_invariance_of_delta_l(self, toy_study):
        draws = sample_posterior(toy_study, k=4000, seed=9)
        wide = candidate_suite(toy_study, region(-50.0, 50.0), draws)
        narrow = candidate_suite(toy_study, region(-1.0, 1.0), draws)
        assert wide.delta_l == narrow.delta_l
        assert wide.r_delta_l == narrow.r_delta_l
        assert wide.delta_m == narrow.delta_m
        assert wide.p_e != narrow.p_e
        assert wide.p_sg != narrow.p_sg

    def test_relative_region_route(self, toy_study):
        draws = sample_posterior(toy_study, k=4000, seed=9)
        stats = candidate_suite(toy_study,
                                region(-0.2, 0.2, Scale.RELATIVE), draws)
        # equivalence margins map onto the raw scale of the data
        assert stats.p_e == tost_p(toy_study.control, toy_study.experiment,
                                   region(-20.0, 20.0))
        assert stats.bf == bayes_factor(draws,
                                        region(-0.2, 0.2, Scale.RELATIVE))

    def test_withheld_relative_nulls_relative_fields(self):
        study = StudyRecord(GroupSummary(0.5, 2.0, 4), GroupSummary(2.0, 1.0, 4),
                            0.05)
        with pytest.warns(ld.NonpositiveControlWarning):
            draws = sample_posterior(study, k=2000, seed=0)
        stats = candidate_suite(study, RAW_REGION, draws)
        assert stats.r_delta_l is None and stats.r_delta_m is None
        assert stats.r_xbar_dm is not None  # summary ratio needs no draws
        assert stats.bf is not None  # raw region still countable
        rel_stats = candidate_suite(study,
                                    region(-0.2, 0.2, Scale.RELATIVE), draws)
        assert rel_stats.bf is None and rel_stats.p_sg is None

    def test_raw_scale_equivariance(self, toy_study):
        scale = 3.0
        scaled_study = StudyRecord(
            GroupSummary(100.0 * scale, 12.0 * scale, 8),
            GroupSummary(70.0 * scale, 9.0 * scale, 6),
            0.05,
        )
        base_draws = sample_posterior(toy_study, k=4000, seed=11)
        scaled_draws = sample_posterior(scaled_study, k=4000, seed=11)
        base = candidate_suite(toy_study, RAW_REGION, base_draws)
        scaled = candidate_suite(
            scaled_study, region(-10.0 * scale, 10.0 * scale), scaled_draws)
        for name in ("xbar_dm", "s_dm", "delta_l", "delta_m"):
            assert scaled.value(name) == pytest.approx(
                scale * base.value(name), rel=1e-12)
        for name in ("r_xbar_dm", "rs_dm", "cohen_d", "p_n", "r_delta_l",
                     "r_delta_m", "bf"):
            assert scaled.value(name) == pytest.approx(
                base.value(name), rel=1e-9)


class TestDecisionRules:
    def _stats(self, **overrides):
        base = dict(
            xbar_dm=5.0, r_xbar_dm=0.5, s_dm=1.0, rs_dm=0.1, bf=2.0,
            p_n=0.04, p_e=0.3, p_sg=0.2, cohen_d=1.0, delta_m=6.0,
            r_delta_m=0.6, delta_l=3.0, r_delta_l=0.3, rnd=0.5,
        )
        base.update(overrides)
        return ld.CandidateStatistics(**base)

    def test_magnitude_rules(self):
        assert compare_candidate("delta_l", 5.0, 2.0)
        assert compare_candidate("delta_l", -5.0, -2.0)
        assert not compare_candidate("delta_l", 2.0, 5.0)
        assert not compare_candidate("delta_l", 3.0, 3.0)
        assert compare_candidate("xbar_dm", -4.0, -1.0)
        assert compare_candidate("cohen_d", 2.0, -1.0)

    def test_smaller_wins_rules(self):
        for name in ("s_dm", "rs_dm", "p_n", "p_sg", "rnd"):
            assert compare_candidate(name, 0.1, 0.2)
            assert not compare_candidate(name, 0.2, 0.1)
            assert not compare_candidate(name, 0.2, 0.2)

    def test_larger_wins_rules(self):
        for name in ("bf", "p_e"):
            assert compare_candidate(name, 0.9, 0.2)
            assert not compare_candidate(name, 0.2, 0.9)
            assert not compare_candidate(name, 0.4, 0.4)

    def test_unknown_candidate(self):
        with pytest.raises(OutOfRange):
            compare_candidate("mystery", 1.0, 2.0)

    def test_decide_stronger_within_regime(self):
        strong = self._stats(delta_l=5.0)
        weak = self._stats(delta_l=2.0)
        assert decide_stronger(strong, weak, "delta_l")
        assert not decide_stronger(weak, strong, "delta_l")

    def test_decide_stronger_negative_regime(self):
        strong = self._stats(xbar_dm=-5.0, delta_l=-5.0)
        weak = self._stats(xbar_dm=-2.0, delta_l=-2.0)
        assert decide_stronger(strong, weak, "delta_l")

    def test_mixed_signs_raise(self):
        up = self._stats(xbar_dm=5.0, delta_l=3.0)
        down = self._stats(xbar_dm=-5.0, delta_l=-2.0)
        with pytest.raises(MixedSignRegime):
            decide_stronger(up, down, "delta_l")
        assert decide_stronger(up, down, "delta_l", strict=False)

    def test_unavailable_value_raises(self):
        full = self._stats()
        nothing = self._stats(r_delta_l=None)
        with pytest.raises(OutOfRange):
            decide_stronger(full, nothing, "r_delta_l")

    def test_rnd_coin_is_roughly_fair(self):
        wins = 0
        trials = 10000
        r = np.random.default_rng(42)
        for _ in range(trials):
            a, b = r.random(2)
            wins += compare_candidate("rnd", a, b)
        assert wins / trials == pytest.approx(0.5, abs=0.02)


# --- threshold invariance over arbitrary regions ----------------------------

INVARIANCE_STUDIES = (
    StudyRecord(GroupSummary(100.0, 12.0, 8), GroupSummary(70.0, 9.0, 6),
                0.05),
    # an interval that covers zero: no posterior significance
    StudyRecord(GroupSummary(100.0, 12.0, 8), GroupSummary(98.0, 9.0, 6),
                0.05),
)
HEADLINE = ("delta_l", "r_delta_l", "delta_m", "r_delta_m")
EDGE = st.floats(min_value=1e-9, max_value=1e6)


@functools.cache
def _region_free(index, scale):
    """A study's draws and effect strength, which read no null region, and
    its analysis against one reference region on the scale."""
    study = INVARIANCE_STUDIES[index]
    draws = sample_posterior(study, k=4000, seed=9)
    [analysis] = ld.analyze_studies(
        [StudyTableRow("s", study)], scale, NullRegion(-0.2, 0.2, scale),
        k_draws=4000, seed=9,
    )
    return study, draws, effect_strength(study, draws), analysis


@settings(max_examples=150, deadline=None)
@given(index=st.sampled_from(range(len(INVARIANCE_STUDIES))),
       neg=EDGE, pos=EDGE, scale=st.sampled_from(Scale))
def test_threshold_invariance_over_any_region(index, neg, pos, scale):
    # thresholds are chosen after the fact, without recalculation: no
    # region moves the least or most difference or the credible bounds,
    # and each region's reading is designate of the region-free value
    study, draws, strength, reference = _region_free(index, scale)
    region = NullRegion(-neg, pos, scale)
    suite = candidate_suite(study, region, draws)
    [analysis] = ld.analyze_studies(
        [StudyTableRow("s", study)], scale, region, k_draws=4000, seed=9
    )
    for name in HEADLINE:
        # repr compares floats bit for bit, 0.0 against -0.0 included
        assert repr(suite.value(name)) == repr(getattr(strength, name))
        assert repr(analysis.stats.value(name)) == repr(
            reference.stats.value(name))
    assert analysis.bounds == reference.bounds
    least = "delta_l" if scale is Scale.RAW else "r_delta_l"
    assert ld.designate(suite.value(least), region) is ld.designate(
        getattr(strength, least), region)
    assert analysis.designation is ld.designate(
        reference.stats.value(least), region)
