"""Monte Carlo posterior draws and empirical interval machinery."""

import math

import numpy as np
import pytest

import leastdiff as ld
from leastdiff import (
    DegenerateScaleWarning,
    EmptyDraws,
    GroupSummary,
    InsufficientDraws,
    NonpositiveControl,
    NonpositiveControlWarning,
    OutOfRange,
    Scale,
    StudyRecord,
    credible_bounds,
    require_relative,
    sample_posterior,
)

import oracles


def draws_for(toy, k=10000, seed=1):
    return sample_posterior(toy, k=k, seed=seed)


class TestSamplePosterior:
    def test_bit_identical_reruns(self, toy_study):
        a = draws_for(toy_study)
        b = draws_for(toy_study)
        assert np.array_equal(a.mu_x, b.mu_x)
        assert np.array_equal(a.mu_y, b.mu_y)
        assert np.array_equal(a.diff, b.diff)

    def test_diff_is_elementwise(self, toy_study):
        d = draws_for(toy_study)
        assert np.array_equal(d.diff, d.mu_y - d.mu_x)

    def test_relative_times_control_recovers_diff(self, toy_study):
        d = draws_for(toy_study)
        assert d.rel_diff is not None
        assert np.allclose(d.rel_diff * d.mu_x, d.diff, rtol=1e-12, atol=0.0)

    def test_control_stream_independent_of_experiment(self, toy_study):
        changed = ld.StudyRecord(
            toy_study.control, GroupSummary(55.0, 20.0, 12), toy_study.alpha_dm
        )
        a = draws_for(toy_study)
        b = draws_for(changed)
        assert np.array_equal(a.mu_x, b.mu_x)
        assert not np.array_equal(a.mu_y, b.mu_y)

    def test_experiment_shift_moves_diff_exactly(self, toy_study):
        shifted = ld.StudyRecord(
            toy_study.control,
            GroupSummary(toy_study.experiment.mean + 10.0,
                         toy_study.experiment.sd,
                         toy_study.experiment.size),
            toy_study.alpha_dm,
        )
        a = draws_for(toy_study)
        b = draws_for(shifted)
        assert np.allclose(b.diff, a.diff + 10.0, rtol=0.0, atol=1e-9)

    def test_mean_marginal_centres_on_sample_mean(self, toy_study):
        # t marginal: location is the group mean, scale sd/sqrt(size)
        d = draws_for(toy_study, k=200000, seed=5)
        scale = toy_study.control.sd / math.sqrt(toy_study.control.size)
        assert d.mu_x.mean() == pytest.approx(100.0, abs=6 * scale / math.sqrt(200000))

    def test_too_few_draws_rejected(self, toy_study):
        with pytest.raises(OutOfRange):
            sample_posterior(toy_study, k=999, seed=0)
        assert sample_posterior(toy_study, k=ld.MIN_DRAWS, seed=0).k == 1000


class TestDegenerateScale:
    def test_zero_sd_collapses_to_point_mass(self):
        study = StudyRecord(
            GroupSummary(4.0, 0.0, 5), GroupSummary(6.0, 1.0, 5), 0.05
        )
        with pytest.warns(DegenerateScaleWarning) as record:
            d = sample_posterior(study, k=2000, seed=0)
        # only the control group is degenerate
        assert len(record) == 1
        assert np.all(d.mu_x == 4.0)
        assert np.unique(d.mu_y).size == d.k


class TestNonpositiveControl:
    def test_clearly_positive_control_has_no_flag(self, toy_study):
        d = draws_for(toy_study)
        assert d.nonpositive_fraction == 0.0

    def test_trace_fraction_kept_with_warning(self):
        # at this (mean, scale, df) about 3e-4 of the control draws go
        # nonpositive: below the refusal threshold, so rel_diff survives
        study = StudyRecord(
            GroupSummary(12.9, 2.0, 4), GroupSummary(20.0, 2.0, 4), 0.05
        )
        with pytest.warns(NonpositiveControlWarning):
            d = sample_posterior(study, k=10000, seed=0)
        assert d.rel_diff is not None
        assert 0.0 < d.nonpositive_fraction <= ld.NONPOSITIVE_TOLERANCE
        assert d.nonpositive_fraction == pytest.approx(0.0003)

    def test_large_fraction_withholds_relative(self):
        study = StudyRecord(
            GroupSummary(0.5, 2.0, 4), GroupSummary(2.0, 1.0, 4), 0.05
        )
        with pytest.warns(NonpositiveControlWarning):
            d = sample_posterior(study, k=2000, seed=0)
        assert d.rel_diff is None
        assert d.nonpositive_fraction > ld.NONPOSITIVE_TOLERANCE
        with pytest.raises(NonpositiveControl):
            require_relative(d)

    def test_require_relative_passthrough(self, toy_study):
        d = draws_for(toy_study)
        assert require_relative(d) is d.rel_diff


class TestEcdf:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDraws):
            oracles.ecdf([], 0.0)

    def test_step_values(self):
        draws = [1.0, 2.0, 3.0, 4.0]
        assert oracles.ecdf(draws, 0.5) == 0.0
        assert oracles.ecdf(draws, 2.0) == 0.5
        assert oracles.ecdf(draws, 9.0) == 1.0

    def test_nondecreasing(self, rng):
        draws = rng.normal(size=500)
        grid = np.linspace(-4, 4, 101)
        values = [oracles.ecdf(draws, z) for z in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_standard_normal_midpoint(self, rng):
        draws = rng.standard_normal(10000)
        assert oracles.ecdf(draws, 0.0) == pytest.approx(0.5, abs=0.02)


class TestCredibleBounds:
    def test_constant_draws_collapse(self):
        b = credible_bounds([7.0] * 100, 0.05)
        assert (b.lo, b.hi) == (7.0, 7.0)

    def test_shift_equivariance(self, rng):
        draws = rng.normal(size=4000)
        base = credible_bounds(draws, 0.05)
        moved = credible_bounds(draws + 10.0, 0.05)
        assert moved.lo == pytest.approx(base.lo + 10.0, abs=1e-12)
        assert moved.hi == pytest.approx(base.hi + 10.0, abs=1e-12)

    def test_affine_equivariance(self, rng):
        draws = rng.normal(size=3000)
        a, c = 2.5, -4.0
        base = credible_bounds(draws, 0.1)
        mapped = credible_bounds(a * draws + c, 0.1)
        assert mapped.lo == pytest.approx(a * base.lo + c, rel=1e-12, abs=1e-12)
        assert mapped.hi == pytest.approx(a * base.hi + c, rel=1e-12, abs=1e-12)

    def test_interpolated_ladder_value(self):
        # 1..10000 at 5% per tail lands 95% of the way from 500 to 501;
        # the printed short form of the lower bound is 500.95
        b = credible_bounds(np.arange(1.0, 10001.0), 0.05)
        assert b.lo == pytest.approx(500.95, rel=1e-12)
        assert b.hi == pytest.approx(9500.05, rel=1e-12)
        assert b.lo == oracles.quantile_linear(np.arange(1.0, 10001.0), 0.05)

    def test_matches_quantile_oracle_and_numpy(self, rng):
        for trial in range(25):
            draws = rng.normal(size=int(rng.integers(41, 400)))
            tail = float(rng.uniform(0.01, 0.45))
            b = credible_bounds(draws, tail)
            assert b.lo == pytest.approx(
                oracles.quantile_linear(draws, tail), rel=1e-13, abs=1e-13)
            assert b.hi == pytest.approx(
                oracles.quantile_linear(draws, 1.0 - tail), rel=1e-13, abs=1e-13)
            assert b.lo == pytest.approx(
                float(np.quantile(draws, tail)), rel=1e-13, abs=1e-13)

    def test_resolution_floor(self):
        with pytest.raises(InsufficientDraws):
            credible_bounds(np.arange(39.0), 0.05)
        credible_bounds(np.arange(40.0), 0.05)

    def test_scale_is_carried(self, rng):
        b = credible_bounds(rng.normal(size=100), 0.05, Scale.RELATIVE)
        assert b.scale is Scale.RELATIVE

    def test_lower_bound_hits_tail_mass(self, toy_study):
        d = draws_for(toy_study)
        b = credible_bounds(d.diff, toy_study.alpha_dm)
        tail = oracles.ecdf(d.diff, b.lo)
        assert abs(tail - toy_study.alpha_dm) <= 1.0 / d.k


class TestStability:
    def test_doubling_draws_barely_moves_least_difference(self, toy_study):
        # scaled-down version of the convergence contract: the toy study
        # has a clear effect, so the near-zero bound is well resolved
        for seed in (1, 2, 3):
            small = ld.effect_strength(
                toy_study, sample_posterior(toy_study, k=10000, seed=seed))
            big = ld.effect_strength(
                toy_study, sample_posterior(toy_study, k=100000, seed=seed))
            rel = abs(big.delta_l - small.delta_l) / max(abs(big.delta_l), 1e-9)
            assert rel < 0.02
