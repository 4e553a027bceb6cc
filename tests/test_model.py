"""Value types: validation, derived quantities, parsing."""

import math

import numpy as np
import pytest

import leastdiff as ld
from leastdiff import stats
from leastdiff import (
    CANDIDATES,
    CandidateStatistics,
    CredibleBounds,
    GroupSummary,
    Measure,
    NullRegion,
    OutOfRange,
    ParseError,
    PopulationConfig,
    RawSamples,
    Scale,
    SequenceTooShort,
    StudyRecord,
    Winner,
    parse_alpha,
    summarize,
)


class TestGroupSummary:
    def test_fields_coerced_to_builtin_types(self):
        g = GroupSummary(np.float64(3.5), np.float64(1.25), np.int64(7))
        assert type(g.mean) is float and type(g.sd) is float
        assert type(g.size) is int
        assert g.variance == 1.25 ** 2

    def test_negative_sd_rejected(self):
        with pytest.raises(OutOfRange):
            GroupSummary(1.0, -0.1, 5)

    def test_size_below_two_rejected(self):
        with pytest.raises(OutOfRange):
            GroupSummary(1.0, 1.0, 1)

    def test_zero_sd_allowed(self):
        assert GroupSummary(1.0, 0.0, 5).variance == 0.0


class TestSummarize:
    def test_two_point_sample(self):
        g, _ = summarize(RawSamples([0.0, 2.0], [1.0, 2.0]))
        assert g.mean == 1.0
        assert g.sd == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert g.size == 2

    def test_three_point_sample(self):
        _, g = summarize(RawSamples([0.0, 2.0], [1.0, 2.0, 3.0]))
        assert (g.mean, g.sd, g.size) == (2.0, 1.0, 3)

    def test_pair_input_summarizes_both_groups(self):
        pair = RawSamples([0.0, 2.0], [1.0, 2.0, 3.0])
        gx, gy = summarize(pair)
        assert gx.mean == 1.0 and gy.mean == 2.0

    def test_short_sequence_rejected(self):
        with pytest.raises(SequenceTooShort):
            summarize(RawSamples([4.0], [1.0, 2.0]))


class TestRawSamples:
    def test_lists_coerced_to_float_vectors(self):
        pair = RawSamples([1, 2, 3], [4, 5])
        assert pair.x.dtype == float and pair.y.dtype == float

    def test_short_group_rejected(self):
        with pytest.raises(SequenceTooShort):
            RawSamples([1.0], [2.0, 3.0])

    def test_matrix_rejected(self):
        with pytest.raises(OutOfRange):
            RawSamples([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])

    def test_nan_rejected(self):
        with pytest.raises(OutOfRange):
            RawSamples([1.0, float("nan")], [2.0, 3.0])


class TestParseAlpha:
    def test_plain_decimal(self):
        assert parse_alpha("0.05") == 0.05

    def test_bare_fraction_point(self):
        assert parse_alpha(".01") == 0.01

    def test_divided_form(self):
        assert parse_alpha("0.05/6") == pytest.approx(0.05 / 6, rel=1e-15)

    def test_integer_ratio(self):
        assert parse_alpha("1/20") == 0.05

    def test_whitespace_tolerated(self):
        assert parse_alpha(" 0.05 / 6 ") == pytest.approx(0.05 / 6, rel=1e-15)

    def test_out_of_range_value(self):
        with pytest.raises(OutOfRange) as caught:
            parse_alpha("0.6")
        assert str(caught.value) == (
            "alpha must lie in (0, 0.5), got 0.6 from '0.6'")
        with pytest.raises(OutOfRange):
            parse_alpha("0")

    def test_garbage_rejected(self):
        for text in ("abc", "-0.05", "0.05/0", "0.05/2.5", "0.05//2", ""):
            with pytest.raises(ParseError):
                parse_alpha(text)


class TestStudyRecord:
    def test_mean_difference(self, toy_study):
        assert toy_study.mean_difference == -30.0

    def test_alpha_bounds(self):
        ctl = GroupSummary(1.0, 1.0, 5)
        exp = GroupSummary(2.0, 1.0, 5)
        for alpha in (0.0, 0.5, 0.7):
            with pytest.raises(OutOfRange):
                StudyRecord(ctl, exp, alpha)

    def test_defaults(self, toy_study):
        assert toy_study.label_control == "control"
        assert toy_study.label_experiment == "experiment"
        assert toy_study.source_id == ""


class TestIntervalTypes:
    def test_bounds_ordering_enforced(self):
        with pytest.raises(OutOfRange):
            CredibleBounds(2.0, 1.0, 0.05, Scale.RAW)

    def test_bounds_tail_range(self):
        with pytest.raises(OutOfRange):
            CredibleBounds(0.0, 1.0, 0.5, Scale.RAW)

    def test_bounds_width(self):
        assert CredibleBounds(-1.0, 3.0, 0.1, Scale.RAW).width == 4.0

    def test_region_must_straddle_zero(self):
        with pytest.raises(OutOfRange):
            NullRegion(0.1, 0.2, Scale.RAW)
        with pytest.raises(OutOfRange):
            NullRegion(-0.2, 0.0, Scale.RAW)

    def test_region_width(self):
        assert NullRegion(-0.2, 0.3, Scale.RELATIVE).width == 0.5


class TestPopulationConfig:
    def test_derived_measures(self):
        cfg = PopulationConfig(50.0, 65.0, 3.0, 4.0, 10, 14, 0.05)
        assert cfg.mu_dm == 15.0
        assert cfg.sigma_d == 5.0
        assert cfg.df_d == 22
        assert cfg.r_mu_dm == pytest.approx(0.3)
        assert cfg.r_sigma_d == pytest.approx(0.1)
        assert cfg.sigma_dm == pytest.approx(math.sqrt(9 / 10 + 16 / 14))

    def test_measure_value_dispatch(self):
        cfg = PopulationConfig(50.0, 65.0, 3.0, 4.0, 10, 14, 0.05)
        assert cfg.measure_value(Measure.MU_DM) == cfg.mu_dm
        assert cfg.measure_value(Measure.SIGMA_D) == cfg.sigma_d
        assert cfg.measure_value(Measure.DF_D) == cfg.df_d
        assert cfg.measure_value(Measure.ALPHA_DM) == cfg.alpha_dm
        assert cfg.measure_value(Measure.R_MU_DM) == cfg.r_mu_dm
        assert cfg.measure_value(Measure.R_SIGMA_D) == cfg.r_sigma_d

    def test_measure_value_by_name(self):
        cfg = PopulationConfig(50.0, 65.0, 3.0, 4.0, 10, 14, 0.05)
        assert cfg.measure_value("r_mu_dm") == cfg.r_mu_dm
        assert cfg.measure_value("df_d") == 22.0
        for unknown in ("sigma_dm", "mu_x", None):
            with pytest.raises(OutOfRange, match="unknown measure"):
                cfg.measure_value(unknown)

    def test_group_sizes_validated(self):
        with pytest.raises(OutOfRange):
            PopulationConfig(50.0, 65.0, 3.0, 4.0, 1, 14, 0.05)

    def test_zero_sigma_allowed(self):
        cfg = PopulationConfig(50.0, 65.0, 0.0, 0.0, 5, 5, 0.05)
        assert cfg.sigma_d == 0.0


class TestCandidateStatistics:
    def _kwargs(self, **overrides):
        base = dict(
            xbar_dm=-30.0, r_xbar_dm=-0.3, s_dm=5.0, rs_dm=0.05, bf=2.0,
            p_n=0.01, p_e=0.2, p_sg=0.0, cohen_d=-1.5, delta_m=-40.0,
            r_delta_m=-0.4, delta_l=-20.0, r_delta_l=-0.2, rnd=0.5,
        )
        base.update(overrides)
        return base

    def test_candidate_order_is_pinned(self):
        assert CANDIDATES == (
            "xbar_dm", "r_xbar_dm", "s_dm", "rs_dm", "bf", "p_n", "p_e",
            "p_sg", "cohen_d", "delta_m", "r_delta_m", "delta_l",
            "r_delta_l", "rnd",
        )

    def test_value_lookup_covers_every_candidate(self):
        stats = CandidateStatistics(**self._kwargs())
        for name in CANDIDATES:
            assert stats.value(name) == getattr(stats, name)
        with pytest.raises(OutOfRange):
            stats.value("nonsense")

    def test_probability_fields_validated(self):
        with pytest.raises(OutOfRange):
            CandidateStatistics(**self._kwargs(p_n=1.5))
        with pytest.raises(OutOfRange):
            CandidateStatistics(**self._kwargs(rnd=1.0))
        with pytest.raises(OutOfRange):
            CandidateStatistics(**self._kwargs(bf=-0.1))

    def test_relative_entries_may_be_none(self):
        stats = CandidateStatistics(**self._kwargs(
            r_xbar_dm=None, rs_dm=None, bf=None, p_sg=None,
            r_delta_m=None, r_delta_l=None,
        ))
        assert stats.value("r_delta_l") is None


class TestEnums:
    def test_string_mixins(self):
        assert Measure.MU_DM == "mu_dm"
        assert Scale.RELATIVE == "relative"
        assert Winner.EXP1 == "exp1"

    def test_measure_relative_flag(self):
        assert Measure.R_MU_DM.is_relative
        assert Measure.R_SIGMA_D.is_relative
        assert not Measure.MU_DM.is_relative
        assert not Measure.DF_D.is_relative

    def test_measure_families(self):
        assert Measure.DF_D in ld.RAW_MEASURES
        assert Measure.DF_D in ld.RELATIVE_MEASURES
        assert Measure.MU_DM not in ld.RELATIVE_MEASURES

    def test_sign_regime_signs(self):
        assert ld.SignRegime.POSITIVE.sign == 1
        assert ld.SignRegime.NEGATIVE.sign == -1


class TestOneOwnerPerList:
    """Each list the package relies on is written once and read elsewhere."""

    def test_registry_follows_the_candidate_fields(self):
        assert tuple(stats._REGISTRY) == CANDIDATES

    def test_each_scale_owns_its_measures(self):
        assert Scale.RAW.measures == ld.RAW_MEASURES
        assert Scale.RELATIVE.measures == ld.RELATIVE_MEASURES
        Scale.RELATIVE.require_measure(Measure.DF_D)

    def test_off_scale_measure_has_one_message(self):
        message = "^measure mu_dm is not scored on the relative scale$"
        with pytest.raises(OutOfRange, match=message):
            Scale.RELATIVE.require_measure(Measure.MU_DM)
        with pytest.raises(OutOfRange, match=message):
            ld.generate_series(Measure.MU_DM, 5, scale=Scale.RELATIVE)
