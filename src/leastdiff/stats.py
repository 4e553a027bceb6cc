"""Effect-strength statistics and the rival candidate decision statistics.

The two headline quantities are the least plausible difference in means
(``least_difference``) and its most-plausible counterpart
(``most_difference``), both read off the posterior of the difference in
means. The least difference is the edge of the equal-tailed credible
interval nearest zero, signed like the observed difference, and exactly
zero when the interval covers zero. The most difference is the smallest
magnitude c whose symmetric interval (-c, c] holds at least 1 - alpha of
the posterior mass.

Around them, ``candidate_suite`` computes the rival statistics a
decision maker might use to call one experiment "stronger" than
another: raw and relative mean differences, their standard errors, a
posterior odds ratio against a practical-equivalence region, Welch and
equivalence-test p-values, a second-generation p-value, a standardised
effect size, and a uniform-noise control. A registry maps each
candidate's name to what it reads (the group summaries, the sorted raw
or relative draws, or only the posterior seed), to how its values are
read when two experiments are compared, and to its one function, so a
caller asking for a few candidates computes only those and their
inputs.
"""
from __future__ import annotations

import math
import operator
import warnings
from functools import cached_property

import numpy as np
from scipy import special

from .model import (
    CANDIDATES,
    CandidateStatistics,
    CredibleBounds,
    EffectStrengthResult,
    EmptyDraws,
    GroupSummary,
    MixedSignRegime,
    NullRegion,
    OutOfRange,
    PosteriorDraws,
    Scale,
    StudyRecord,
    ZeroPooledVariance,
    ZeroVarianceWarning,
    _require_tail_mass,
)
from .posterior import credible_bounds_sorted, require_relative
from .rng import substream

__all__ = [
    "mean_difference",
    "relative_mean_difference",
    "standard_error_dm",
    "least_difference",
    "most_difference",
    "welch_p",
    "tost_p",
    "equivalence_margins",
    "sgpv",
    "bayes_factor",
    "cohens_d",
    "effect_strength",
    "candidate_needs",
    "candidate_suite",
    "compare_candidate",
    "decide_stronger",
]


# ---------------------------------------------------------------------------
# summary-level statistics


def mean_difference(control: GroupSummary, experiment: GroupSummary) -> float:
    return experiment.mean - control.mean


def relative_mean_difference(
    control: GroupSummary, experiment: GroupSummary
) -> float:
    if control.mean == 0.0:
        raise OutOfRange("relative difference undefined: control mean is zero")
    return (experiment.mean - control.mean) / control.mean


def standard_error_dm(control: GroupSummary, experiment: GroupSummary) -> float:
    """Standard error of the difference in means (unpooled)."""
    return math.sqrt(
        control.variance / control.size + experiment.variance / experiment.size
    )


def _welch_parts(control: GroupSummary, experiment: GroupSummary):
    """Squared standard error and Welch-Satterthwaite df; (0, 0) if both
    group variances vanish."""
    vx = control.variance / control.size
    vy = experiment.variance / experiment.size
    se2 = vx + vy
    if se2 == 0.0:
        return 0.0, 0.0
    df = se2 ** 2 / (
        vx ** 2 / (control.size - 1) + vy ** 2 / (experiment.size - 1)
    )
    return se2, df


def welch_p(control: GroupSummary, experiment: GroupSummary) -> float:
    """Two-sided unequal-variance t-test p-value from summaries.

    Degenerate data (both sds zero) cannot be tested; by convention the
    p-value is 1 for identical means and 0 otherwise, with a warning.
    """
    se2, df = _welch_parts(control, experiment)
    diff = mean_difference(control, experiment)
    if se2 == 0.0:
        if diff == 0.0:
            return 1.0
        warnings.warn(
            "both groups have zero variance; p-value set to 0 by convention",
            ZeroVarianceWarning,
            stacklevel=2,
        )
        return 0.0
    t = diff / math.sqrt(se2)
    return float(2.0 * special.stdtr(df, -abs(t)))


def tost_p(
    control: GroupSummary, experiment: GroupSummary, margins: NullRegion
) -> float:
    """Equivalence-test p-value: two one-sided tests against the region.

    Small values support equivalence (the true difference lies inside the
    margins); the reported p is the larger of the two one-sided p-values.
    Margins must be on the raw scale of the data.
    """
    se2, df = _welch_parts(control, experiment)
    diff = mean_difference(control, experiment)
    lo, hi = margins.neg_threshold, margins.pos_threshold
    if se2 == 0.0:
        warnings.warn(
            "both groups have zero variance; equivalence p set by convention",
            ZeroVarianceWarning,
            stacklevel=2,
        )
        p_lower = 0.0 if diff > lo else (0.5 if diff == lo else 1.0)
        p_upper = 0.0 if diff < hi else (0.5 if diff == hi else 1.0)
        return max(p_lower, p_upper)
    se = math.sqrt(se2)
    # H0: diff <= lo, rejected for large t  /  H0: diff >= hi, for small t
    p_lower = float(special.stdtr(df, -(diff - lo) / se))
    p_upper = float(special.stdtr(df, (diff - hi) / se))
    return max(p_lower, p_upper)


def sgpv(interval: CredibleBounds, region: NullRegion) -> float:
    """Second-generation p-value: overlap of the interval with the region.

    Returns the fraction of the interval inside the region, corrected by
    max(interval width / twice the region width, 1) and clamped to [0, 1].
    A zero-width interval degenerates to the indicator of membership.
    """
    if interval.scale is not region.scale:
        raise ValueError(
            f"interval is on the {interval.scale.value} scale but the region "
            f"is on the {region.scale.value} scale"
        )
    width = interval.hi - interval.lo
    if width == 0.0:
        inside = region.neg_threshold <= interval.lo <= region.pos_threshold
        return 1.0 if inside else 0.0
    overlap = max(
        0.0,
        min(interval.hi, region.pos_threshold)
        - max(interval.lo, region.neg_threshold),
    )
    correction = max(width / (2.0 * region.width), 1.0)
    return min(1.0, (overlap / width) * correction)


def bayes_factor(draws: PosteriorDraws, region: NullRegion) -> float:
    """Smoothed posterior odds that the effect lies outside the region.

    Counts draws outside versus inside the (closed) region and returns
    (outside + 1) / (inside + 1); the add-one smoothing keeps the ratio
    finite when either count is zero. The count reads the sorted draws.
    """
    if region.scale is Scale.RAW:
        values = draws.sorted_diff
    else:
        require_relative(draws)
        values = draws.sorted_rel_diff
    lo_i = np.searchsorted(values, region.neg_threshold, "left")
    hi_i = np.searchsorted(values, region.pos_threshold, "right")
    inside = int(hi_i) - int(lo_i)
    return (values.size - inside + 1) / (inside + 1)


def equivalence_margins(
    region: NullRegion, control: GroupSummary
) -> NullRegion:
    """Map a null region onto the raw scale of the data.

    A raw region passes through unchanged. A relative region states its
    thresholds as fractions of the control mean, so they scale by its
    magnitude before feeding a summary-level test.
    """
    if region.scale is Scale.RAW:
        return region
    if control.mean == 0.0:
        raise OutOfRange("relative null region unusable: control mean is zero")
    return NullRegion(
        neg_threshold=region.neg_threshold * abs(control.mean),
        pos_threshold=region.pos_threshold * abs(control.mean),
        scale=Scale.RAW,
    )


def cohens_d(control: GroupSummary, experiment: GroupSummary) -> float:
    """Standardised mean difference with the pooled standard deviation."""
    m, n = control.size, experiment.size
    pooled_var = (
        (m - 1) * control.variance + (n - 1) * experiment.variance
    ) / (m + n - 2)
    if pooled_var == 0.0:
        raise ZeroPooledVariance(
            "standardised effect size undefined: both groups are constant"
        )
    return mean_difference(control, experiment) / math.sqrt(pooled_var)


# ---------------------------------------------------------------------------
# least / most plausible differences


def _signed(magnitude: float, sign_ref: float) -> float:
    """The magnitude carrying the sign of ``sign_ref``; zero for a zero
    reference."""
    if sign_ref > 0.0:
        return magnitude
    if sign_ref < 0.0:
        return -magnitude
    return 0.0


def least_difference(bounds: CredibleBounds, sign_ref: float) -> float:
    """Least plausible difference: the credible bound nearest zero.

    Zero whenever the interval covers zero (inclusive); otherwise the
    smaller bound magnitude, carrying the sign of ``sign_ref`` (the
    observed mean difference). A zero ``sign_ref`` also yields zero.
    """
    if bounds.lo <= 0.0 <= bounds.hi:
        return 0.0
    return _signed(min(abs(bounds.lo), abs(bounds.hi)), sign_ref)


def _most_difference_sorted(sorted_arr: np.ndarray, alpha: float) -> float:
    """Smallest magnitude c >= 0 with at least 1 - alpha of the draws in
    (-c, c], selected directly from the sorted draws.

    A draw x lies in (-c, c] exactly when its key is at most c: the key
    is x for x > 0 and nextafter(-x, inf) otherwise, which encodes the
    open lower edge. So the answer is the m-th smallest key, m being the
    smallest count with m / K >= 1 - alpha. The keys of the nonpositive
    draws, read backwards, and of the positive draws form two ascending
    runs, and a binary search over how many keys come from the first run
    selects the m-th in O(log K).
    """
    size = sorted_arr.size
    target = 1.0 - alpha
    m = max(1, math.ceil(target * size))
    while m > 1 and (m - 1) / size >= target:
        m -= 1
    while m / size < target:
        m += 1
    n_nonpos = int(np.searchsorted(sorted_arr, 0.0, side="right"))

    def nonpos_key(j):  # j-th smallest key of the nonpositive draws
        return math.nextafter(-float(sorted_arr[n_nonpos - 1 - j]), math.inf)

    # smallest i such that taking i keys from the nonpositive run and
    # m - i from the positive run leaves no smaller key behind
    lo, hi = max(0, m - (size - n_nonpos)), min(m, n_nonpos)
    while lo < hi:
        i = (lo + hi) // 2
        if nonpos_key(i) < sorted_arr[n_nonpos + m - i - 1]:
            lo = i + 1
        else:
            hi = i
    last = []
    if lo > 0:
        last.append(nonpos_key(lo - 1))
    if m > lo:
        last.append(float(sorted_arr[n_nonpos + m - lo - 1]))
    return max(last)


def most_difference(draws, alpha_dm: float, sign_ref: float) -> float:
    """Most plausible difference at tail mass alpha_dm.

    The smallest magnitude c whose symmetric interval (-c, c] contains at
    least 1 - alpha_dm of the posterior draws, signed like ``sign_ref``.
    For draws that are all positive this reduces to their (1 - alpha_dm)
    quantile's order statistic; for a point mass it is that point.
    """
    arr = np.asarray(draws, dtype=float)
    if arr.size == 0:
        raise EmptyDraws("most_difference needs at least one draw")
    _require_tail_mass("alpha_dm", alpha_dm)
    return _signed(_most_difference_sorted(np.sort(arr), alpha_dm), sign_ref)


# what a candidate reads besides the null region
SUMMARY = "summary"      # the two group summaries
RAW = "raw"              # the sorted raw-difference draws
RELATIVE = "relative"    # the sorted relative-difference draws
SEED = "seed"            # only the posterior's seed
_REGION = "region"       # the sorted draws on the null region's scale


class _SuiteInputs:
    """Everything a candidate statistic reads, each computed on first use."""

    def __init__(self, study, region, draws):
        self.study = study
        self.region = region
        self.draws = draws
        self.seed = draws.seed if isinstance(draws, PosteriorDraws) else draws

    @property
    def control(self) -> GroupSummary:
        return self.study.control

    @property
    def experiment(self) -> GroupSummary:
        return self.study.experiment

    @cached_property
    def xbar_dm(self) -> float:
        return mean_difference(self.control, self.experiment)

    @cached_property
    def s_dm(self) -> float:
        return standard_error_dm(self.control, self.experiment)

    @cached_property
    def r_xbar_dm(self) -> float | None:
        if self.control.mean == 0.0:
            return None
        return relative_mean_difference(self.control, self.experiment)

    @cached_property
    def sorted_rel(self) -> np.ndarray | None:
        if self.control.mean == 0.0:
            return None
        return self.draws.sorted_rel_diff

    @cached_property
    def bounds_raw(self) -> CredibleBounds:
        return credible_bounds_sorted(
            self.draws.sorted_diff, self.study.alpha_dm, Scale.RAW
        )

    @cached_property
    def bounds_rel(self) -> CredibleBounds | None:
        if self.sorted_rel is None:
            return None
        return credible_bounds_sorted(
            self.sorted_rel, self.study.alpha_dm, Scale.RELATIVE
        )

    @cached_property
    def region_sorted(self) -> np.ndarray | None:
        if self.region.scale is Scale.RAW:
            return self.draws.sorted_diff
        return self.sorted_rel

    @cached_property
    def region_bounds(self) -> CredibleBounds | None:
        if self.region.scale is Scale.RAW:
            return self.bounds_raw
        return self.bounds_rel


def _rs_dm(inp: _SuiteInputs) -> float | None:
    if inp.control.mean == 0.0:
        return None
    return abs(inp.s_dm / inp.control.mean)


def _bf(inp: _SuiteInputs) -> float | None:
    if inp.region_sorted is None:
        return None
    return bayes_factor(inp.draws, inp.region)


def _p_sg(inp: _SuiteInputs) -> float | None:
    if inp.region_bounds is None:
        return None
    return sgpv(inp.region_bounds, inp.region)


def _delta_l(inp: _SuiteInputs) -> float:
    return least_difference(inp.bounds_raw, inp.xbar_dm)


def _delta_m(inp: _SuiteInputs) -> float:
    magnitude = _most_difference_sorted(
        inp.draws.sorted_diff, inp.study.alpha_dm
    )
    return _signed(magnitude, inp.xbar_dm)


def _r_delta_m(inp: _SuiteInputs) -> float | None:
    if inp.sorted_rel is None:
        return None
    magnitude = _most_difference_sorted(inp.sorted_rel, inp.study.alpha_dm)
    return _signed(magnitude, inp.r_xbar_dm)


def _r_delta_l(inp: _SuiteInputs) -> float | None:
    if inp.bounds_rel is None:
        return None
    return least_difference(inp.bounds_rel, inp.r_xbar_dm)


# How a candidate is read: reading(value1, value2) is True when value1
# reads as stronger evidence than value2; ties are False.
def _larger_magnitude(value1: float, value2: float) -> bool:
    return abs(value1) > abs(value2)


_smaller_value = operator.lt
_larger_value = operator.gt

# The candidate registry: name -> (what it reads, how it is read, its one
# function). The region-dependent candidates read the draws on the null
# region's scale.
_REGISTRY = {
    "xbar_dm": (SUMMARY, _larger_magnitude, lambda inp: inp.xbar_dm),
    "r_xbar_dm": (SUMMARY, _larger_magnitude, lambda inp: inp.r_xbar_dm),
    "s_dm": (SUMMARY, _smaller_value, lambda inp: inp.s_dm),
    "rs_dm": (SUMMARY, _smaller_value, _rs_dm),
    "bf": (_REGION, _larger_value, _bf),
    "p_n": (SUMMARY, _smaller_value,
            lambda inp: welch_p(inp.control, inp.experiment)),
    "p_e": (SUMMARY, _larger_value, lambda inp: tost_p(
        inp.control, inp.experiment,
        equivalence_margins(inp.region, inp.control),
    )),
    "p_sg": (_REGION, _smaller_value, _p_sg),
    "cohen_d": (SUMMARY, _larger_magnitude,
                lambda inp: cohens_d(inp.control, inp.experiment)),
    "delta_m": (RAW, _larger_magnitude, _delta_m),
    "r_delta_m": (RELATIVE, _larger_magnitude, _r_delta_m),
    "delta_l": (RAW, _larger_magnitude, _delta_l),
    "r_delta_l": (RELATIVE, _larger_magnitude, _r_delta_l),
    "rnd": (SEED, _smaller_value,
            lambda inp: float(substream(inp.seed, "rnd").random())),
}


def candidate_needs(names, region_scale: Scale) -> frozenset:
    """What computing the named candidates reads: a subset of SUMMARY, RAW,
    RELATIVE and SEED. Reading draws implies reading the summaries.

    Raises OutOfRange for an unknown name and for a name given twice,
    which would otherwise be scored, and counted in a correction, twice.
    """
    needs = set()
    seen = set()
    for name in names:
        if name not in _REGISTRY:
            raise OutOfRange(f"unknown candidate statistic {name!r}")
        if name in seen:
            raise OutOfRange(
                f"candidate statistic {name!r} is requested twice"
            )
        seen.add(name)
        need = _REGISTRY[name][0]
        if need == _REGION:
            need = RAW if Scale(region_scale) is Scale.RAW else RELATIVE
        needs.add(need)
    if needs & {RAW, RELATIVE}:
        needs.add(SUMMARY)
    return frozenset(needs)


def candidate_suite(
    study: StudyRecord | None,
    null_region: NullRegion,
    draws: PosteriorDraws | int | None,
    names=CANDIDATES,
) -> CandidateStatistics:
    """Compute the named rival decision statistics for one dataset.

    Only the requested statistics, and only the inputs they read, are
    computed; every other field of the result is None. By default all of
    them are. ``draws`` is the study's posterior; when no requested
    statistic reads draws it may instead be the posterior's seed (all
    the uniform-noise candidate ``rnd`` reads), or None when none reads
    the seed either. Likewise ``study`` may be None when only ``rnd`` is
    requested. The null region fixes the scale on which the
    region-dependent statistics (posterior odds, equivalence test,
    second-generation p) are evaluated.

    The uniform-noise candidate is drawn from a substream of the
    posterior's seed, so the whole suite is a pure function of
    (study, null_region, draws).
    """
    needs = candidate_needs(names, null_region.scale)
    if study is None and SUMMARY in needs:
        raise OutOfRange("the requested candidates need the study summaries")
    if needs & {RAW, RELATIVE} and not isinstance(draws, PosteriorDraws):
        raise OutOfRange("the requested candidates need posterior draws")
    if SEED in needs and draws is None:
        raise OutOfRange("the requested candidates need the posterior seed")
    inputs = _SuiteInputs(study, null_region, draws)
    wanted = frozenset(names)
    # computed in CANDIDATES order, so which error a bad input raises
    # does not depend on the order of ``names``
    return CandidateStatistics(**{
        name: _REGISTRY[name][2](inputs) if name in wanted else None
        for name in CANDIDATES
    })


def effect_strength(
    study: StudyRecord, draws: PosteriorDraws
) -> EffectStrengthResult:
    """Least and most plausible differences on both scales for one study,
    at the study's own tail mass alpha_dm.

    Relative results are present only when the posterior carried usable
    relative draws. Like ``credible_bounds``, it raises InsufficientDraws
    with fewer than ceil(2 / alpha_dm) draws.
    """
    inputs = _SuiteInputs(study, None, draws)
    return EffectStrengthResult(
        delta_l=_delta_l(inputs),
        delta_m=_delta_m(inputs),
        bounds_raw=inputs.bounds_raw,
        sign_ref_raw=inputs.xbar_dm,
        r_delta_l=_r_delta_l(inputs),
        r_delta_m=_r_delta_m(inputs),
        bounds_rel=inputs.bounds_rel,
        sign_ref_rel=None if inputs.sorted_rel is None else inputs.r_xbar_dm,
    )


# ---------------------------------------------------------------------------
# pairwise decisions


def compare_candidate(candidate: str, value1: float, value2: float) -> bool:
    """True when value1 reads as stronger evidence than value2.

    Applies the candidate's own reading: magnitude for effect-size style
    statistics, smaller-is-stronger for noise and p-like statistics,
    larger-is-stronger for odds and equivalence tests. Ties are False.
    """
    if candidate not in _REGISTRY:
        raise OutOfRange(f"unknown candidate statistic {candidate!r}")
    return _REGISTRY[candidate][1](value1, value2)


def decide_stronger(
    stats1: CandidateStatistics,
    stats2: CandidateStatistics,
    candidate: str,
    strict: bool = True,
) -> bool:
    """Would this candidate statistic call experiment 1 stronger than 2?

    With ``strict`` (the default), comparing results whose observed mean
    differences disagree in sign raises MixedSignRegime, since magnitude
    readings are only meaningful within one sign regime. Pass
    ``strict=False`` to compare anyway.
    """
    value1 = stats1.value(candidate)
    if strict and (stats1.xbar_dm is None or stats2.xbar_dm is None):
        raise OutOfRange(
            "a strict comparison reads xbar_dm; compute it or pass "
            "strict=False"
        )
    if strict and stats1.xbar_dm * stats2.xbar_dm < 0.0:
        raise MixedSignRegime(
            "experiments disagree on the sign of the mean difference"
        )
    value2 = stats2.value(candidate)
    if value1 is None or value2 is None:
        raise OutOfRange(
            f"candidate {candidate!r} is unavailable for one of the results"
        )
    return compare_candidate(candidate, value1, value2)
