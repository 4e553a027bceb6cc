"""The candidate registry and the direct most-difference selection.

Each candidate computed on its own must equal, bit for bit, the same
field of the full suite, and the direct most-difference selection must
equal the binary search it replaced (kept in oracles.py). The one
sorted-draw count behind ``bayes_factor`` and the suite's ``bf`` must
equal a direct count of the unsorted draws.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leastdiff as ld
import oracles
from leastdiff import (
    CANDIDATES,
    GroupSummary,
    NonpositiveControl,
    NullRegion,
    OutOfRange,
    PosteriorDraws,
    Scale,
    StudyRecord,
    ZeroPooledVariance,
    bayes_factor,
    candidate_suite,
    sample_posterior,
)
from leastdiff import riskbench
from leastdiff.stats import (
    RAW,
    RELATIVE,
    SEED,
    SUMMARY,
    _most_difference_sorted,
    candidate_needs,
)

RAW_REGION = NullRegion(-10.0, 10.0, Scale.RAW)
REL_REGION = NullRegion(-0.2, 0.2, Scale.RELATIVE)
ALPHAS = (0.05, 0.05 / 3, 0.05 / 10, 0.1, 0.25, 0.49)


def same(a, b):
    """Bit-for-bit equality of two optional floats (0.0 differs from -0.0)."""
    return repr(a) == repr(b)


# --- direct most difference --------------------------------------------------

# few distinct values, so ties, point masses and mirrored pairs are common
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -1e-300])
_ANY = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                 allow_infinity=False)


def _draws(values, mirrored):
    arr = np.asarray(values, dtype=float)
    if mirrored:
        arr = np.concatenate([arr, -arr])
    return np.sort(arr)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=60),
    mirrored=st.booleans(),
    alpha=st.sampled_from(ALPHAS),
)
def test_direct_most_difference_equals_bisection(values, mirrored, alpha):
    draws = _draws(values, mirrored)
    got = _most_difference_sorted(draws, alpha)
    assert type(got) is float
    assert same(got, oracles.most_difference_bisect(draws, alpha))


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.one_of(_TIED, _ANY), min_size=1, max_size=40),
    alpha=st.sampled_from(ALPHAS),
)
def test_direct_most_difference_all_nonpositive(values, alpha):
    draws = np.sort(-np.abs(np.asarray(values, dtype=float)))
    assert same(_most_difference_sorted(draws, alpha),
                oracles.most_difference_bisect(draws, alpha))


@pytest.mark.parametrize("value", [0.0, -0.0, 3.0, -3.0, 5e-324])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_direct_most_difference_single_draw(value, alpha):
    draws = np.array([value])
    assert same(_most_difference_sorted(draws, alpha),
                oracles.most_difference_bisect(draws, alpha))


def test_direct_most_difference_on_posterior_draws(toy_study):
    for seed in range(20):
        draws = sample_posterior(toy_study, k=2000, seed=seed)
        for alpha in ALPHAS:
            for values in (draws.sorted_diff, draws.sorted_rel_diff):
                assert same(_most_difference_sorted(values, alpha),
                            oracles.most_difference_bisect(values, alpha))


# --- one bf count ------------------------------------------------------------

_BF_NEG = (-1.0, -2.5, -1e-300)
_BF_POS = (1.0, 2.5, 1e-300)
# draws tied exactly at every threshold, just beside them, and at 0.0/-0.0
_BF_TIED = st.sampled_from(
    [0.0, -0.0, *_BF_NEG, *_BF_POS]
    + [math.nextafter(t, 0.0) for t in _BF_NEG + _BF_POS]
    + [math.nextafter(t, t * 2) for t in _BF_NEG + _BF_POS]
)
_BF_STUDY = StudyRecord(GroupSummary(1.0, 1.0, 5), GroupSummary(2.0, 1.0, 5),
                        0.05)


def _bf_reference(values, region):
    inside = oracles.count_inside(values, region.neg_threshold,
                                  region.pos_threshold)
    return (len(values) - inside + 1) / (inside + 1)


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.one_of(_BF_TIED, _ANY),
                             st.one_of(_BF_TIED, _ANY)),
                   min_size=1, max_size=60),
    neg=st.sampled_from(_BF_NEG),
    pos=st.sampled_from(_BF_POS),
    scale=st.sampled_from([Scale.RAW, Scale.RELATIVE]),
)
def test_bf_count_equals_direct_count(pairs, neg, pos, scale):
    diff = np.array([p[0] for p in pairs])
    rel_diff = np.array([p[1] for p in pairs])
    draws = PosteriorDraws(mu_x=np.ones_like(diff), mu_y=1.0 + diff,
                           diff=diff, rel_diff=rel_diff, k=diff.size, seed=0)
    region = NullRegion(neg, pos, scale)
    want = _bf_reference(diff if scale is Scale.RAW else rel_diff, region)
    assert same(bayes_factor(draws, region), want)
    suite = candidate_suite(None, _BF_STUDY, region, draws, ("bf",))
    assert same(suite.bf, want)


def test_bf_on_withheld_relative_draws():
    diff = np.array([-1.0, 0.0, 1.0, 3.0])
    draws = PosteriorDraws(mu_x=np.ones_like(diff), mu_y=1.0 + diff,
                           diff=diff, rel_diff=None, k=diff.size, seed=0)
    with pytest.raises(NonpositiveControl):
        bayes_factor(draws, REL_REGION)
    suite = candidate_suite(None, _BF_STUDY, REL_REGION, draws, ("bf",))
    assert suite.bf is None
    assert same(bayes_factor(draws, NullRegion(-1.0, 1.0, Scale.RAW)),
                _bf_reference(diff, NullRegion(-1.0, 1.0, Scale.RAW)))


# --- registry against the full suite -----------------------------------------


def _assert_each_alone_matches(study, region, draws):
    full = candidate_suite(None, study, region, draws)
    assert full == candidate_suite(None, study, region, draws, CANDIDATES)
    for name in CANDIDATES:
        alone = candidate_suite(None, study, region, draws, (name,))
        assert same(alone.value(name), full.value(name)), name
        others = [n for n in CANDIDATES if n != name]
        assert all(alone.value(n) is None for n in others), name
    return full


@pytest.mark.parametrize("region", [RAW_REGION, REL_REGION],
                         ids=["raw-region", "relative-region"])
def test_each_candidate_alone_equals_full_suite(toy_study, region):
    for seed in range(5):
        draws = sample_posterior(toy_study, k=2000, seed=seed)
        full = _assert_each_alone_matches(toy_study, region, draws)
        assert all(full.value(n) is not None for n in CANDIDATES)


@pytest.mark.parametrize("region", [RAW_REGION, REL_REGION],
                         ids=["raw-region", "relative-region"])
def test_withheld_relative_draws(region):
    study = StudyRecord(GroupSummary(0.5, 2.0, 4), GroupSummary(2.0, 1.0, 4),
                        0.05)
    with pytest.warns(ld.NonpositiveControlWarning):
        draws = sample_posterior(study, k=2000, seed=0)
    assert draws.rel_diff is None
    full = _assert_each_alone_matches(study, region, draws)
    assert full.r_delta_l is None and full.r_delta_m is None


def test_control_mean_of_zero_with_relative_draws():
    # a hand-built posterior keeps relative draws the package would
    # withhold, so only the zero control mean can null the relative fields
    study = StudyRecord(GroupSummary(0.0, 2.0, 10), GroupSummary(3.0, 2.0, 10),
                        0.05)
    rng = np.random.default_rng(0)
    mu_x = rng.uniform(0.5, 1.5, 2000)
    mu_y = rng.normal(3.0, 0.5, 2000)
    diff = mu_y - mu_x
    draws = PosteriorDraws(mu_x=mu_x, mu_y=mu_y, diff=diff,
                           rel_diff=diff / mu_x, k=2000, seed=5)
    full = _assert_each_alone_matches(study, RAW_REGION, draws)
    assert full.r_xbar_dm is None and full.rs_dm is None
    assert full.r_delta_l is None and full.r_delta_m is None
    # a relative region cannot be mapped onto the data without a control
    # mean: the full suite raises, and so does p_e alone; the rest do not
    with pytest.raises(OutOfRange):
        candidate_suite(None, study, REL_REGION, draws)
    with pytest.raises(OutOfRange):
        candidate_suite(None, study, REL_REGION, draws, ("p_e",))
    for name in CANDIDATES:
        if name == "p_e":
            continue
        alone = candidate_suite(None, study, REL_REGION, draws, (name,))
        if name in ("bf", "p_sg"):
            assert alone.value(name) is None
        else:
            assert same(alone.value(name), full.value(name)), name


@pytest.mark.filterwarnings("ignore::leastdiff.ZeroVarianceWarning")
def test_unrequested_cohen_d_no_longer_raises():
    g = GroupSummary(10.0, 0.0, 8)
    study = StudyRecord(g, GroupSummary(12.0, 0.0, 8), 0.05)
    with pytest.warns(ld.DegenerateScaleWarning):
        draws = sample_posterior(study, k=2000, seed=0)
    with pytest.raises(ZeroPooledVariance):
        candidate_suite(None, study, RAW_REGION, draws)
    alone = candidate_suite(None, study, RAW_REGION, draws, ("delta_l",))
    assert alone.delta_l == 2.0


def test_strict_decision_needs_the_mean_difference(toy_study):
    draws = sample_posterior(toy_study, k=2000, seed=1)
    partial = candidate_suite(None, toy_study, RAW_REGION, draws, ("delta_l",))
    with pytest.raises(OutOfRange, match="xbar_dm"):
        ld.decide_stronger(partial, partial, "delta_l")
    assert not ld.decide_stronger(partial, partial, "delta_l", strict=False)


def test_needs_of_each_candidate():
    assert candidate_needs(("rnd",), Scale.RAW) == {SEED}
    assert candidate_needs(("xbar_dm", "p_e"), Scale.RAW) == {SUMMARY}
    assert candidate_needs(("delta_l",), Scale.RAW) == {SUMMARY, RAW}
    assert candidate_needs(("r_delta_m",), Scale.RAW) == {SUMMARY, RELATIVE}
    assert candidate_needs(("bf",), Scale.RAW) == {SUMMARY, RAW}
    assert candidate_needs(("p_sg",), Scale.RELATIVE) == {SUMMARY, RELATIVE}
    assert candidate_needs(CANDIDATES, Scale.RAW) == {
        SUMMARY, RAW, RELATIVE, SEED}
    with pytest.raises(OutOfRange):
        candidate_needs(("mystery",), Scale.RAW)


def test_rnd_needs_only_the_seed(toy_study):
    draws = sample_posterior(toy_study, k=2000, seed=7)
    full = candidate_suite(None, toy_study, RAW_REGION, draws)
    alone = candidate_suite(None, None, RAW_REGION, draws.seed, ("rnd",))
    assert same(alone.rnd, full.rnd)
    summary = candidate_suite(None, toy_study, RAW_REGION, None, ("p_n",))
    assert same(summary.p_n, full.p_n)


def test_missing_inputs_are_named(toy_study):
    with pytest.raises(OutOfRange, match="posterior draws"):
        candidate_suite(None, toy_study, RAW_REGION, 3, ("delta_l",))
    with pytest.raises(OutOfRange, match="summaries"):
        candidate_suite(None, None, RAW_REGION, 3, ("xbar_dm",))
    with pytest.raises(OutOfRange, match="seed"):
        candidate_suite(None, toy_study, RAW_REGION, None, ("rnd",))


# --- a trial computes only what its candidates read --------------------------


def _forbid(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(riskbench, name, refuse)


def test_rnd_trial_draws_no_data(monkeypatch):
    config = riskbench.default_base_config()
    want = riskbench._trial_candidates(
        config, RAW_REGION, frozenset(CANDIDATES), 1000,
        (1, "data", 0), (1, "post", 0))
    _forbid(monkeypatch, "draw_sample")
    _forbid(monkeypatch, "sample_posterior")
    got = riskbench._trial_candidates(
        config, RAW_REGION, frozenset({"rnd"}), 1000,
        (1, "data", 0), (1, "post", 0))
    assert got == {"rnd": want["rnd"]}


def test_summary_trial_samples_no_posterior(monkeypatch):
    config = riskbench.default_base_config()
    names = frozenset({"xbar_dm", "p_n", "cohen_d", "rs_dm"})
    want = riskbench._trial_candidates(
        config, RAW_REGION, frozenset(CANDIDATES), 1000,
        (2, "data", 0), (2, "post", 0))
    _forbid(monkeypatch, "sample_posterior")
    _forbid(monkeypatch, "child_seed")
    got = riskbench._trial_candidates(
        config, RAW_REGION, names, 1000, (2, "data", 0), (2, "post", 0))
    assert got == {name: want[name] for name in names}
    assert all(math.isfinite(value) for value in got.values())
