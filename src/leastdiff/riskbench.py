"""Simulation benchmarks: decision risk and strength-ladder correlation.

Two study designs probe whether a candidate statistic actually tracks
the strength of evidence:

* Comparison pairs. Two synthetic experiments are built so that, for one
  designated measure of strength (or for all of them at once), it is
  known which experiment is stronger. Both are run many times, the
  candidate picks a winner each time, and its mean 0/1 decision error is
  tallied per measure. A useful statistic beats coin-flipping; the Rnd
  control should not.

* Strength ladders. One measure is swept over an increasing grid while
  everything else stays fixed, and each candidate's per-config mean is
  rank-correlated with the measure, with a bootstrap confidence interval
  on the Spearman rho.

Both designs live entirely inside one positive or negative sign regime:
every generated config is checked (analytically at its weakest corner,
then empirically with probe samples) to keep its expected t-ratio beyond
1 in magnitude. Pair generation flips an independent fair coin per
measure for which side gets the stronger level, and a batch is only
accepted when the realised coins pass fairness and pairwise-agreement
gates, so no candidate can score well through generator imbalance.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .model import (
    CANDIDATES,
    ComparisonPair,
    CorrelationReport,
    CorrelationRow,
    DegenerateScaleWarning,
    InfeasibleSeries,
    Measure,
    NonpositiveControlWarning,
    NullRegion,
    OutOfRange,
    PopulationConfig,
    RawSamples,
    RegimeInfeasible,
    RiskReport,
    RiskRow,
    Scale,
    SignRegime,
    StudyRecord,
    Winner,
    ZeroVarianceWarning,
    summarize,
)
from .parallel import pmap
from .posterior import sample_posterior
from .rng import child_seed, substream
from .stats import (
    RAW,
    RELATIVE,
    SEED,
    candidate_needs,
    candidate_suite,
    compare_candidate,
)

__all__ = [
    "ORACLE",
    "ALPHA_GRID",
    "draw_sample",
    "expected_t_ratio",
    "fairness_band",
    "PairBatch",
    "generate_comparison_pairs",
    "run_comparison_study",
    "MeasureSeries",
    "default_base_config",
    "generate_series",
    "spearman_study",
]

# reference row name: a decision maker who reads the ground truth directly
ORACLE = "oracle"

# decision tail masses available to the samplers: 0.05 over 1..10
ALPHA_GRID: tuple[float, ...] = tuple(0.05 / k for k in range(1, 11))

# population sampler ranges
_MU_X_RANGE = (1.0, 100.0)
_R_MU_RANGE = (0.05, 0.8)
_R_SD_RANGE = (0.05, 1.0)
_SIZE_RANGE = (6, 40)

# level separation for the designated measure of an individual pair, and
# the faint separation used for every other measure
_BIG_RATIO = (1.35, 2.2)
_SMALL_RATIO = (1.02, 1.08)
_ALPHA_STRONG_MAX = 4      # designated-alpha strong side draws k in 1..4
_ALPHA_GAP = (3, 6)        # and the weak side sits this many k further out

# simultaneous pairs separate all four measures at once; the per-measure
# ratios are retuned so no single measure dominates the others' signal
_SIM_MU_RATIO = (1.05, 1.25)
_SIM_SD_RATIO = (1.4, 2.2)
_SIM_SIZE_RATIO = (1.8, 3.0)
_SIM_ALPHA_STRONG = (1, 2)
_SIM_ALPHA_WEAK = (7, 10)

# the analytic expected t-ratio at the weakest corner of the sampled
# levels must clear this; keeps acceptance independent of the coin flips
_CORNER_MIN = 1.25
# relative-scale studies additionally keep the control posterior safely
# positive: sqrt(size) * sqrt(2) / r_sd at the weakest corner
_RELATIVE_GUARD = 6.0

_PROBE_SAMPLES = 50
_MAX_PAIR_ATTEMPTS = 10000
_MAX_BATCHES = 25

# null region for region-dependent candidates: +-20% of control
_REGION_FRACTION = 0.2

_BOOTSTRAP_RESAMPLES = 1000


# ---------------------------------------------------------------------------
# sampling experiments from a population config


def draw_sample(config: PopulationConfig, rng: np.random.Generator) -> RawSamples:
    """Draw one synthetic experiment: m control and n experiment values."""
    x = config.mu_x + config.sigma_x * rng.standard_normal(config.m)
    y = config.mu_y + config.sigma_y * rng.standard_normal(config.n)
    return RawSamples(x=x, y=y)


def expected_t_ratio(
    config: PopulationConfig,
    rng: np.random.Generator,
    n_probe: int = _PROBE_SAMPLES,
) -> float:
    """Mean sample t-ratio over fresh probe experiments.

    A probe's t-ratio is its mean difference over the unpooled standard
    error, divided by the critical t at the config's tail mass with
    m + n - 1 degrees of freedom; ratios beyond +1 (or below -1) put the
    probe inside the corresponding sign regime. A probe whose two
    variances are both zero scores a signed infinity, or 0 for identical
    means, with a warning. The probes are drawn in one block and their
    ratios summed in probe order, so the result equals averaging the
    ratios of ``n_probe`` successive ``draw_sample`` calls on the same
    generator.
    """
    if n_probe < 1:
        raise OutOfRange(f"n_probe must be positive, got {n_probe}")
    m, n = config.m, config.n
    z = rng.standard_normal((n_probe, m + n))
    x = config.mu_x + config.sigma_x * z[:, :m]
    y = config.mu_y + config.sigma_y * z[:, m:]
    diff = y.mean(axis=1) - x.mean(axis=1)
    se2 = x.var(axis=1, ddof=1) / m + y.var(axis=1, ddof=1) / n
    t_crit = abs(float(special.stdtrit(m + n - 1, 1.0 - config.alpha_dm)))
    degenerate = se2 == 0.0
    if degenerate.any():
        warnings.warn(
            "both samples have zero variance; t-ratio set by convention",
            ZeroVarianceWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            degenerate,
            np.where(diff != 0.0, np.copysign(math.inf, diff), 0.0),
            diff / np.sqrt(se2) / t_crit,
        )
    total = 0.0
    for ratio in ratios.tolist():
        total += ratio
    return total / n_probe


# ---------------------------------------------------------------------------
# pair generation


def fairness_band(count: int, level: float = 0.99) -> tuple[float, float]:
    """Central binomial band for a fair coin, as win fractions."""
    from scipy import stats as sps

    lo, hi = sps.binom.interval(level, count, 0.5)
    return lo / count, hi / count


def _knob_for(measure: Measure) -> str:
    if measure in (Measure.MU_DM, Measure.R_MU_DM):
        return "r_mu"
    if measure in (Measure.SIGMA_D, Measure.R_SIGMA_D):
        return "r_sd"
    if measure is Measure.DF_D:
        return "size"
    return "alpha_k"


def _sample_levels(rng: np.random.Generator, designated_knob: str | None):
    """Draw (strong, weak) level pairs for every knob.

    Individual designs give the designated knob a wide separation and
    every other knob a faint one. The simultaneous design (no designated
    knob) separates all knobs at once with its own tuned ratios.
    """
    levels: dict[str, tuple] = {}
    simultaneous = designated_knob is None

    ratio = rng.uniform(*(_SIM_MU_RATIO if simultaneous else (
        _BIG_RATIO if designated_knob == "r_mu" else _SMALL_RATIO)))
    weak = rng.uniform(_R_MU_RANGE[0], _R_MU_RANGE[1] / ratio)
    levels["r_mu"] = (weak * ratio, weak)

    ratio = rng.uniform(*(_SIM_SD_RATIO if simultaneous else (
        _BIG_RATIO if designated_knob == "r_sd" else _SMALL_RATIO)))
    strong = rng.uniform(_R_SD_RANGE[0], _R_SD_RANGE[1] / ratio)
    levels["r_sd"] = (strong, strong * ratio)

    if simultaneous or designated_knob == "size":
        ratio = rng.uniform(
            *(_SIM_SIZE_RATIO if simultaneous else _BIG_RATIO)
        )
        weak = int(
            rng.integers(
                _SIZE_RANGE[0], int(_SIZE_RANGE[1] / ratio), endpoint=True
            )
        )
        strong = max(weak + 1, round(weak * ratio))
    else:
        weak = int(rng.integers(_SIZE_RANGE[0], _SIZE_RANGE[1] - 1, endpoint=True))
        strong = weak + 1
    levels["size"] = (strong, weak)

    if simultaneous:
        k_strong = int(rng.integers(*_SIM_ALPHA_STRONG, endpoint=True))
        k_weak = int(rng.integers(*_SIM_ALPHA_WEAK, endpoint=True))
    elif designated_knob == "alpha_k":
        k_strong = int(rng.integers(1, _ALPHA_STRONG_MAX, endpoint=True))
        k_weak = min(
            len(ALPHA_GRID), k_strong + int(rng.integers(*_ALPHA_GAP, endpoint=True))
        )
    else:
        k_strong = int(rng.integers(1, len(ALPHA_GRID) - 1, endpoint=True))
        k_weak = k_strong + 1
    levels["alpha_k"] = (k_strong, k_weak)

    return levels


def _corner_t_ratio(levels) -> float:
    """Analytic t-ratio at the weakest corner of the sampled levels."""
    r_mu = levels["r_mu"][1]
    r_sd = levels["r_sd"][1]
    size = levels["size"][1]
    alpha = ALPHA_GRID[levels["alpha_k"][1] - 1]
    # equal-split sigmas and m = n make sigma_dm/mu_x = r_sd / sqrt(size)
    t_expect = r_mu * math.sqrt(size) / r_sd
    t_crit = float(special.stdtrit(2 * size - 1, 1.0 - alpha))
    return t_expect / abs(t_crit)


def _levels_admissible(levels, scale: Scale) -> bool:
    if _corner_t_ratio(levels) < _CORNER_MIN:
        return False
    if scale is Scale.RELATIVE:
        size = levels["size"][1]
        r_sd = levels["r_sd"][1]
        if math.sqrt(size) * math.sqrt(2.0) / r_sd < _RELATIVE_GUARD:
            return False
    return True


def _build_config(
    mu_x: float, r_mu: float, r_sd: float, size: int, alpha_k: int,
    regime: SignRegime,
) -> PopulationConfig:
    sigma = r_sd * mu_x / math.sqrt(2.0)
    return PopulationConfig(
        mu_x=mu_x,
        mu_y=mu_x * (1.0 + regime.sign * r_mu),
        sigma_x=sigma,
        sigma_y=sigma,
        m=size,
        n=size,
        alpha_dm=ALPHA_GRID[alpha_k - 1],
    )


@dataclass(frozen=True)
class PairBatch(Sequence):
    """An accepted batch of comparison pairs, the design it was generated
    under, and its balance diagnostics.

    ``scored`` holds the measures a study of the batch scores: the
    independent measure, or every measure of the scale for the
    simultaneous design (``independent`` is None).
    """

    pairs: tuple[ComparisonPair, ...]
    scale: Scale
    regime: SignRegime
    independent: Measure | None
    scored: tuple[Measure, ...]
    regenerations: int
    winner_fractions: dict
    agreement_fractions: dict

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        return self.pairs[index]


def _balanced_fractions(pairs, measures, independent: Measure | None):
    """Winner and pairwise-agreement fractions of a batch's coins, or None
    when they fail the balance gates.

    One pass counts, per measure, the pairs whose experiment 1 is
    stronger and, per pair of measures, the pairs whose two winners
    agree. The fairness gate keeps each tested measure's win fraction
    inside ``fairness_band``; the agreement gate rejects a pair of
    measures whose agreement count an exact binomial test against a fair
    coin finds significant at 0.05, Bonferroni-corrected.
    """
    from scipy import stats as sps

    n = len(pairs)
    wins = dict.fromkeys(measures, 0)
    agree = dict.fromkeys(itertools.combinations(measures, 2), 0)
    for pair in pairs:
        truth = pair.ground_truth
        for meas in measures:
            wins[meas] += truth[meas] is Winner.EXP1
        for a, b in agree:
            agree[a, b] += truth[a] is truth[b]

    lo, hi = fairness_band(n)
    fair = measures if independent is None else (independent,)
    if not all(lo <= wins[meas] / n <= hi for meas in fair):
        return None
    tested = [key for key in agree if independent is None or independent in key]
    threshold = 0.05 / len(tested)
    if any(sps.binomtest(agree[key], n, 0.5).pvalue <= threshold
           for key in tested):
        return None
    return (
        {meas.value: count / n for meas, count in wins.items()},
        {f"{a.value}&{b.value}": count / n
         for (a, b), count in agree.items()},
    )


def _resolve_scale(independent: Measure | None, scale: Scale | None) -> Scale:
    if scale is not None:
        return Scale(scale)
    if independent in (Measure.MU_DM, Measure.SIGMA_D):
        return Scale.RAW
    if independent is not None and independent.is_relative:
        return Scale.RELATIVE
    raise OutOfRange(
        "scale is required when the independent measure does not imply one"
    )


def generate_comparison_pairs(
    independent: Measure | None,
    regime: SignRegime,
    count: int,
    seed: int,
    *,
    scale: Scale | None = None,
) -> PairBatch:
    """Build a batch of comparison pairs with known per-measure winners.

    Both configs of a pair share mu_x and differ on every measure of the
    scale; an independent fair coin per measure decides which side gets
    the stronger level. ``independent=None`` selects the simultaneous
    design where all measures get comparable separation. Batches failing
    the fairness or agreement gates are regenerated (counted), and the
    whole generation fails with RegimeInfeasible if the gates cannot be
    met or the sign regime cannot be reached.
    """
    if count < 50:
        raise OutOfRange(f"count must be at least 50, got {count}")
    regime = SignRegime(regime)
    the_scale = _resolve_scale(independent, scale)
    measures = the_scale.measures
    if independent is not None:
        the_scale.require_measure(independent)
    knob = _knob_for(independent) if independent is not None else None
    measure_of = {_knob_for(meas): meas for meas in measures}

    for batch in range(_MAX_BATCHES):
        pairs = []
        for i in range(count):
            rng = substream(seed, "pair", batch, i)
            for attempt in range(_MAX_PAIR_ATTEMPTS):
                levels = _sample_levels(rng, knob)
                if not _levels_admissible(levels, the_scale):
                    continue
                mu_x = rng.uniform(*_MU_X_RANGE)
                coins = {
                    meas: Winner.EXP1 if rng.random() < 0.5 else Winner.EXP2
                    for meas in measures
                }
                sides = []
                for side_winner in (Winner.EXP1, Winner.EXP2):
                    picked = {
                        k: levels[k][0 if coins[meas] is side_winner else 1]
                        for k, meas in measure_of.items()
                    }
                    sides.append(
                        _build_config(
                            mu_x,
                            picked["r_mu"],
                            picked["r_sd"],
                            picked["size"],
                            picked["alpha_k"],
                            regime,
                        )
                    )
                ratio1 = expected_t_ratio(
                    sides[0], substream(seed, "probe", batch, i, attempt, 1)
                )
                ratio2 = expected_t_ratio(
                    sides[1], substream(seed, "probe", batch, i, attempt, 2)
                )
                if regime is SignRegime.POSITIVE:
                    in_regime = ratio1 > 1.0 and ratio2 > 1.0
                else:
                    in_regime = ratio1 < -1.0 and ratio2 < -1.0
                if not in_regime:
                    continue
                pairs.append(
                    ComparisonPair(
                        exp1=sides[0],
                        exp2=sides[1],
                        ground_truth=dict(coins),
                        t_ratio_1=ratio1,
                        t_ratio_2=ratio2,
                    )
                )
                break
            else:
                raise RegimeInfeasible(
                    f"no admissible pair found for slot {i} after "
                    f"{_MAX_PAIR_ATTEMPTS} attempts"
                )
        fractions = _balanced_fractions(pairs, measures, independent)
        if fractions is not None:
            return PairBatch(
                pairs=tuple(pairs),
                scale=the_scale,
                regime=regime,
                independent=independent,
                scored=measures if independent is None else (independent,),
                regenerations=batch,
                winner_fractions=fractions[0],
                agreement_fractions=fractions[1],
            )
    raise RegimeInfeasible(
        f"balance gates failed in {_MAX_BATCHES} consecutive batches"
    )


# ---------------------------------------------------------------------------
# decision-risk study


def _study_region(pair_mu_x: float, scale: Scale) -> NullRegion:
    if scale is Scale.RELATIVE:
        return NullRegion(-_REGION_FRACTION, _REGION_FRACTION, Scale.RELATIVE)
    half = _REGION_FRACTION * pair_mu_x
    return NullRegion(-half, half, Scale.RAW)


def _trial_candidates(config, region, requested, k_draws, data_path,
                      post_path):
    """Values of the requested candidates for one synthetic experiment;
    absent stats are omitted from the dict.

    The sample is drawn from ``substream(*data_path)`` and the posterior
    seeded with ``child_seed(*post_path)``, each only when a requested
    candidate reads it.
    """
    needs = candidate_needs(requested, region.scale)
    study = draws = None
    if needs - {SEED}:
        data = draw_sample(config, substream(*data_path))
        control, experiment = summarize(data)
        study = StudyRecord(
            control=control, experiment=experiment, alpha_dm=config.alpha_dm
        )
    if needs & {RAW, RELATIVE}:
        draws = sample_posterior(study, k_draws, child_seed(*post_path))
    elif SEED in needs:
        draws = child_seed(*post_path)
    suite = candidate_suite(study, region, draws, requested)
    return {
        name: value
        for name in requested
        if (value := getattr(suite, name)) is not None
    }


def _trial_table(config, region, columns, k_draws, paths):
    """Values of the named candidates over the trials of one config.

    Returns an (S, C) table: one row per trial, whose sample and
    posterior come from the (data path, posterior path) pair at that
    position of ``paths``, and one column per name in ``columns``, NaN
    where a candidate has no value. The warnings a simulated trial
    raises by design are silenced: withheld or heavy-tailed relative
    draws and point-mass posteriors.
    """
    requested = frozenset(columns)
    table = np.full((len(paths), len(columns)), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonpositiveControlWarning)
        warnings.simplefilter("ignore", DegenerateScaleWarning)
        for s, (data_path, post_path) in enumerate(paths):
            values = _trial_candidates(
                config, region, requested, k_draws, data_path, post_path
            )
            for ci, name in enumerate(columns):
                value = values.get(name)
                if value is not None:
                    table[s, ci] = value
    return table


def _pair_worker(task):
    """One pair: per candidate, its errors against each scored measure's
    ground truth and its number of trials.

    A trial counts for a candidate when the candidate has a value on
    both sides; the oracle reads the ground truth, so it never errs and
    counts every trial.
    """
    (index, pair, n_samples, k_draws, seed, candidates, measures, scale) = task
    region = _study_region(pair.exp1.mu_x, scale)
    scored = [ci for ci, cand in enumerate(candidates) if cand != ORACLE]
    columns = [candidates[ci] for ci in scored]
    side1, side2 = (
        _trial_table(config, region, columns, k_draws, [
            ((seed, "data", index, s, side), (seed, "post", index, s, side))
            for s in range(n_samples)
        ])
        for side, config in ((1, pair.exp1), (2, pair.exp2))
    )
    truth_is_exp1 = np.array(
        [pair.ground_truth[m] is Winner.EXP1 for m in measures]
    )
    errors = np.zeros((len(candidates), len(measures)), dtype=np.int64)
    trials = np.full(len(candidates), n_samples, dtype=np.int64)
    both = ~(np.isnan(side1) | np.isnan(side2))
    trials[scored] = both.sum(axis=0)
    for j, (ci, cand) in enumerate(zip(scored, columns)):
        pred_exp1 = compare_candidate(
            cand, side1[both[:, j], j], side2[both[:, j], j]
        )
        errors[ci] = (pred_exp1[:, None] != truth_is_exp1).sum(axis=0)
    return errors, trials


def run_comparison_study(
    batch: PairBatch,
    n_samples: int = 50,
    k_draws: int = 2000,
    candidates=CANDIDATES,
    seed: int = 0,
    workers: int = 1,
) -> RiskReport:
    """Score candidate statistics against known winners over many trials.

    The design (scale, sign regime, independent measure and the measures
    to score) and the balance diagnostics are read from the batch as
    ``generate_comparison_pairs`` recorded them. Every pair is sampled
    ``n_samples`` times; each trial runs both experiments, computes each
    candidate on both, and compares its pick with the ground truth of
    the scored measures (the batch's independent measure, or all
    measures for the simultaneous design). The mean error per candidate
    and measure comes with an exact two-sided binomial p-value against
    coin-flipping, flagged significant under a Bonferroni correction
    across candidates.
    """
    from scipy import stats as sps

    if not batch:
        raise OutOfRange("no pairs to score")
    if n_samples < 1:
        raise OutOfRange(f"n_samples must be positive, got {n_samples}")
    candidates = tuple(candidates)
    if candidates.count(ORACLE) > 1:
        raise OutOfRange(f"candidate statistic {ORACLE!r} is requested twice")
    candidate_needs([c for c in candidates if c != ORACLE], batch.scale)
    measures = batch.scored

    tasks = [
        (i, pair, n_samples, k_draws, seed, candidates, measures, batch.scale)
        for i, pair in enumerate(batch.pairs)
    ]
    results = pmap(_pair_worker, tasks, workers)
    errors = sum(r[0] for r in results)
    trials = sum(r[1] for r in results)

    n_tested = len([c for c in candidates if c != ORACLE]) or 1
    rows = []
    for ci, cand in enumerate(candidates):
        n_tr = int(trials[ci])
        for mi, meas in enumerate(measures):
            n_err = int(errors[ci, mi])
            if n_tr > 0:
                p_value = float(sps.binomtest(n_err, n_tr, 0.5).pvalue)
                mean_error = n_err / n_tr
            else:
                p_value = 1.0
                mean_error = math.nan
            rows.append(
                RiskRow(
                    candidate=cand,
                    measure=meas.value,
                    mean_error=mean_error,
                    p_value=p_value,
                    significant=bool(n_tr > 0 and p_value < 0.05 / n_tested),
                    n_trials=n_tr,
                )
            )

    ratios_1 = [p.t_ratio_1 for p in batch]
    ratios_2 = [p.t_ratio_2 for p in batch]
    if all(map(math.isfinite, ratios_1 + ratios_2)):
        ks_statistic = float(sps.ks_2samp(ratios_1, ratios_2).statistic)
    else:
        ks_statistic = math.nan

    return RiskReport(
        rows=tuple(rows),
        scale=batch.scale,
        regime=batch.regime,
        independent=(
            batch.independent.value if batch.independent else "simultaneous"
        ),
        n_pairs=len(batch),
        n_samples=n_samples,
        k_draws=k_draws,
        seed=seed,
        regenerations=batch.regenerations,
        winner_fractions=dict(batch.winner_fractions),
        agreement_fractions=dict(batch.agreement_fractions),
        ks_statistic=ks_statistic,
    )


# ---------------------------------------------------------------------------
# strength ladders and rank correlation


@dataclass(frozen=True)
class MeasureSeries:
    """Configs forming an increasing strength ladder for one measure."""

    measure: Measure
    scale: Scale
    configs: tuple[PopulationConfig, ...]
    couplings: tuple[str, ...]


def default_base_config(
    scale: Scale = Scale.RAW, regime: SignRegime = SignRegime.POSITIVE
) -> PopulationConfig:
    """A comfortable mid-regime base for building strength ladders."""
    mu_x = 50.0
    r_mu = 0.3 * SignRegime(regime).sign
    sigma = 0.4 * mu_x / math.sqrt(2.0)
    return PopulationConfig(
        mu_x=mu_x,
        mu_y=mu_x * (1.0 + r_mu),
        sigma_x=sigma,
        sigma_y=sigma,
        m=16,
        n=16,
        alpha_dm=0.05,
    )


_LADDER_SPAN = 3.0  # strongest config multiplies the base by this factor


def generate_series(
    measure: Measure,
    steps: int,
    base: PopulationConfig | None = None,
    scale: Scale | None = None,
) -> MeasureSeries:
    """Sweep one measure over an increasing-strength grid.

    The ladder is ordered weakest to strongest: mean differences scale
    up, noise scales down, sizes grow, tail masses grow. Side effects on
    other derived quantities are unavoidable (scaling the mean difference
    moves its relative version too) and are reported in ``couplings``.
    ``scale`` defaults to the measure's own and must score the measure.
    """
    measure = Measure(measure)
    if steps < 5:
        raise OutOfRange(f"steps must be at least 5, got {steps}")
    if scale is None:
        scale = Scale.RELATIVE if measure.is_relative else Scale.RAW
    scale = Scale(scale)
    scale.require_measure(measure)
    if base is None:
        base = default_base_config(scale)

    factors = [_LADDER_SPAN ** (i / (steps - 1)) for i in range(steps)]

    if measure in (Measure.MU_DM, Measure.R_MU_DM):
        if base.mu_dm == 0.0:
            raise InfeasibleSeries("cannot scale a zero mean difference")
        configs = tuple(
            replace(base, mu_y=base.mu_x + base.mu_dm * f) for f in factors
        )
        couplings = ("r_mu_dm",) if measure is Measure.MU_DM else ("mu_dm",)
    elif measure in (Measure.SIGMA_D, Measure.R_SIGMA_D):
        if base.sigma_x == 0.0 and base.sigma_y == 0.0:
            raise InfeasibleSeries("cannot scale zero noise")
        configs = tuple(
            replace(base, sigma_x=base.sigma_x / f, sigma_y=base.sigma_y / f)
            for f in factors
        )
        couplings = (
            ("r_sigma_d", "sigma_dm", "r_sigma_dm")
            if measure is Measure.SIGMA_D
            else ("sigma_d", "sigma_dm", "r_sigma_dm")
        )
    elif measure is Measure.DF_D:
        if base.m != base.n:
            raise InfeasibleSeries(
                "size ladder needs equal group sizes in the base config"
            )
        sizes = []
        last = base.m - 1
        for f in factors:
            size = max(last + 1, round(base.m * f))
            sizes.append(size)
            last = size
        configs = tuple(replace(base, m=s, n=s) for s in sizes)
        couplings = ("sigma_dm", "r_sigma_dm")
    else:  # Measure.ALPHA_DM
        if steps > len(ALPHA_GRID):
            raise InfeasibleSeries(
                f"tail-mass grid supports at most {len(ALPHA_GRID)} steps"
            )
        ks = range(steps, 0, -1)
        configs = tuple(replace(base, alpha_dm=0.05 / k) for k in ks)
        couplings = ()

    return MeasureSeries(
        measure=measure, scale=scale, configs=configs, couplings=couplings
    )


def _config_worker(task):
    """One ladder config: per-candidate means over its trials, and the
    bootstrap means of ``_BOOTSTRAP_RESAMPLES`` resamples of its trials."""
    (index, config, n_samples, k_draws, seed, candidates, region) = task
    stats = _trial_table(config, region, candidates, k_draws, [
        ((seed, "sample", index, s), (seed, "post", index, s))
        for s in range(n_samples)
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(stats, axis=0)  # (C,)
        idx = substream(seed, "boot", index).integers(
            0, n_samples, size=(_BOOTSTRAP_RESAMPLES, n_samples)
        )
        boot_means = np.nanmean(stats[idx], axis=1)  # (B, C)
    return means, boot_means


def _rank_rho(x_ranks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Spearman rho of fixed x ranks against each column set of `table`.

    `table` has shape (..., S); ranking happens along the last axis, so
    any leading axes (bootstrap replicates, candidates) vectorise.
    """
    from scipy import stats as sps

    finite = np.isfinite(table)
    safe = np.where(finite, table, np.inf)
    y_ranks = sps.rankdata(safe, axis=-1)
    xc = x_ranks - x_ranks.mean()
    yc = y_ranks - y_ranks.mean(axis=-1, keepdims=True)
    cov = (yc * xc).sum(axis=-1)
    denom = np.sqrt((xc ** 2).sum() * (yc ** 2).sum(axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = cov / denom
    return np.where(finite.all(axis=-1), rho, np.nan)


def spearman_study(
    series: MeasureSeries,
    n_samples: int = 50,
    k_draws: int = 2000,
    seed: int = 0,
    candidates=CANDIDATES,
    workers: int = 1,
) -> CorrelationReport:
    """Rank-correlate candidate statistics with a strength ladder.

    For each config of the series, every candidate's per-trial values are
    averaged over ``n_samples`` synthetic experiments; the Spearman rho
    of those means against the measure value gets a percentile bootstrap
    confidence interval (resampling trials within each config) at a
    Bonferroni-corrected level, and the row is significant when that
    interval excludes zero.
    """
    configs = series.configs
    if len(configs) < 5:
        raise OutOfRange(f"series must have at least 5 configs, got {len(configs)}")
    if n_samples < 2:
        raise OutOfRange(f"n_samples must be at least 2, got {n_samples}")
    candidates = tuple(candidates)
    candidate_needs(candidates, series.scale)

    region = _study_region(configs[0].mu_x, series.scale)
    tasks = [
        (i, config, n_samples, k_draws, seed, candidates, region)
        for i, config in enumerate(configs)
    ]
    per_config = pmap(_config_worker, tasks, workers)

    from scipy import stats as sps

    strengths = np.array(
        [config.measure_value(series.measure) for config in configs]
    )
    x_ranks = sps.rankdata(strengths)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.stack([means for means, _ in per_config])  # (S, C)
        point_rho = _rank_rho(x_ranks, means.T)  # (C,)

        boot = np.stack([boot for _, boot in per_config], axis=1)  # (B, S, C)
        # (B, C, S) -> rho per replicate and candidate
        boot_rho = _rank_rho(x_ranks, np.swapaxes(boot, 1, 2))

        q = 0.05 / len(CANDIDATES)
        ci_lo = np.nanpercentile(boot_rho, 100 * q / 2, axis=0)
        ci_hi = np.nanpercentile(boot_rho, 100 * (1 - q / 2), axis=0)

    rows = []
    for ci, cand in enumerate(candidates):
        lo = float(ci_lo[ci])
        hi = float(ci_hi[ci])
        rho = float(point_rho[ci])
        significant = bool(
            math.isfinite(rho)
            and math.isfinite(lo)
            and math.isfinite(hi)
            and (lo > 0.0 or hi < 0.0)
        )
        rows.append(
            CorrelationRow(
                candidate=cand,
                measure=series.measure.value,
                rho=rho,
                ci_lo=lo,
                ci_hi=hi,
                significant=significant,
            )
        )

    return CorrelationReport(
        rows=tuple(rows),
        scale=series.scale,
        n_configs=len(configs),
        n_samples=n_samples,
        k_draws=k_draws,
        seed=seed,
    )
