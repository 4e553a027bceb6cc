"""Shared domain types for two-group mean comparisons.

Everything downstream (posterior sampling, candidate statistics, the
benchmark harness, the CLI) speaks in these types. They are plain frozen
dataclasses: constructed once, validated eagerly, safe to share between
worker processes.

Conventions used throughout the package:

* "control" is the reference group (x), "experiment" the treated group (y).
* The difference in means is always experiment minus control.
* The relative difference divides by the control mean, so -0.30 reads as
  "30% lower than control".
* ``alpha_dm`` is the two-sided decision-making tail mass attached to a
  study, typically 0.05 possibly divided by a multiple-comparison factor.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np

__all__ = [
    "ToolkitError",
    "SequenceTooShort",
    "ParseError",
    "OutOfRange",
    "EmptyDraws",
    "InsufficientDraws",
    "NonpositiveControl",
    "ZeroPooledVariance",
    "MixedSignRegime",
    "EmptyInput",
    "InputError",
    "InfeasibleSeries",
    "RegimeInfeasible",
    "DegenerateScaleWarning",
    "ZeroVarianceWarning",
    "NonpositiveControlWarning",
    "Scale",
    "Measure",
    "Winner",
    "SignRegime",
    "Designation",
    "RAW_MEASURES",
    "RELATIVE_MEASURES",
    "CANDIDATES",
    "GroupSummary",
    "StudyRecord",
    "RawSamples",
    "PosteriorDraws",
    "CredibleBounds",
    "EffectStrengthResult",
    "NullRegion",
    "CandidateStatistics",
    "PopulationConfig",
    "ComparisonPair",
    "RiskRow",
    "RiskReport",
    "CorrelationRow",
    "CorrelationReport",
    "summarize",
    "parse_alpha",
]


# ---------------------------------------------------------------------------
# errors and warnings


class ToolkitError(Exception):
    """Base class for every error this package raises on purpose."""


class SequenceTooShort(ToolkitError):
    """A sample sequence has fewer than two observations."""


class ParseError(ToolkitError):
    """Text input does not match the expected grammar."""


class OutOfRange(ToolkitError):
    """A numeric argument violates its documented range."""


class EmptyDraws(ToolkitError):
    """An empirical-distribution operation received zero draws."""


class InsufficientDraws(ToolkitError):
    """Too few draws to resolve the requested tail mass."""


class NonpositiveControl(ToolkitError):
    """Relative statistics requested, but the control-mean posterior puts
    non-negligible mass at or below zero, so ratios are not interpretable."""


class ZeroPooledVariance(ToolkitError):
    """Standardised effect size is undefined: both groups are constant."""


class MixedSignRegime(ToolkitError):
    """Two results being compared disagree on the sign of the mean
    difference, so 'stronger' is ambiguous for magnitude-based readings."""


class EmptyInput(ToolkitError):
    """An aggregation was asked for on fewer inputs than it is defined."""


class InputError(ToolkitError):
    """A tabular input file violates the expected schema; the message names
    the offending row and column."""


class InfeasibleSeries(ToolkitError):
    """A requested strength ladder cannot be built from the base config."""


class RegimeInfeasible(ToolkitError):
    """The pair generator could not satisfy its regime or balance gates."""


class DegenerateScaleWarning(UserWarning):
    """A group has zero sample sd; its mean posterior is a point mass."""


class ZeroVarianceWarning(UserWarning):
    """Both groups have zero variance; a test statistic was set by
    convention instead of computed."""


class NonpositiveControlWarning(UserWarning):
    """Some control-mean draws are nonpositive; relative quantities are
    either noisy (small fraction) or withheld (large fraction)."""


# ---------------------------------------------------------------------------
# enums


class Scale(str, Enum):
    """Which scale a quantity lives on: raw units or relative-to-control."""

    RAW = "raw"
    RELATIVE = "relative"

    @property
    def measures(self) -> tuple[Measure, ...]:
        """The measures of strength scored on this scale."""
        return RAW_MEASURES if self is Scale.RAW else RELATIVE_MEASURES

    def require_measure(self, measure: Measure) -> None:
        """Raise OutOfRange unless this scale scores the measure."""
        if measure not in self.measures:
            raise OutOfRange(
                f"measure {measure.value} is not scored on the "
                f"{self.value} scale"
            )


class Measure(str, Enum):
    """Population quantities that can make one experiment 'stronger'."""

    MU_DM = "mu_dm"            # mean difference, larger magnitude is stronger
    SIGMA_D = "sigma_d"        # data noise, smaller is stronger
    DF_D = "df_d"              # pooled degrees of freedom, larger is stronger
    ALPHA_DM = "alpha_dm"      # decision tail mass, larger is stronger
    R_MU_DM = "r_mu_dm"        # relative mean difference
    R_SIGMA_D = "r_sigma_d"    # relative data noise

    @property
    def is_relative(self) -> bool:
        return self in (Measure.R_MU_DM, Measure.R_SIGMA_D)


RAW_MEASURES: tuple[Measure, ...] = (
    Measure.MU_DM,
    Measure.SIGMA_D,
    Measure.DF_D,
    Measure.ALPHA_DM,
)

RELATIVE_MEASURES: tuple[Measure, ...] = (
    Measure.R_MU_DM,
    Measure.R_SIGMA_D,
    Measure.DF_D,
    Measure.ALPHA_DM,
)


class Winner(str, Enum):
    EXP1 = "exp1"
    EXP2 = "exp2"


class SignRegime(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    @property
    def sign(self) -> int:
        return 1 if self is SignRegime.POSITIVE else -1


class Designation(str, Enum):
    """Outcome of the practical-significance reading of a study."""

    PRACTICALLY_SIGNIFICANT = "practically_significant"
    NOT_PRACTICALLY_SIGNIFICANT = "not_practically_significant"
    NO_POSTERIOR_SIGNIFICANCE = "no_posterior_significance"


# ---------------------------------------------------------------------------
# core data types


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise OutOfRange(f"{name} must be finite, got {value!r}")
    return value


def _require_tail_mass(name: str, value: float) -> None:
    """Raise OutOfRange unless a two-sided tail mass lies in (0, 0.5)."""
    if not 0.0 < value < 0.5:
        raise OutOfRange(f"{name} must lie in (0, 0.5), got {value}")


@dataclass(frozen=True)
class GroupSummary:
    """Sufficient statistics for one group: sample mean, sd (ddof=1), size."""

    mean: float
    sd: float
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _require_finite("mean", self.mean))
        object.__setattr__(self, "sd", _require_finite("sd", self.sd))
        if self.sd < 0:
            raise OutOfRange(f"sd must be nonnegative, got {self.sd}")
        size = self.size
        if int(size) != size:
            raise OutOfRange(f"size must be an integer, got {size!r}")
        object.__setattr__(self, "size", int(size))
        if self.size < 2:
            raise OutOfRange(f"size must be at least 2, got {self.size}")

    @property
    def variance(self) -> float:
        return self.sd ** 2


@dataclass(frozen=True)
class StudyRecord:
    """One published comparison: two summarised groups plus metadata."""

    control: GroupSummary
    experiment: GroupSummary
    alpha_dm: float
    units: str = ""
    label_control: str = "control"
    label_experiment: str = "experiment"
    source_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "alpha_dm", _require_finite("alpha_dm", self.alpha_dm)
        )
        _require_tail_mass("alpha_dm", self.alpha_dm)

    @property
    def mean_difference(self) -> float:
        return self.experiment.mean - self.control.mean


def _as_sample_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise OutOfRange(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise SequenceTooShort(
            f"{name} needs at least 2 observations, got {arr.size}"
        )
    if not np.all(np.isfinite(arr)):
        raise OutOfRange(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class RawSamples:
    """Individual observations for the two groups (x control, y experiment)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_sample_vector("x", self.x))
        object.__setattr__(self, "y", _as_sample_vector("y", self.y))


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """Monte Carlo draws from the two mean posteriors and derived sequences.

    ``diff[i]`` is exactly ``mu_y[i] - mu_x[i]``. ``rel_diff`` is
    ``diff / mu_x`` when the control posterior is safely positive and None
    when it was withheld; ``nonpositive_fraction`` records how much
    control-mean mass sat at or below zero either way.
    """

    mu_x: np.ndarray
    mu_y: np.ndarray
    diff: np.ndarray
    rel_diff: np.ndarray | None
    k: int
    seed: int
    nonpositive_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise OutOfRange(f"k must be positive, got {self.k}")
        for name in ("mu_x", "mu_y", "diff"):
            arr = getattr(self, name)
            if arr.shape != (self.k,):
                raise OutOfRange(
                    f"{name} must have shape ({self.k},), got {arr.shape}"
                )
        if self.rel_diff is not None and self.rel_diff.shape != (self.k,):
            raise OutOfRange(
                f"rel_diff must have shape ({self.k},), got {self.rel_diff.shape}"
            )

    @cached_property
    def sorted_diff(self) -> np.ndarray:
        """``diff`` in ascending order, sorted once on first use."""
        return np.sort(self.diff)

    @cached_property
    def sorted_rel_diff(self) -> np.ndarray | None:
        """``rel_diff`` in ascending order (None when withheld), sorted once
        on first use."""
        if self.rel_diff is None:
            return None
        return np.sort(self.rel_diff)


@dataclass(frozen=True)
class CredibleBounds:
    """An equal-tailed credible interval on a stated scale."""

    lo: float
    hi: float
    tail_mass: float
    scale: Scale

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _require_finite("lo", self.lo))
        object.__setattr__(self, "hi", _require_finite("hi", self.hi))
        object.__setattr__(
            self, "tail_mass", _require_finite("tail_mass", self.tail_mass)
        )
        if self.lo > self.hi:
            raise OutOfRange(f"lo must not exceed hi, got ({self.lo}, {self.hi})")
        _require_tail_mass("tail_mass", self.tail_mass)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class NullRegion:
    """Practical-equivalence region around zero on a stated scale."""

    neg_threshold: float
    pos_threshold: float
    scale: Scale

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "neg_threshold",
            _require_finite("neg_threshold", self.neg_threshold),
        )
        object.__setattr__(
            self,
            "pos_threshold",
            _require_finite("pos_threshold", self.pos_threshold),
        )
        if not self.neg_threshold < 0.0 < self.pos_threshold:
            raise OutOfRange(
                "null region must straddle zero, got "
                f"({self.neg_threshold}, {self.pos_threshold})"
            )

    @property
    def width(self) -> float:
        return self.pos_threshold - self.neg_threshold


@dataclass(frozen=True)
class EffectStrengthResult:
    """Least and most plausible effect magnitudes for one study.

    Raw-scale values are always present. Relative values are None when the
    control posterior was not safely positive.
    """

    delta_l: float
    delta_m: float
    bounds_raw: CredibleBounds
    sign_ref_raw: float
    r_delta_l: float | None = None
    r_delta_m: float | None = None
    bounds_rel: CredibleBounds | None = None
    sign_ref_rel: float | None = None


@dataclass(frozen=True)
class CandidateStatistics:
    """A bundle of rival decision statistics for one dataset.

    Statistics that were not requested are None. Relative entries
    (``r_*``) are also None when relative draws were withheld; ``bf`` and
    ``p_sg`` are additionally None when they were requested on a relative
    null region without usable relative draws.
    """

    xbar_dm: float | None
    r_xbar_dm: float | None
    s_dm: float | None
    rs_dm: float | None
    bf: float | None
    p_n: float | None
    p_e: float | None
    p_sg: float | None
    cohen_d: float | None
    delta_m: float | None
    r_delta_m: float | None
    delta_l: float | None
    r_delta_l: float | None
    rnd: float | None

    def __post_init__(self) -> None:
        for name in ("p_n", "p_e", "p_sg"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise OutOfRange(f"{name} must lie in [0, 1], got {value}")
        if self.bf is not None and self.bf < 0.0:
            raise OutOfRange(f"bf must be nonnegative, got {self.bf}")
        for name in ("s_dm", "rs_dm"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise OutOfRange(f"{name} must be nonnegative, got {value}")
        if self.rnd is not None and not 0.0 <= self.rnd < 1.0:
            raise OutOfRange(f"rnd must lie in [0, 1), got {self.rnd}")

    def value(self, candidate: str) -> float | None:
        if candidate not in CANDIDATES:
            raise OutOfRange(f"unknown candidate statistic {candidate!r}")
        return getattr(self, candidate)


# Column/field order of the candidate decision statistics, used everywhere a
# stable ordering matters (CSV columns, benchmark loops, Bonferroni counts).
CANDIDATES: tuple[str, ...] = tuple(f.name for f in fields(CandidateStatistics))


# ---------------------------------------------------------------------------
# simulation configuration types


@dataclass(frozen=True)
class PopulationConfig:
    """Ground-truth populations behind a simulated two-group experiment.

    Group data are normal: x ~ N(mu_x, sigma_x^2) with m observations and
    y ~ N(mu_y, sigma_y^2) with n. Zero sigmas are allowed and produce
    constant samples.
    """

    mu_x: float
    mu_y: float
    sigma_x: float
    sigma_y: float
    m: int
    n: int
    alpha_dm: float

    def __post_init__(self) -> None:
        for name in ("mu_x", "mu_y", "sigma_x", "sigma_y", "alpha_dm"):
            object.__setattr__(
                self, name, _require_finite(name, getattr(self, name))
            )
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise OutOfRange("sigmas must be nonnegative")
        if self.m < 2 or self.n < 2:
            raise OutOfRange(
                f"group sizes must be at least 2, got m={self.m}, n={self.n}"
            )
        _require_tail_mass("alpha_dm", self.alpha_dm)

    @property
    def mu_dm(self) -> float:
        return self.mu_y - self.mu_x

    @property
    def sigma_d(self) -> float:
        return math.sqrt(self.sigma_x ** 2 + self.sigma_y ** 2)

    @property
    def df_d(self) -> int:
        return self.m + self.n - 2

    @property
    def sigma_dm(self) -> float:
        return math.sqrt(self.sigma_x ** 2 / self.m + self.sigma_y ** 2 / self.n)

    @property
    def r_mu_dm(self) -> float:
        return self.mu_dm / self.mu_x

    @property
    def r_sigma_d(self) -> float:
        return self.sigma_d / self.mu_x

    @property
    def r_sigma_dm(self) -> float:
        return self.sigma_dm / self.mu_x

    def measure_value(self, measure: Measure | str) -> float:
        """The value of a measure, read from the property named after it."""
        try:
            return float(getattr(self, Measure(measure).value))
        except ValueError:
            raise OutOfRange(f"unknown measure {measure!r}") from None


@dataclass(frozen=True)
class ComparisonPair:
    """Two population configs with known ground truth per measure.

    ``ground_truth`` maps each scored measure to the config that is
    stronger on it. ``t_ratio_1``/``t_ratio_2`` hold the mean sample
    t-ratio estimated from probe samples during generation; they document
    that both configs sit inside the intended sign regime.
    """

    exp1: PopulationConfig
    exp2: PopulationConfig
    ground_truth: Mapping[Measure, Winner]
    t_ratio_1: float = math.nan
    t_ratio_2: float = math.nan


# ---------------------------------------------------------------------------
# report types


class _ReportRows:
    """Row lookup shared by the report types, which hold their ``rows``."""

    def row(self, candidate: str, measure: str):
        for r in self.rows:
            if r.candidate == candidate and r.measure == measure:
                return r
        raise KeyError((candidate, measure))


@dataclass(frozen=True)
class RiskRow:
    """Decision-risk of one candidate statistic against one measure."""

    candidate: str
    measure: str
    mean_error: float
    p_value: float
    significant: bool
    n_trials: int

    def __post_init__(self) -> None:
        if self.n_trials > 0 and not 0.0 <= self.mean_error <= 1.0:
            raise OutOfRange(
                f"mean_error must lie in [0, 1], got {self.mean_error}"
            )


@dataclass(frozen=True)
class RiskReport(_ReportRows):
    rows: tuple[RiskRow, ...]
    scale: Scale
    regime: SignRegime
    independent: str
    n_pairs: int
    n_samples: int
    k_draws: int
    seed: int
    regenerations: int
    winner_fractions: Mapping[str, float]
    agreement_fractions: Mapping[str, float]
    ks_statistic: float


@dataclass(frozen=True)
class CorrelationRow:
    """Spearman correlation of one candidate with one strength ladder."""

    candidate: str
    measure: str
    rho: float
    ci_lo: float
    ci_hi: float
    significant: bool


@dataclass(frozen=True)
class CorrelationReport(_ReportRows):
    rows: tuple[CorrelationRow, ...]
    scale: Scale
    n_configs: int
    n_samples: int
    k_draws: int
    seed: int


# ---------------------------------------------------------------------------
# input helpers


def summarize(samples: RawSamples) -> tuple[GroupSummary, GroupSummary]:
    """Reduce raw observations to their (control, experiment) sufficient
    statistics, with the sample sd (ddof=1)."""
    return _summarize_one(samples.x), _summarize_one(samples.y)


def _summarize_one(arr: np.ndarray) -> GroupSummary:
    return GroupSummary(
        mean=float(np.mean(arr)),
        sd=float(np.std(arr, ddof=1)),
        size=int(arr.size),
    )


_ALPHA_RE = re.compile(
    r"\A\s*(\d+\.?\d*|\.\d+)\s*(?:/\s*(\d+)\s*)?\Z", re.ASCII
)


def parse_alpha(text: str) -> float:
    """Parse a tail mass written as a decimal or decimal/<positive integer>.

    Accepts forms like "0.05" and "0.05/6" (a Bonferroni-style division).
    The resulting value must lie strictly inside (0, 0.5).
    """
    match = _ALPHA_RE.match(text)
    if match is None:
        raise ParseError(
            f"cannot parse alpha {text!r}: expected <decimal> or "
            "<decimal>/<positive integer>"
        )
    # a float divisor is exact up to 2**53 and turns an overlong one into
    # inf, so the value falls out of range instead of overflowing
    divisor = float(match.group(2) or 1)
    if divisor < 1:
        raise ParseError(
            f"cannot parse alpha {text!r}: divisor must be a positive integer"
        )
    value = float(match.group(1)) / divisor
    try:
        _require_tail_mass("alpha", value)
    except OutOfRange as exc:
        raise OutOfRange(f"{exc} from {text!r}") from None
    return value
