"""Monte Carlo engine for the two-group mean posteriors.

Under a noninformative prior, each group mean has a location-scale
Student-t posterior: size-1 degrees of freedom, located at the sample
mean, scaled by sd/sqrt(size). The two groups are sampled from separate
substreams so the control stream is identical whatever happens on the
experiment side, and vice versa.

The difference sequence is formed draw-by-draw (diff[i] = mu_y[i] -
mu_x[i]), and the relative difference divides the same pairs by the
control draw. Relative draws only make sense when the control mean is
safely positive: if more than NONPOSITIVE_TOLERANCE of the control draws
fall at or below zero, the relative sequence is withheld entirely.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .model import (
    CredibleBounds,
    DegenerateScaleWarning,
    GroupSummary,
    InsufficientDraws,
    NonpositiveControl,
    NonpositiveControlWarning,
    OutOfRange,
    PosteriorDraws,
    Scale,
    _require_tail_mass,
)
from .rng import substream

__all__ = [
    "MIN_DRAWS",
    "NONPOSITIVE_TOLERANCE",
    "sample_posterior",
    "require_relative",
    "credible_bounds",
    "credible_bounds_sorted",
]

MIN_DRAWS = 1000

# Fraction of nonpositive control-mean draws above which relative
# quantities are withheld instead of merely flagged.
NONPOSITIVE_TOLERANCE = 1e-3


def _mean_marginal(rng: np.random.Generator, group: GroupSummary, k: int):
    if group.sd == 0.0:
        warnings.warn(
            "group has zero sample sd; its mean posterior is a point mass",
            DegenerateScaleWarning,
            stacklevel=3,
        )
        return np.full(k, group.mean, dtype=np.float64)
    scale = group.sd / math.sqrt(group.size)
    return group.mean + scale * rng.standard_t(group.size - 1, size=k)


def sample_posterior(study, k: int = 10000, seed: int = 0) -> PosteriorDraws:
    """Draw k Monte Carlo samples of both group means and their difference.

    `study` is a StudyRecord. The control and experiment streams are
    independent substreams of `seed`, so either margin is reproducible on
    its own.
    """
    if k < MIN_DRAWS:
        raise OutOfRange(f"k must be at least {MIN_DRAWS}, got {k}")
    k = int(k)
    seed = int(seed)

    mu_x = _mean_marginal(substream(seed, "mu_x"), study.control, k)
    mu_y = _mean_marginal(substream(seed, "mu_y"), study.experiment, k)
    diff = mu_y - mu_x

    n_nonpositive = int(np.count_nonzero(mu_x <= 0.0))
    fraction = n_nonpositive / k
    rel_diff = None
    if n_nonpositive == 0:
        rel_diff = diff / mu_x
    elif fraction <= NONPOSITIVE_TOLERANCE and not np.any(mu_x == 0.0):
        warnings.warn(
            "a small fraction of control-mean draws are nonpositive; "
            "relative draws are kept but heavy-tailed",
            NonpositiveControlWarning,
            stacklevel=2,
        )
        rel_diff = diff / mu_x
    else:
        warnings.warn(
            "control-mean posterior is not safely positive; "
            "relative draws withheld",
            NonpositiveControlWarning,
            stacklevel=2,
        )

    return PosteriorDraws(
        mu_x=mu_x,
        mu_y=mu_y,
        diff=diff,
        rel_diff=rel_diff,
        k=k,
        seed=seed,
        nonpositive_fraction=fraction,
    )


def require_relative(draws: PosteriorDraws) -> np.ndarray:
    """Return the relative-difference draws or raise NonpositiveControl."""
    if draws.rel_diff is None:
        raise NonpositiveControl(
            "relative quantities unavailable: "
            f"{draws.nonpositive_fraction:.2%} of control-mean draws are "
            "at or below zero"
        )
    return draws.rel_diff


def _quantile_sorted(sorted_arr: np.ndarray, q: float) -> float:
    """Quantile by linear interpolation between order statistics.

    With K sorted draws, quantile q sits at fractional position q*(K-1)
    (0-indexed); the value is interpolated linearly between the two
    bracketing order statistics.
    """
    pos = q * (sorted_arr.size - 1)
    idx = int(pos)
    if idx >= sorted_arr.size - 1:
        return float(sorted_arr[-1])
    frac = pos - idx
    lo = float(sorted_arr[idx])
    return lo + frac * (float(sorted_arr[idx + 1]) - lo)


def credible_bounds(
    draws, tail_mass: float, scale: Scale = Scale.RAW
) -> CredibleBounds:
    """Equal-tailed credible interval of the draws at the given tail mass.

    Requires at least ceil(2 / tail_mass) draws so each tail is resolved
    by a couple of order statistics rather than pure extrapolation.
    """
    return credible_bounds_sorted(
        np.sort(np.asarray(draws, dtype=float)), tail_mass, scale
    )


def credible_bounds_sorted(
    sorted_draws: np.ndarray, tail_mass: float, scale: Scale = Scale.RAW
) -> CredibleBounds:
    """``credible_bounds`` of draws already in ascending order."""
    _require_tail_mass("tail_mass", tail_mass)
    needed = math.ceil(2.0 / tail_mass)
    if sorted_draws.size < needed:
        raise InsufficientDraws(
            f"need at least {needed} draws for tail mass {tail_mass}, "
            f"got {sorted_draws.size}"
        )
    return CredibleBounds(
        lo=_quantile_sorted(sorted_draws, tail_mass),
        hi=_quantile_sorted(sorted_draws, 1.0 - tail_mass),
        tail_mass=tail_mass,
        scale=scale,
    )
