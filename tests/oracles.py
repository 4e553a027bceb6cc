"""Independent reference implementations used to pin expected values.

Everything here trades speed for transparency: plain loops, textbook
formulas spelled out digit by digit, and numerical integration or grid
counting instead of the closed forms the package uses. Test modules
compare the package against these, never the other way around.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats


# --- empirical quantiles ----------------------------------------------------


def quantile_linear(values, q: float) -> float:
    """Quantile by linear interpolation at position q*(len-1).

    Pure-Python restatement of the interpolation rule: sort, locate the
    fractional 0-indexed position, blend the two neighbouring order
    statistics.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("empty sample")
    pos = q * (len(data) - 1)
    idx = int(math.floor(pos))
    if idx >= len(data) - 1:
        return data[-1]
    frac = pos - idx
    return data[idx] * (1.0 - frac) + data[idx + 1] * frac


# --- Student-t tail by quadrature -------------------------------------------


def t_pdf(x: float, df: float) -> float:
    """Student-t density written out from the textbook formula."""
    lognorm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(lognorm - ((df + 1.0) / 2.0) * math.log1p(x * x / df))


def t_sf(x: float, df: float) -> float:
    """P(T > x) by adaptive quadrature over the density above."""
    if x < 0.0:
        return 1.0 - t_sf(-x, df)
    tail, _ = integrate.quad(t_pdf, x, math.inf, args=(df,), limit=200)
    return tail


def welch_parts(control, experiment):
    """(difference, standard error, Satterthwaite df) from two
    (mean, sd, size) triples."""
    xbar, sx, m = control
    ybar, sy, n = experiment
    vx = sx * sx / m
    vy = sy * sy / n
    se = math.sqrt(vx + vy)
    df = (vx + vy) ** 2 / (vx * vx / (m - 1) + vy * vy / (n - 1))
    return ybar - xbar, se, df


def welch_p_oracle(control, experiment) -> float:
    """Two-sided Welch test p-value via the quadrature tail."""
    d, se, df = welch_parts(control, experiment)
    return 2.0 * t_sf(abs(d) / se, df)


def tost_p_oracle(control, experiment, neg: float, pos: float) -> float:
    """Two one-sided tests against the margins; the larger p wins.

    Lower test: H is mean difference <= neg, rejected for large
    (d - neg)/se, so p = P(T >= observed). Upper test mirrors it.
    """
    d, se, df = welch_parts(control, experiment)
    p_lower = t_sf((d - neg) / se, df)
    p_upper = 1.0 - t_sf((d - pos) / se, df)
    return max(p_lower, p_upper)


def cohens_d_oracle(control, experiment) -> float:
    """Pooled-sd standardised difference, hand arithmetic."""
    xbar, sx, m = control
    ybar, sy, n = experiment
    pooled = ((m - 1) * sx * sx + (n - 1) * sy * sy) / (m + n - 2)
    return (ybar - xbar) / math.sqrt(pooled)


# --- interval overlap by grid counting --------------------------------------


def sgpv_oracle(interval_lo: float, interval_hi: float,
                neg: float, pos: float) -> float:
    """Overlap fraction of [lo, hi] with [neg, pos] counted on a midpoint
    grid, times the small-interval correction, clamped to [0, 1].

    Counting error is about 2/grid per edge; the grid widens when the
    correction factor would amplify it.
    """
    width = interval_hi - interval_lo
    if width == 0.0:
        return 1.0 if neg <= interval_lo <= pos else 0.0
    factor = max(width / (2.0 * (pos - neg)), 1.0)
    grid = 4_000_000 if factor <= 1.0 else 20_000_000
    step = width / grid
    mids = interval_lo + (np.arange(grid) + 0.5) * step
    overlap = np.count_nonzero((mids >= neg) & (mids <= pos)) / grid
    return min(max(overlap * factor, 0.0), 1.0)


# --- draws inside a closed region --------------------------------------------


def count_inside(values, lo: float, hi: float) -> int:
    """Number of draws in the closed interval [lo, hi], by comparing every
    draw in its given (unsorted) order."""
    arr = np.asarray(values, dtype=float)
    return int(np.count_nonzero((arr >= lo) & (arr <= hi)))


# --- symmetric coverage radius by linear scan --------------------------------


def coverage_count(draws, c: float) -> int:
    """Number of draws inside (-c, c]."""
    arr = np.asarray(draws, dtype=float)
    return int(np.count_nonzero((arr > -c) & (arr <= c)))


def most_difference_scan(draws, alpha: float) -> float:
    """Smallest c >= 0 putting at least 1 - alpha of the draws in (-c, c],
    found by walking every draw magnitude in ascending order.

    The interval is open at -c, so when the binding draw sits at -c the
    minimiser is the next representable float above that magnitude.
    O(K^2); keep the draw sets small.
    """
    arr = np.asarray(draws, dtype=float)
    k = arr.size
    target = (1.0 - alpha) * k
    for mag in np.unique(np.abs(arr)):
        if coverage_count(arr, float(mag)) >= target:
            return float(mag)
        nudged = float(np.nextafter(mag, np.inf))
        if coverage_count(arr, nudged) >= target:
            return nudged
    return float(np.max(np.abs(arr)))


def _coverage_fraction(sorted_arr, c: float) -> float:
    """Fraction of the sorted draws in (-c, c]."""
    hi = np.searchsorted(sorted_arr, c, side="right")
    lo = np.searchsorted(sorted_arr, -c, side="right")
    return (int(hi) - int(lo)) / sorted_arr.size


def most_difference_bisect(sorted_draws, alpha: float) -> float:
    """Smallest c >= 0 with at least 1 - alpha of the sorted draws in
    (-c, c], by binary search on the unique draw magnitudes.

    Coverage only steps up where a magnitude enters the interval, so the
    minimiser is a magnitude or the float just above one (when the draw
    at -c is cut by the open lower edge). Coverage is compared as a
    fraction, count / K >= 1 - alpha, in the arithmetic the package uses.
    """
    sorted_arr = np.asarray(sorted_draws, dtype=float)
    target = 1.0 - alpha
    magnitudes = np.unique(np.abs(sorted_arr))
    lo_i, hi_i = 0, magnitudes.size - 1
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        just_above = np.nextafter(magnitudes[mid], np.inf)
        if _coverage_fraction(sorted_arr, just_above) >= target:
            hi_i = mid
        else:
            lo_i = mid + 1
    c = float(magnitudes[lo_i])
    if _coverage_fraction(sorted_arr, c) >= target:
        return c
    return float(np.nextafter(c, np.inf))


# --- exact binomial band ------------------------------------------------------


def binom_central_band(n: int, level: float = 0.99):
    """Equal-tailed binomial(n, 1/2) interval as count fractions.

    Each endpoint is the smallest k whose exact cumulative probability
    (math.comb, fsum) reaches its tail quantile.
    """
    tail = (1.0 - level) / 2.0
    probs = [math.comb(n, k) * 0.5 ** n for k in range(n + 1)]
    lo = hi = None
    for k in range(n + 1):
        cum = math.fsum(probs[: k + 1])
        if lo is None and cum >= tail:
            lo = k
        if hi is None and cum >= 1.0 - tail:
            hi = k
            break
    return lo / n, hi / n


def quantile_rank_interval(sorted_draws, q: float, level: float = 0.99,
                           comparisons: int = 1):
    """Distribution-free interval for the q-quantile from sorted draws.

    For n continuous draws, the count B of draws at or below the true
    q-quantile is binomial(n, q), so the order statistics of ranks l and
    u (1-based) bracket it unless B < l or B >= u. Each of those two
    tails is held to (1 - level) / (2 * comparisons), which makes the
    interval a Bonferroni family at ``level`` over ``comparisons``
    intervals. The ranks come from scipy.stats.binom, which stays exact
    at sizes where the product-of-powers band above underflows. A rank
    off either end gives an infinite endpoint.
    """
    n = len(sorted_draws)
    tail = (1.0 - level) / (2.0 * comparisons)
    lo_rank = int(stats.binom.ppf(tail, n, q))       # P(B < lo_rank) < tail
    hi_rank = int(stats.binom.isf(tail, n, q)) + 1   # P(B >= hi_rank) <= tail
    lo = float(sorted_draws[lo_rank - 1]) if lo_rank >= 1 else -math.inf
    hi = float(sorted_draws[hi_rank - 1]) if hi_rank <= n else math.inf
    return lo, hi


# --- Spearman rho -------------------------------------------------------------


def rank_average(values):
    """Average ranks (1-based), ties shared, plain loops."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = shared
        i = j + 1
    return ranks


def spearman_oracle(xs, ys) -> float:
    """Pearson correlation of average ranks."""
    rx = rank_average(xs)
    ry = rank_average(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


# --- test data helpers ---------------------------------------------------------


def exact_moment_samples(mean: float, sd: float, size: int, rng) -> np.ndarray:
    """A sample vector whose sample mean and sd (ddof=1) are exact.

    Standardises a normal draw and rescales, so summary-based and
    raw-sample code paths can be compared on identical moments.
    """
    base = rng.standard_normal(size)
    base = (base - base.mean()) / base.std(ddof=1)
    return mean + sd * base
