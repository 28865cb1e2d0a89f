"""Read-threshold selection for cell-level blocks.

A block of n cells is read against a threshold v: cell i gives 1 iff its
level is >= v.  The balancing threshold picks v so the read word has weight
n/2; relaxed variants trade exactness for speed; the optimal threshold is a
simulation-only genie that knows the stored word.

Exact balancing needs only the two levels around the median, so it finds
them by selection (`np.partition`), not a sort; only when they tie does it
sort the levels and scan their cuts.  The realizable cuts of a block (below
the minimum, between each pair of distinct consecutive sorted levels, above
the maximum) are found by their positions j, the number of cells read 0, in
one array scan, `_positions`.  The genie picks the first position with the
fewest errors and the tie fallback of exact balancing the first one closest
to weight n/2, each by one `argmin`: positions ascend with the threshold, so
that is the lowest threshold.  Only the picked cut's threshold is computed,
by `_cut_value`, on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import as_levels
from .words import as_bits


@dataclass(frozen=True)
class ErrorCounts:
    """Read errors split by direction: n10 counts stored 1 read as 0."""

    n10: int
    n01: int

    @property
    def total(self) -> int:
        return self.n10 + self.n01


@dataclass(frozen=True)
class BalancingThreshold:
    """Threshold value plus whether it achieves an exactly balanced read."""

    value: float
    exact: bool


def read_with_threshold(c, v: float) -> np.ndarray:
    """Read a block as uint8 bits: bit i is 1 iff levels[i] >= v (v may be
    infinite, not NaN)."""
    levels = as_levels(c)
    if math.isnan(v):
        raise ValueError(f"threshold v must not be NaN, got {v}")
    return (levels >= v).astype(np.uint8)


def error_counts(x, y) -> ErrorCounts:
    xa = as_bits(x)
    ya = as_bits(y)
    if xa.size != ya.size:
        raise ValueError(f"length mismatch: {xa.size} vs {ya.size}")
    n10 = int(np.count_nonzero(xa > ya))
    n01 = int(np.count_nonzero(xa < ya))
    return ErrorCounts(n10=n10, n01=n01)


def balancing_threshold_exact(c) -> BalancingThreshold:
    """Cut between the n/2 largest levels and the rest.

    Ties straddling the median boundary make exact balance impossible; in that
    case the returned threshold minimizes |weight - n/2| and exact is False.
    """
    levels = as_levels(c, min_size=1)
    n = levels.size
    if n % 2:
        raise ValueError("exact balancing requires an even number of cells")
    k = n // 2
    # part[k] is the level at sorted position k; part[:k] holds the k levels
    # below it, in no order
    part = np.partition(levels, k)
    lower, upper = float(part[:k].max()), float(part[k])
    if lower < upper:
        return BalancingThreshold(value=_between(lower, upper), exact=True)
    asc = np.sort(levels)
    j = _positions(asc)
    # a cut at position j has weight n - j, so its gap to k is |k - j|
    return BalancingThreshold(value=_cut_value(asc, int(j[np.argmin(np.abs(k - j))])),
                              exact=False)


def _positions(asc: np.ndarray) -> np.ndarray:
    """Positions of the realizable cuts of the ascending levels, ascending:
    0, each j with asc[j - 1] < asc[j], and n.  At position j the j smallest
    cells read 0, so the read weight is n - j."""
    return np.concatenate(([0], np.flatnonzero(asc[:-1] < asc[1:]) + 1, [asc.size]))


def _cut_value(asc: np.ndarray, j: int) -> float:
    """The threshold of the cut at position j of the ascending levels."""
    if j == 0:
        # a cut at the minimum still reads every cell as 1: no guard needed
        return float(asc[0]) - 1.0
    if j == asc.size:
        # + 1.0 rounds onto the maximum once levels reach ~2**53
        top = float(asc[-1])
        return max(top + 1.0, math.nextafter(top, math.inf))
    return _between(float(asc[j - 1]), float(asc[j]))


def _between(lower: float, upper: float) -> float:
    """The threshold of the cut between two levels, lower < upper."""
    # Python floats are IEEE doubles: the sum overflows to inf silently
    mid = 0.5 * (lower + upper)
    # upper where the midpoint overflows or rounds onto lower (adjacent
    # floats); a read at upper still puts lower below the cut
    return mid if math.isfinite(mid) and mid > lower else upper


def balancing_threshold_bisect(c, lo: float, hi: float, eps: float) -> float:
    """Half-interval search: probe the midpoint, count ones, and shrink the
    interval toward weight n/2; stops on exact balance, on width <= eps, or
    once the midpoint rounds onto lo or hi, and returns the midpoint."""
    levels = as_levels(c, min_size=1)
    for name, value in (("lo", lo), ("hi", hi), ("eps", eps)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if eps <= 0:
        raise ValueError("need eps > 0")
    target = levels.size / 2.0
    while True:
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
        # a midpoint that rounds onto an end can no longer shrink the interval
        if not (hi - lo > eps and lo < mid < hi):
            return mid
        k = int(np.sum(levels >= mid))
        if k == target:
            return mid
        if k < target:
            hi = mid  # too few ones: threshold too high
        else:
            lo = mid


def relaxed_threshold_mean(c) -> float:
    """First-order relaxed threshold: the mean cell level."""
    return float(np.mean(as_levels(c, min_size=1)))


def relaxed_threshold_second_order(c, a: float = 0.0) -> float:
    """mean(c) + a * (1/2 - mean(c))**2 with a model-dependent constant a."""
    if not np.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    mu = relaxed_threshold_mean(c)
    return mu + a * (0.5 - mu) ** 2


def optimal_threshold_oracle(c, x) -> tuple[float, ErrorCounts]:
    """Genie threshold minimizing total errors given the true stored word,
    over every realizable cut; ties go to the lowest threshold."""
    levels = as_levels(c, min_size=1)
    bits = as_bits(x)
    if bits.size != levels.size:
        raise ValueError("stored word and levels must have equal length")
    n = levels.size
    # The order within tied levels is arbitrary: ones_below is read only at
    # cuts between distinct levels, and no cut's value depends on it.
    order = np.argsort(levels)
    asc = levels[order]
    ones_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bits[order], out=ones_below[1:])
    j = _positions(asc)
    # the error count at cut j is 2 * ones_below[j] - j + (n - total ones)
    best = int(j[np.argmin(2 * ones_below[j] - j)])
    n10 = int(ones_below[best])
    n01 = (n - best) - (int(ones_below[n]) - n10)
    return _cut_value(asc, best), ErrorCounts(n10=n10, n01=n01)
