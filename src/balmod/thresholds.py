"""Read-threshold selection for cell-level blocks.

A block of n cells is read against a threshold v: cell i gives 1 iff its
level is >= v.  The balancing threshold picks v so the read word has weight
n/2; relaxed variants trade exactness for speed; the optimal threshold is a
simulation-only genie that knows the stored word.

The realizable cuts of a block (below the minimum, between each pair of
distinct consecutive sorted levels, above the maximum) come from one array
scan, `_cuts`.  The genie takes the first cut with the fewest errors and the
tie fallback of exact balancing the first cut closest to weight n/2, each by
one `argmin` over that scan; cuts are in ascending threshold order, so the
first minimum is the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import BitWord


def _as_levels(c) -> np.ndarray:
    levels = np.asarray(c, dtype=np.float64)
    if levels.ndim != 1:
        raise ValueError("cell levels must be one-dimensional")
    if not np.all(np.isfinite(levels)):
        raise ValueError("cell levels must be finite")
    return levels


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


def read_with_threshold(c, v: float) -> BitWord:
    """Read a block: bit i is 1 iff levels[i] >= v."""
    levels = _as_levels(c)
    return BitWord.from_array((levels >= v).astype(np.uint8))


def error_counts(x: BitWord, y: BitWord) -> ErrorCounts:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    xa = x.to_array()
    ya = y.to_array()
    n10 = int(np.sum((xa == 1) & (ya == 0)))
    n01 = int(np.sum((xa == 0) & (ya == 1)))
    return ErrorCounts(n10=n10, n01=n01)


def balancing_threshold_exact(c) -> BalancingThreshold:
    """Sort the levels and cut between the n/2 largest and the rest.

    Ties straddling the median boundary make exact balance impossible; in that
    case the returned threshold minimizes |weight - n/2| and exact is False.
    """
    levels = _as_levels(c)
    n = levels.size
    if n % 2:
        raise ValueError("exact balancing requires an even number of cells")
    if n == 0:
        raise ValueError("need at least one cell")
    k = n // 2
    asc = np.sort(levels)
    if asc[k - 1] < asc[k]:
        return BalancingThreshold(value=float(_midpoint(asc[k - 1], asc[k])), exact=True)
    values, j = _cuts(asc)
    # a cut at position j has weight n - j, so its gap to k is |k - j|
    return BalancingThreshold(value=float(values[np.argmin(np.abs(k - j))]),
                              exact=False)


def _midpoint(lower, upper):
    """The threshold of the cut between ascending levels lower < upper (or
    arrays of them): their midpoint, or upper where the midpoint is not
    finite (overflow) or rounds onto lower (adjacent floats); a read at upper
    still puts lower below the cut."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (lower + upper)
    return np.where(np.isfinite(mid) & (mid > lower), mid, upper)


def _cuts(asc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All realizable cuts of the ascending levels, in ascending threshold
    order: the threshold of each and its position j (the j smallest cells
    read 0, so the read weight is n - j)."""
    n = asc.size
    j = np.flatnonzero(asc[:-1] < asc[1:]) + 1
    # + 1.0 rounds onto the maximum once levels reach ~2**53; a cut at the
    # minimum still reads every cell as 1, so the lower sentinel needs no guard
    top = max(asc[-1] + 1.0, np.nextafter(asc[-1], np.inf))
    values = np.concatenate(([asc[0] - 1.0], _midpoint(asc[j - 1], asc[j]), [top]))
    return values, np.concatenate(([0], j, [n]))


def balancing_threshold_bisect(c, lo: float, hi: float, eps: float) -> float:
    """Half-interval search: probe the midpoint, count ones, and shrink the
    interval toward weight n/2; stops on exact balance or width <= eps."""
    levels = _as_levels(c)
    for name, value in (("lo", lo), ("hi", hi), ("eps", eps)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if eps <= 0:
        raise ValueError("need eps > 0")
    target = levels.size / 2.0
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        k = int(np.sum(levels >= mid))
        if k == target:
            return mid
        if k < target:
            hi = mid  # too few ones: threshold too high
        else:
            lo = mid
    return 0.5 * (lo + hi)


def relaxed_threshold_mean(c) -> float:
    """First-order relaxed threshold: the mean cell level."""
    levels = _as_levels(c)
    if levels.size < 1:
        raise ValueError("need at least one cell")
    return float(np.mean(levels))


def relaxed_threshold_second_order(c, a: float = 0.0) -> float:
    """mean(c) + a * (1/2 - mean(c))**2 with a model-dependent constant a."""
    mu = relaxed_threshold_mean(c)
    return mu + a * (0.5 - mu) ** 2


def optimal_threshold_oracle(c, x: BitWord) -> tuple[float, ErrorCounts]:
    """Genie threshold minimizing total errors given the true stored word.

    Scans the n + 1 realizable cuts (midpoints between distinct consecutive
    sorted levels plus below-min / above-max sentinels).  Ties go to the
    smallest error count, then the lowest threshold.
    """
    levels = _as_levels(c)
    if len(x) != levels.size:
        raise ValueError("stored word and levels must have equal length")
    n = levels.size
    if n == 0:
        raise ValueError("need at least one cell")
    # The order within tied levels is arbitrary: ones_below is read only at
    # cuts between distinct levels.
    truth = x.to_array()[np.argsort(levels)]
    total_ones = int(truth.sum())
    # cut j: the j smallest cells read 0, the rest read 1
    ones_below = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(truth, out=ones_below[1:])
    values, j = _cuts(np.sort(levels))
    ne = 2 * ones_below[j] - j + (n - total_ones)
    best = int(np.argmin(ne))
    n10 = int(ones_below[j[best]])
    n01 = (n - int(j[best])) - (total_ones - n10)
    return float(values[best]), ErrorCounts(n10=n10, n01=n01)
