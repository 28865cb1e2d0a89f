"""Reference semantics of the cut scans in `balmod.thresholds`, kept as the
tests' oracle.

These are loop versions that walk the realizable cuts one at a time, in
ascending threshold order, through the generator `_cut_candidates`: the genie
threshold keeps the first cut with the fewest errors, and the tie fallback of
exact balancing keeps the first cut with the smallest |weight - n/2|.  Nothing
here is fast.  `balmod.thresholds` must return equal results: the same float
(sign bit included), the same `ErrorCounts` and the same `exact` flag.
"""

import numpy as np

from balmod.thresholds import BalancingThreshold, ErrorCounts, _as_levels
from balmod.words import BitWord


def balancing_threshold_exact(c) -> BalancingThreshold:
    """Sort the levels and cut between the n/2 largest and the rest.

    Ties straddling the median boundary make exact balance impossible; in that
    case the returned threshold minimizes |weight - n/2| and exact is False.
    """
    levels = _as_levels(c)
    n = levels.size
    if n % 2:
        raise ValueError("exact balancing requires an even number of cells")
    k = n // 2
    desc = np.sort(levels)[::-1]
    v = 0.5 * (desc[k - 1] + desc[k])
    if int(np.sum(levels >= v)) == k:
        return BalancingThreshold(value=float(v), exact=True)
    # Midpoint failed: either tied values straddle the boundary, or the two
    # neighbors are adjacent floats and the midpoint rounded onto one of them.
    if desc[k - 1] > desc[k]:
        return BalancingThreshold(value=float(desc[k - 1]), exact=True)
    best_v, best_gap = None, None
    for v_cand, wt in _cut_candidates(levels):
        gap = abs(wt - k)
        if best_gap is None or gap < best_gap:
            best_v, best_gap = v_cand, gap
    return BalancingThreshold(value=float(best_v), exact=False)


def _cut_candidates(levels: np.ndarray):
    """All realizable (threshold, weight) cuts in ascending threshold order."""
    asc = np.sort(levels)
    n = asc.size
    yield float(asc[0] - 1.0), n
    for j in range(1, n):
        if asc[j - 1] < asc[j]:
            v = 0.5 * (asc[j - 1] + asc[j])
            if v <= asc[j - 1]:
                v = asc[j]  # adjacent floats: the upper value realizes the cut
            yield float(v), n - j
    yield float(max(asc[-1] + 1.0, np.nextafter(asc[-1], np.inf))), 0


def optimal_threshold_oracle(c, x: BitWord) -> tuple[float, ErrorCounts]:
    """Genie threshold minimizing total errors given the true stored word.

    Scans the n + 1 realizable cuts (midpoints between distinct consecutive
    sorted levels plus below-min / above-max sentinels).  Ties go to the
    smallest error count, then the lowest threshold.
    """
    levels = _as_levels(c)
    if len(x) != levels.size:
        raise ValueError("stored word and levels must have equal length")
    order = np.argsort(levels, kind="stable")
    truth = x.to_array()[order]
    n = levels.size
    total_ones = int(truth.sum())
    # cut j: the j smallest cells read 0, the rest read 1
    ones_below = np.concatenate(([0], np.cumsum(truth)))
    ne_by_cut = 2 * ones_below - np.arange(n + 1) + (n - total_ones)

    best_v, best_counts = None, None
    cut_iter = _cut_candidates(levels)
    for v_cand, wt in cut_iter:
        j = n - wt
        ne = int(ne_by_cut[j])
        if best_counts is None or ne < best_counts.total:
            n10 = int(ones_below[j])
            n01 = (n - j) - (total_ones - n10)
            best_v, best_counts = v_cand, ErrorCounts(n10=n10, n01=int(n01))
    return best_v, best_counts
