import contextlib
import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threshold_oracle
from balmod import channel
from balmod.channel import make_rng
from balmod.thresholds import (_cut_value, balancing_threshold_bisect,
                               balancing_threshold_exact, error_counts,
                               optimal_threshold_oracle, read_with_threshold,
                               relaxed_threshold_mean,
                               relaxed_threshold_second_order)
from balmod.words import BitWord, weight

# levels on a coarse grid: distinct values stay far enough apart for the
# bisection's interval-width cutoff
distinct_levels = st.lists(
    st.integers(-2000, 3000).map(lambda k: k / 1000.0), min_size=2, max_size=24,
    unique=True).filter(lambda xs: len(xs) % 2 == 0)


# levels on a coarse grid with many ties, or distinct values with some
# entries duplicated; odd draws are padded with a copy of the first level
tied_levels = st.one_of(
    st.lists(st.integers(-3, 3).map(lambda k: k / 2.0), min_size=1, max_size=16),
    st.lists(st.integers(-2000, 3000).map(lambda k: k / 1000.0), min_size=1,
             max_size=10).map(lambda xs: xs + xs[:len(xs) // 2 + 1]),
).map(lambda xs: xs if len(xs) % 2 == 0 else xs + xs[:1])


def bw(s: str) -> BitWord:
    return BitWord.from_string(s)


def assert_same_float(got, want):
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@contextlib.contextmanager
def returns_within(seconds: int):
    """Fail a call that never returns instead of hanging the run."""
    def hang(signum, frame):
        raise TimeoutError("bisection did not return")
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def oracle_family(name: str, rng) -> np.ndarray:
    """One block of levels from a family the cut scans must handle."""
    n = 2 * int(rng.integers(1, 33))
    if name == "gaussian":
        return rng.normal(0.5, 0.2, n)
    if name == "grid4":
        return rng.integers(0, 4, n) / 3.0
    if name == "adjacent":
        base = rng.normal(0.0, 1.0, n // 2)
        pairs = np.concatenate([base, np.nextafter(base, np.inf)])
        return rng.permutation(pairs)
    if name == "specials":
        return rng.choice(np.array([0.0, -0.0, 1e-300, 5e-324, 0.5]), n)
    if name == "signed_zeros":
        return rng.choice(np.array([-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0]), n)
    if name == "n2":
        return rng.choice(np.array([0.0, -0.0, 5e-324, 0.3, 0.7]), 2)
    if name == "all_equal":
        return np.full(n, rng.choice(np.array([-0.0, 0.0, 0.25, -3.5])))
    if name == "tied_pair":
        # only the two levels around the median tie; the rest are distinct
        levels = np.sort(rng.normal(0.5, 0.2, n))
        levels[n // 2] = levels[n // 2 - 1]
        return rng.permutation(levels)
    if name == "straddle":
        # a tie block covering sorted positions n/2 - 1 and n/2
        levels = np.sort(rng.normal(0.5, 0.2, n))
        lo = int(rng.integers(0, n // 2))
        hi = int(rng.integers(n // 2, n))
        levels[lo:hi + 1] = levels[lo]
        return rng.permutation(levels)
    raise AssertionError(name)


ORACLE_FAMILIES = ("gaussian", "grid4", "adjacent", "specials", "n2",
                   "all_equal", "straddle", "signed_zeros", "tied_pair")


def brute_force_min_gap(levels) -> int:
    # every threshold reads like the smallest level at or above it, or like
    # one above the maximum: weight 0
    n = len(levels)
    weights = [sum(lv >= u for lv in levels) for u in set(levels)] + [0]
    return min(abs(w - n // 2) for w in weights)


class TestRead:
    def test_two_cells(self):
        assert read_with_threshold([0.1, 0.9], 0.5).tolist() == [0, 1]

    def test_boundary_inclusive(self):
        assert read_with_threshold([0.5], 0.5).tolist() == [1]

    def test_elementwise(self):
        assert read_with_threshold([0.3, 0.2, 0.8, 0.7], 0.25).tolist() == [1, 0, 1, 1]

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            read_with_threshold([0.1, float("nan")], 0.5)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold v must not be NaN"):
            read_with_threshold([0.1, 0.9], float("nan"))

    def test_infinite_threshold_is_legal(self):
        # model_thresholds gives an infinite optimal cut past t = 1
        assert read_with_threshold([0.1, 0.9], math.inf).tolist() == [0, 0]
        assert read_with_threshold([0.1, 0.9], -math.inf).tolist() == [1, 1]

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30))
    def test_ones_count_non_increasing_in_threshold(self, levels):
        grid = sorted(set(levels)) + [max(levels) + 1]
        weights = [weight(read_with_threshold(levels, v)) for v in grid]
        assert all(b <= a for a, b in zip(weights, weights[1:]))


class TestErrorCounts:
    def test_no_errors(self):
        assert error_counts(bw("0101"), bw("0101")).total == 0

    def test_mixed(self):
        ec = error_counts(bw("1100"), bw("1001"))
        assert (ec.n10, ec.n01) == (1, 1)

    def test_all_one_to_zero(self):
        ec = error_counts(bw("1111"), bw("0000"))
        assert (ec.n10, ec.n01) == (4, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_counts(bw("11"), bw("111"))


class TestBalancingExact:
    def test_four_cells(self):
        res = balancing_threshold_exact([0.1, 0.9, 0.2, 0.8])
        assert res.value == pytest.approx(0.5)
        assert res.exact
        assert weight(read_with_threshold([0.1, 0.9, 0.2, 0.8], res.value)) == 2

    def test_two_cells(self):
        res = balancing_threshold_exact([0.0, 1.0])
        assert res.value == pytest.approx(0.5)
        assert weight(read_with_threshold([0.0, 1.0], res.value)) == 1

    def test_all_equal_flagged(self):
        res = balancing_threshold_exact([0.3, 0.3, 0.3, 0.3])
        assert not res.exact

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            balancing_threshold_exact([0.1, 0.2, 0.3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            balancing_threshold_exact([])

    @pytest.mark.parametrize("levels, exact", [
        ([1e308, 1.7e308], True), ([-1.7e308, -1e308], True),
        ([1e308, 1.7e308, 1.7e308, 1.7e308], False),
        ([-1.7e308, -1.7e308, -1.7e308, -1e308], False),
    ])
    def test_midpoint_overflow(self, levels, exact):
        # the midpoint of two levels near the float maximum is not finite
        res = balancing_threshold_exact(levels)
        assert math.isfinite(res.value) and res.exact == exact
        gap = abs(weight(read_with_threshold(levels, res.value)) - len(levels) // 2)
        assert gap == brute_force_min_gap(levels)
        assert_same_float(res.value, threshold_oracle.balancing_threshold_exact(levels).value)

    @given(tied_levels)
    @settings(max_examples=300)
    def test_matches_brute_force_cut_scan(self, levels):
        # |weight - n/2| at the returned threshold is the least any realizable
        # cut gives, and exact holds exactly when that least gap is 0
        res = balancing_threshold_exact(levels)
        gap = abs(weight(read_with_threshold(levels, res.value)) - len(levels) // 2)
        best = brute_force_min_gap(levels)
        assert gap == best
        assert res.exact == (best == 0)

    @given(distinct_levels)
    def test_exact_whenever_levels_distinct(self, levels):
        res = balancing_threshold_exact(levels)
        assert res.exact
        assert weight(read_with_threshold(levels, res.value)) == len(levels) // 2

    @given(distinct_levels)
    def test_balanced_read_has_symmetric_errors(self, levels):
        # at an exactly balancing threshold the two error directions cancel
        n = len(levels)
        rng = np.random.default_rng(0)
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.permutation(n)[:n // 2]] = 1
        x = BitWord.from_array(bits)
        res = balancing_threshold_exact(levels)
        ec = error_counts(x, read_with_threshold(levels, res.value))
        assert ec.n10 == ec.n01


class TestBisect:
    def test_matches_exact_weight(self):
        levels = [0.1, 0.9, 0.2, 0.8]
        v = balancing_threshold_bisect(levels, 0.0, 1.0, 1e-9)
        assert weight(read_with_threshold(levels, v)) == 2

    def test_two_cells(self):
        v = balancing_threshold_bisect([0.0, 1.0], 0.0, 1.0, 1e-9)
        assert weight(read_with_threshold([0.0, 1.0], v)) == 1

    def test_precision_fallback_terminates(self):
        v = balancing_threshold_bisect([0.3, 0.3, 0.3, 0.3], 0.0, 1.0, 1e-6)
        assert 0.0 <= v <= 1.0

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            balancing_threshold_bisect([0.1, 0.9], 1.0, 0.0, 1e-9)

    def test_empty_block_rejected(self):
        # the target weight 0 met the first probe's count, so no cells got 0.5
        with pytest.raises(ValueError, match="^need at least one cell, got 0$"):
            balancing_threshold_bisect([], 0.0, 1.0, 1e-9)

    @pytest.mark.parametrize("lo, hi, eps, name, value", [
        (0.0, math.inf, 1e-9, "hi", "inf"),
        (-math.inf, math.inf, 1e-9, "lo", "-inf"),
        (math.nan, 1.0, 1e-9, "lo", "nan"),
        (0.0, math.nan, 1e-9, "hi", "nan"),
        (0.0, 1.0, math.nan, "eps", "nan"),
        (0.0, 1.0, math.inf, "eps", "inf"),
    ])
    def test_non_finite_argument_rejected(self, lo, hi, eps, name, value):
        # an infinite hi kept hi - lo infinite, so the search never returned
        with returns_within(5):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                balancing_threshold_bisect([0.1, 0.9, 0.2, 0.8], lo, hi, eps)

    @pytest.mark.parametrize("levels, lo, hi, eps, want", [
        ([0.3] * 4, 0.0, 1.0, 1e-300, 0.30000000000000004),
        ([1e16] * 4, 0.0, 2e16, 1e-3, 1e16),
        ([1.5e308] * 4, 1e308, 1.7e308, 1.0, 1.5e308),
    ])
    def test_stops_once_the_midpoint_rounds_onto_an_end(self, levels, lo, hi, eps, want):
        # eps below the float spacing: the midpoint rounded onto lo or hi and
        # the interval stopped shrinking (or lo + hi overflowed to inf), so an
        # unbalanceable block never returned
        with returns_within(5):
            v = balancing_threshold_bisect(levels, lo, hi, eps)
        assert v == want and lo <= v <= hi

    @given(distinct_levels)
    @settings(max_examples=60)
    def test_agrees_with_exact_method(self, levels):
        lo, hi = min(levels) - 1.0, max(levels) + 1.0
        v = balancing_threshold_bisect(levels, lo, hi, 1e-12)
        exact = balancing_threshold_exact(levels)
        assert (weight(read_with_threshold(levels, v))
                == weight(read_with_threshold(levels, exact.value)))


class TestRelaxed:
    def test_mean_two(self):
        assert relaxed_threshold_mean([0.0, 1.0]) == pytest.approx(0.5)

    def test_mean_symmetric(self):
        assert relaxed_threshold_mean([0.2, 0.4, 0.6, 0.8]) == pytest.approx(0.5)

    def test_mean_skewed(self):
        assert relaxed_threshold_mean([0.1, 0.1, 0.1, 0.9]) == pytest.approx(0.3)

    def test_second_order_vanishes_at_half(self):
        assert relaxed_threshold_second_order([0.3, 0.7], a=5.0) == pytest.approx(0.5)

    def test_second_order_plug_in(self):
        v = relaxed_threshold_second_order([0.1, 0.1, 0.1, 0.9], a=1.0)
        assert v == pytest.approx(0.34)

    def test_second_order_balanced_mean(self):
        assert relaxed_threshold_second_order([0.0, 1.0], a=2.0) == pytest.approx(0.5)

    def test_default_constant_is_zero(self):
        assert relaxed_threshold_second_order([0.1, 0.1, 0.1, 0.9]) == pytest.approx(0.3)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), float("-inf")])
    def test_second_order_rejects_non_finite_constant(self, a):
        with pytest.raises(ValueError, match=f"a must be finite, got {a}"):
            relaxed_threshold_second_order([0.1, 0.9], a=a)


class TestOptimalOracle:
    def test_separable(self):
        _, ec = optimal_threshold_oracle([0.1, 0.9], bw("01"))
        assert ec.total == 0

    def test_inverted_pair_enumerates_cuts(self):
        # all three cuts give errors 1, 2, 1: the minimum is 1 and the tie
        # breaks toward the lowest threshold
        v, ec = optimal_threshold_oracle([0.1, 0.9], bw("10"))
        assert ec.total == 1
        assert v < 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            optimal_threshold_oracle([0.1, 0.2, 0.3], bw("10"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            optimal_threshold_oracle([], BitWord(()))

    @pytest.mark.parametrize("levels", [[1e17, 1e17], [-1e17, -1e17],
                                        [-1e17, 1e17, 1e17, -1e17],
                                        [1e308, 1.7e308], [-1.7e308, -1e308]])
    def test_read_at_result_reproduces_counts(self, levels):
        # at 1e17 max + 1.0 rounds onto the maximum, which reads as 1; at
        # 1e308 the midpoint of two levels overflows to infinity
        for bits in itertools.product((0, 1), repeat=len(levels)):
            x = BitWord(bits)
            v, counts = optimal_threshold_oracle(levels, x)
            assert error_counts(x, read_with_threshold(levels, v)) == counts

    @given(distinct_levels, st.data())
    @settings(max_examples=80)
    def test_beats_every_cut(self, levels, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(levels),
                                  max_size=len(levels)))
        x = BitWord(tuple(bits))
        _, best = optimal_threshold_oracle(levels, x)
        grid = [min(levels) - 1] + sorted(levels) + [max(levels) + 1]
        for v in grid:
            assert best.total <= error_counts(x, read_with_threshold(levels, v)).total

    def test_factor_two_bound_sampled(self):
        # balanced stored word: the balancing threshold is at most twice the
        # genie optimum; a dense sample of the large acceptance sweep
        rng = make_rng(123)
        for _ in range(2000):
            n = int(rng.choice([8, 16, 32]))
            bits = np.zeros(n, dtype=np.uint8)
            bits[rng.permutation(n)[:n // 2]] = 1
            x = BitWord.from_array(bits)
            t = rng.uniform(0.0, 0.5)
            sigma = rng.uniform(0.05, 0.3)
            levels = rng.normal(np.where(bits == 1, 1.0 - t, 0.0), sigma)
            res = balancing_threshold_exact(levels)
            if not res.exact:
                continue
            ne_b = error_counts(x, read_with_threshold(levels, res.value)).total
            _, ec_o = optimal_threshold_oracle(levels, x)
            assert ne_b <= 2 * ec_o.total


class TestMatchesLoopOracle:
    """The array cut scans equal the loop versions in tests/threshold_oracle.py:
    same float and sign bit, same ErrorCounts, same exact flag."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_optimal_threshold(self, family):
        rng = make_rng((41, ORACLE_FAMILIES.index(family)))
        for _ in range(150):
            levels = oracle_family(family, rng)
            x = BitWord.from_array(rng.integers(0, 2, levels.size))
            v, counts = optimal_threshold_oracle(levels, x)
            v_ref, counts_ref = threshold_oracle.optimal_threshold_oracle(levels, x)
            assert_same_float(v, v_ref)
            assert counts == counts_ref

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_balancing_threshold_exact(self, family):
        rng = make_rng((42, ORACLE_FAMILIES.index(family)))
        fallbacks = 0
        for _ in range(150):
            levels = oracle_family(family, rng)
            res = balancing_threshold_exact(levels)
            ref = threshold_oracle.balancing_threshold_exact(levels)
            assert_same_float(res.value, ref.value)
            assert res.exact == ref.exact
            fallbacks += not ref.exact
        if family in ("straddle", "all_equal", "tied_pair"):
            assert fallbacks == 150

    @pytest.mark.parametrize("decimals", [None, 2])
    @pytest.mark.parametrize("t", [0.0, 0.2, 0.5])
    def test_benchmark_scale_blocks(self, t, decimals):
        # the ber-10k block: 10 000 cells, half storing 1; rounding to two
        # decimals ties hundreds of cells at every cut
        model = channel.DriftModel(channel.MEAN_DRIFT, 0.2)
        rng = make_rng((43, int(10 * t)))
        for trial in range(2):
            stored = np.zeros(10_000, dtype=np.uint8)
            stored[rng.permutation(10_000)[:5_000]] = 1
            levels = channel.sample_levels(stored, model, t, seed=(43, trial)).levels
            if decimals is not None:
                levels = np.round(levels, decimals)
            x = BitWord.from_array(stored)
            v, counts = optimal_threshold_oracle(levels, x)
            v_ref, counts_ref = threshold_oracle.optimal_threshold_oracle(levels, x)
            assert_same_float(v, v_ref)
            assert counts == counts_ref
            res = balancing_threshold_exact(levels)
            ref = threshold_oracle.balancing_threshold_exact(levels)
            assert_same_float(res.value, ref.value)
            # rounded blocks tie at the median, so they take the fallback scan
            assert res.exact == ref.exact == (decimals is None)

    def test_balancing_selection_on_many_large_blocks(self):
        # np.partition leaves the k levels below the median unordered, and
        # now and then the largest of them is not at position k - 1
        rng = make_rng(45)
        for _ in range(400):
            n = 2 * int(rng.integers(500, 5_001))
            levels = rng.normal(np.where(rng.random(n) < 0.5, 0.7, 0.0), 0.2)
            res = balancing_threshold_exact(levels)
            ref = threshold_oracle.balancing_threshold_exact(levels)
            assert_same_float(res.value, ref.value)
            assert res.exact and ref.exact

    @pytest.mark.parametrize("levels, bits, want", [
        ([-5e-324, -0.0, 0.0, 1.0], [0, 1, 1, 1], -0.0),   # midpoint below the zeros
        ([-0.0, 0.0, 5e-324, 1.0], [0, 0, 1, 1], 5e-324),  # midpoint rounds onto 0
        ([-5e-324, -5e-324, 0.0, -0.0], None, -0.0),        # exact balancing
        ([-1.0, -0.0, 0.0, 2.0, 3.0, 4.0], None, 1.0),      # zeros below the median
        ([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0], None, -0.5),   # zeros above it
        ([0.0, 5e-324], None, 5e-324),
        ([-1.0, -0.0, 0.0, 1.0], None, -0.5),               # zeros tie at the median
        ([-0.0, 0.0, -0.0, 5e-324], None, 5e-324),
        ([-0.0, 0.0, -0.0, 0.0], None, -1.0),
        ([-0.0, 0.0], None, -1.0),
        ([0.25, 0.25], None, -0.75),
    ])
    def test_signed_zeros_at_a_cut(self, levels, bits, want):
        # -0.0 == 0.0, so argsort, np.sort and np.partition may order a zero
        # block either way; every order must give the loop oracle's value,
        # sign included
        for order in itertools.permutations(range(len(levels))):
            lv = np.array(levels)[list(order)]
            if bits is None:
                res = balancing_threshold_exact(lv)
                ref = threshold_oracle.balancing_threshold_exact(lv)
                v, v_ref = res.value, ref.value
                assert res.exact == ref.exact
            else:
                x = np.array(bits)[list(order)]
                v = optimal_threshold_oracle(lv, x)[0]
                v_ref = threshold_oracle.optimal_threshold_oracle(lv, x)[0]
            assert_same_float(v, v_ref)
            assert_same_float(v, want)


class TestCutValue:
    @pytest.mark.parametrize("asc, j, want", [
        ([0.25, 0.75], 0, -0.75),
        ([0.25, 0.75], 1, 0.5),
        ([0.25, 0.75], 2, 1.75),
        ([-1.7e308, 1.7e308], 1, 0.0),   # opposite signs: the sum cannot overflow
        # + 1.0 rounds onto a maximum of 2**53, so the guard steps one float up
        ([1.0, 2.0 ** 53], 2, 2.0 ** 53 + 2.0),
        ([1.0, 2.0 ** 53 + 2.0], 2, 2.0 ** 53 + 4.0),
        ([1.0, 2.0 ** 53 - 1.0], 2, 2.0 ** 53),
        # the midpoint overflows: the upper level realizes the cut
        ([1e308, 1.7e308], 1, 1.7e308),
        ([-1.7e308, -1e308], 1, -1e308),
        # adjacent floats: the midpoint rounds onto the lower one, or onto a
        # zero between them
        ([1.0, math.nextafter(1.0, math.inf)], 1, math.nextafter(1.0, math.inf)),
        ([0.0, 5e-324], 1, 5e-324),
        ([-5e-324, 0.0], 1, -0.0),
        ([-0.0, 0.0, 1.0], 0, -1.0),
    ])
    def test_cut_value(self, asc, j, want):
        asc = np.array(asc)
        assert_same_float(_cut_value(asc, j), want)
        # the loop oracle yields the same cut among its ascending candidates
        cuts = {asc.size - wt: v for v, wt in threshold_oracle._cut_candidates(asc)}
        assert_same_float(_cut_value(asc, j), cuts[j])
