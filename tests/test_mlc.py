import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmod import mlc


def word(s: str) -> list[int]:
    return [int(ch) for ch in s]


def all_balanced_words(q: int, m: int) -> list[tuple[int, ...]]:
    # independent enumeration oracle: distinct permutations in sorted order
    base = tuple(s for s in range(q) for _ in range(m))
    return sorted(set(itertools.permutations(base)))


class TestMultinomial:
    def test_three_equal_parts(self):
        assert mlc.multinomial(9, (3, 3, 3)) == 1680
        assert mlc.multinomial(9, (3, 3, 3)) == math.factorial(9) // math.factorial(3) ** 3

    def test_unequal_parts(self):
        assert mlc.multinomial(8, (2, 3, 3)) == 560

    def test_single_part(self):
        assert mlc.multinomial(7, (7,)) == 1

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            mlc.multinomial(5, (2, 2))

    def test_non_integer_part_named_by_value_and_index(self):
        # math.comb raised a bare TypeError on the 1.5
        with pytest.raises(ValueError, match=r"^part 1\.5 at index 0 is not an integer$"):
            mlc.multinomial(2, [1.5, 0.5])
        assert mlc.multinomial(4, [2.0, np.int64(2)]) == 6


class TestRankUnrank:
    def test_unrank_zero_is_sorted_word(self):
        assert "".join(map(str, mlc.unrank_balanced(0, 3, 3))) == "000111222"

    def test_last_word(self):
        last = mlc.unrank_balanced(1679, 3, 3)
        assert "".join(map(str, last)) == "222111000"
        assert mlc.rank_balanced(last) == 1679

    def test_branch_values_at_658(self):
        x = mlc.unrank_balanced(658, 3, 3)
        assert x[0] == 1
        # after fixing the first symbol, the residual rank over the remaining
        # multiset {0:3, 1:2, 2:3} is 658 - 560 = 98
        assert mlc.rank_multiset(x[1:], (3, 2, 3)) == 98

    def test_full_bijection_exhaustive(self):
        words = all_balanced_words(3, 3)
        assert len(words) == 1680
        for r, w in enumerate(words):
            assert tuple(mlc.unrank_balanced(r, 3, 3)) == w
            assert mlc.rank_balanced(list(w)) == r

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mlc.unrank_balanced(1680, 3, 3)

    def test_unbalanced_input_rejected(self):
        with pytest.raises(ValueError):
            mlc.rank_balanced(word("001122220"), q=3)

    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    @settings(max_examples=100)
    def test_round_trip_sampled(self, q, m, data):
        total = mlc.multinomial(q * m, [m] * q)
        r = data.draw(st.integers(0, total - 1))
        assert mlc.rank_balanced(mlc.unrank_balanced(r, q, m), q=q) == r


class TestMessageCodec:
    def test_min_length(self):
        assert mlc.min_balanced_length(10, 3) == (9, 3)

    def test_bits_round_trip(self):
        bits = word("1010010010")
        x = mlc.bits_to_balanced(bits, 3)
        assert "".join(map(str, x)) == "101202102"
        assert list(mlc.balanced_to_bits(x, 3, 10)) == bits

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=16), st.integers(2, 4))
    @settings(max_examples=60)
    def test_random_messages(self, bits, q):
        x = mlc.bits_to_balanced(bits, q)
        assert mlc.is_balanced(x, q)
        assert list(mlc.balanced_to_bits(x, q, len(bits))) == bits


class TestKnuthQ:
    def test_four_level_walkthrough(self):
        x, trace = mlc.knuth_q_balance(word("0110230210110003"), 4)
        assert "".join(map(str, x)) == "2332231210110003"
        assert trace.locations == (4, 1, 0)
        assert trace.groups == (0, 0, 0)

    def test_four_level_inverse(self):
        trace = mlc.BalancingTrace((4, 1, 0), (0, 0, 0))
        u = mlc.knuth_q_unbalance(word("2332231210110003"), trace, 4)
        assert "".join(map(str, u)) == "0110230210110003"

    def test_already_balanced_identity(self):
        u = word("0123012301230123")
        x, trace = mlc.knuth_q_balance(u, 4)
        assert list(x) == u
        assert all(loc == 0 for loc in trace.locations)

    def test_trace_length_is_q_minus_one(self):
        for q in (2, 3, 4, 6, 8, 9):
            u = list(np.random.default_rng(q).integers(0, q, 2 * q))
            _, trace = mlc.knuth_q_balance(u, q)
            assert len(trace) == q - 1

    @given(st.sampled_from([2, 3, 4, 8]), st.integers(1, 4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_balance_and_round_trip(self, q, m, data):
        u = data.draw(st.lists(st.integers(0, q - 1), min_size=q * m, max_size=q * m))
        x, trace = mlc.knuth_q_balance(u, q)
        assert mlc.is_balanced(x, q)
        assert list(mlc.knuth_q_unbalance(x, trace, q)) == u

    def test_group_shift_walk_step_is_at_most_one(self):
        # two-group split: shifting one more symbol moves exactly one symbol
        # between groups, so the tracked count changes by at most 1 per step
        rng = np.random.default_rng(7)
        for q, alpha in ((4, 2), (6, 3), (8, 4)):
            u = rng.integers(0, q, 4 * q)
            counts = [int(np.sum((u // alpha) == 0))]
            work = u.copy()
            for i in range(len(u)):
                work[i] = (work[i] + alpha) % q
                counts.append(int(np.sum((work // alpha) == 0)))
            assert all(abs(b - a) <= 1 for a, b in zip(counts, counts[1:]))
            target = len(u) // (q // alpha)
            lo, hi = min(counts), max(counts)
            if lo <= target <= hi:
                assert target in counts

    def test_malformed_trace_rejected(self):
        with pytest.raises(mlc.MalformedTrace):
            mlc.knuth_q_unbalance(word("0123"), mlc.BalancingTrace((1,), (0,)), 4)
        with pytest.raises(mlc.MalformedTrace):
            mlc.knuth_q_unbalance(
                word("0123"), mlc.BalancingTrace((99, 0, 0), (0, 0, 0)), 4)


class TestAlphabetSize:
    @pytest.mark.parametrize("q", [1, 0, -2, -3])
    def test_every_codec_rejects_alphabet_below_two(self, q):
        # q = 0 divided by zero in unbalance, and unrank returned an empty word
        calls = [lambda: mlc.unrank_balanced(0, q, 2),
                 lambda: mlc.rank_balanced(word("0101"), q=q),
                 lambda: mlc.knuth_q_balance(word("0123"), q),
                 lambda: mlc.knuth_q_unbalance(word("0123"), mlc.BalancingTrace((1,), (0,)), q),
                 lambda: mlc.redundancy_factor(q),
                 lambda: mlc.trace_bit_cost(q, 4)]
        for call in calls:
            with pytest.raises(ValueError, match="^alphabet size must be at least 2$"):
                call()

    def test_whole_float_sizes_are_read(self):
        # trace_bit_cost(4.0, 4) raised AttributeError, unrank_balanced(3, 2.0, 2) TypeError
        assert mlc.trace_bit_cost(4.0, np.float64(8.0)) == mlc.trace_bit_cost(4, 8)
        assert mlc.unrank_balanced(3, 2.0, 2.0).tolist() == mlc.unrank_balanced(3, 2, 2).tolist()
        assert mlc.redundancy_factor(np.int64(4)) == mlc.redundancy_factor(4.0) == 6.0

    @pytest.mark.parametrize("symbol", [4, 9, -1])
    def test_balance_and_unbalance_reject_symbols_outside_alphabet(self, symbol):
        # unbalance shifted an out-of-range symbol as if it were valid
        bad = [0, 1, symbol, 3]
        message = f"^symbol {symbol} outside alphabet of size 4$"
        with pytest.raises(ValueError, match=message):
            mlc.knuth_q_balance(bad, 4)
        with pytest.raises(ValueError, match=message):
            mlc.knuth_q_unbalance(bad, mlc.BalancingTrace((1, 0, 0), (0, 0, 0)), 4)

    @pytest.mark.parametrize("bad", [1.7, 0.5, float("nan"), float("inf"), "1", None])
    def test_non_integer_symbol_named_by_value_and_index(self, bad):
        # int() truncated 1.7 to 1 and 0.5 to 0, so such words read as others
        message = rf"^symbol {bad!r} at index 1 is not an integer$"
        calls = [lambda w: mlc.rank_balanced(w),
                 lambda w: mlc.rank_balanced(w, q=2),
                 lambda w: mlc.rank_multiset(w, (2, 2)),
                 lambda w: mlc.symbol_counts(w, 2),
                 lambda w: mlc.knuth_q_balance(w, 2),
                 lambda w: mlc.knuth_q_unbalance(w, mlc.BalancingTrace((1,), (0,)), 2)]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call([0, bad, 1, 0])

    def test_whole_number_symbols_of_any_type_are_read(self):
        expect = mlc.rank_balanced([0, 1, 1, 0])
        for w in ([0, 1.0, True, 0], (0, np.int64(1), np.float64(1.0), np.uint8(0)),
                  np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 1, 1, 0], dtype=np.uint8)):
            assert mlc.rank_balanced(w) == expect
        x, trace = mlc.knuth_q_balance([1, 1, 1, 1], 2)
        x_f, trace_f = mlc.knuth_q_balance(np.ones(4), 2)
        assert x_f.tolist() == x.tolist() and trace_f == trace

    def test_rank_multiset_rejects_non_integer_counts(self):
        # int() truncated the counts (1.5, 1) to (1, 1) and ranked the word
        with pytest.raises(ValueError, match=r"^count 1\.5 at index 0 is not an integer$"):
            mlc.rank_multiset([0, 1], (1.5, 1))

    def test_unrank_multiset_rejects_non_integer_counts(self):
        # int() truncated the counts (1.7, 1) to (1, 1) and returned [0, 1]
        with pytest.raises(ValueError, match=r"^count 1\.7 at index 0 is not an integer$"):
            mlc.unrank_multiset(0, (1.7, 1))
        assert mlc.unrank_multiset(1, (1.0, np.int64(1))).tolist() == [1, 0]

    def test_unrank_multiset_rejects_non_integer_rank(self):
        # the rank walk took 0.5 as below the first count and returned [0, 1]
        with pytest.raises(ValueError, match=r"^rank 0\.5 is not an integer$"):
            mlc.unrank_multiset(0.5, (1, 1))
        assert mlc.unrank_multiset(1.0, (1, 1)).tolist() == [1, 0]

    def test_unrank_balanced_rejects_non_integer_rank(self):
        # 1.5 walked to [1, 0]
        with pytest.raises(ValueError, match=r"^rank 1\.5 is not an integer$"):
            mlc.unrank_balanced(1.5, 2, 1)

    def test_rank_multiset_rejects_symbols_outside_its_counts(self):
        # a -1 indexed the last count and ranked as the largest symbol
        with pytest.raises(ValueError, match="^symbol -1 outside alphabet of size 2$"):
            mlc.rank_multiset([0, -1], (1, 1))

    def test_bits_to_balanced_reads_bits_by_the_one_rule(self):
        with pytest.raises(ValueError, match=r"^bits must be 0 or 1, got 0.9 at index 1$"):
            mlc.bits_to_balanced([1, 0.9, 1], 3)

    def test_rank_infers_alphabet_when_not_given(self):
        assert mlc.rank_balanced(word("0000")) == 0
        assert mlc.rank_balanced(word("1010")) == mlc.rank_balanced(word("1010"), q=2) == 4


class TestCostFormulas:
    def test_published_bit_cost(self):
        assert mlc.trace_bit_cost(8, 128) == 137

    def test_closed_form_shape(self):
        for a in range(2, 5):
            for b in range(a, 11):
                q, m = 2 ** a, 2 ** b
                assert mlc.trace_bit_cost(q, m) == (q - 1) * a * b - q * (a - 2) - 2

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            mlc.trace_bit_cost(6, 16)

    def test_redundancy_factors(self):
        expected = [2.0000, 4.4803, 6.0000, 6.9361, 7.5694,
                    8.0351, 8.4000, 8.6995, 8.9539]
        got = [mlc.redundancy_factor(q) for q in range(2, 11)]
        assert got == pytest.approx(expected, abs=5e-5)

    def test_factor_formula(self):
        q = 5
        assert mlc.redundancy_factor(q) == pytest.approx(
            2 * (q - 1) * math.log2(q) / (q - math.log2(q)))
