import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmod.words import (BalancedWord, BitWord, KnuthCodeword, decode_prefix,
                          encode_prefix, find_balancing_index, invert_prefix,
                          knuth_decode, knuth_encode, prefix_length, weight)


def bw(s: str) -> BitWord:
    return BitWord.from_string(s)


even_words = st.integers(min_value=1, max_value=10).flatmap(
    lambda half: st.lists(st.integers(0, 1), min_size=2 * half, max_size=2 * half))


def brute_force_balancing_index(w: BitWord) -> int:
    # independent oracle: try every i and count ones directly
    n = len(w)
    for i in range(n):
        flipped = [1 - b for b in w[:i]] + list(w[i:])
        if sum(flipped) == n // 2:
            return i
    raise AssertionError("no balancing index")


class TestFromArray:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, bool])
    def test_integer_arrays_give_python_ints(self, dtype):
        w = BitWord.from_array(np.array([1, 0, 1, 1], dtype=dtype))
        assert w.bits == (1, 0, 1, 1)
        assert all(type(b) is int for b in w.bits)
        assert str(w) == "1011"

    def test_lists_and_float_arrays(self):
        assert BitWord.from_array([0, 1]).bits == (0, 1)
        assert BitWord.from_array(np.array([1.0, 0.0])).bits == (1, 0)

    @pytest.mark.parametrize("arr", [np.array([0, 2], dtype=np.uint8),
                                     np.array([-1, 0], dtype=np.int8), [1, 3],
                                     np.array([0.5, 1.7]), np.array([1.0, np.nan]),
                                     np.array([256, 1]), [0, 1.5], ["1", "0"]])
    def test_non_bits_rejected(self, arr):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitWord.from_array(arr)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            BitWord.from_array(np.array([[0, 1], [1, 0]]))

    def test_subclass_checks_apply(self):
        assert type(BalancedWord.from_array(np.array([1, 0]))) is BalancedWord
        with pytest.raises(ValueError, match="not balanced"):
            BalancedWord.from_array(np.array([1, 1]))


class TestBitWordEntries:
    def test_bools_normalised_to_ints(self):
        w = BitWord((True, False))
        assert str(w) == "10"
        assert w.bits == (1, 0)
        assert all(type(b) is int for b in w.bits)
        assert w == BitWord((1, 0)) and hash(w) == hash(BitWord((1, 0)))

    def test_numpy_integers_normalised(self):
        w = BitWord((np.uint8(1), np.int64(0)))
        assert all(type(b) is int for b in w.bits)
        assert str(w) == "10"

    @pytest.mark.parametrize("bits", [(1.0, 0.0), (0.5,), ("1", "0"), (2,),
                                      (-1,), (1, None), 5])
    def test_non_int_entries_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitWord(bits)

    def test_to_array_is_a_fresh_writable_copy(self):
        w = bw("1011")
        a = w.to_array()
        assert a.dtype == np.uint8 and a.flags.writeable
        a[0] = 0
        assert str(w) == "1011"
        assert w.to_array().tolist() == [1, 0, 1, 1]


class TestWeight:
    def test_all_zero(self):
        assert weight(bw("0000")) == 0

    def test_direct_count(self):
        assert weight(bw("0110")) == 2

    def test_longer(self):
        assert weight(bw("1111111100000000")) == 8


class TestInvertPrefix:
    def test_identity(self):
        assert invert_prefix(bw("1010"), 0) == bw("1010")

    def test_two_bits(self):
        assert invert_prefix(bw("1010"), 2) == bw("0110")

    def test_full(self):
        assert invert_prefix(bw("1111"), 4) == bw("0000")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            invert_prefix(bw("1010"), 5)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=24), st.data())
    def test_involution(self, bits, data):
        w = BitWord(tuple(bits))
        i = data.draw(st.integers(0, len(bits)))
        assert invert_prefix(invert_prefix(w, i), i) == w


class TestFindBalancingIndex:
    def test_already_balanced(self):
        assert find_balancing_index(bw("0110")) == 0

    def test_all_ones(self):
        w = bw("1111")
        assert brute_force_balancing_index(w) == 2
        assert find_balancing_index(w) == 2

    def test_single_one(self):
        w = bw("1000")
        assert brute_force_balancing_index(w) == 3
        assert find_balancing_index(w) == 3

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            find_balancing_index(bw("101"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            find_balancing_index(BitWord(()))

    @given(even_words)
    def test_matches_brute_force_and_balances(self, bits):
        w = BitWord(tuple(bits))
        i = find_balancing_index(w)
        assert i == brute_force_balancing_index(w)
        assert weight(invert_prefix(w, i)) == len(bits) // 2

    @given(even_words)
    def test_weight_walk_moves_by_one(self, bits):
        w = BitWord(tuple(bits))
        walk = [weight(invert_prefix(w, i)) for i in range(len(bits) + 1)]
        assert all(abs(b - a) == 1 for a, b in zip(walk, walk[1:]))


class TestBalancedWord:
    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            BalancedWord((1, 1, 1, 0))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            BalancedWord((1, 0, 1))


class TestKnuthCodec:
    def test_zero_inversion(self):
        cw = knuth_encode(bw("0110"))
        assert cw.payload == BalancedWord((0, 1, 1, 0))
        assert decode_prefix(cw.prefix) == 0

    def test_all_ones(self):
        cw = knuth_encode(bw("1111"))
        assert str(cw.payload) == "0011"
        assert decode_prefix(cw.prefix) == 2

    def test_decode_zero_index(self):
        cw = KnuthCodeword(payload=BalancedWord.from_string("0110"),
                           prefix=encode_prefix(0, prefix_length(4)))
        assert knuth_decode(cw) == bw("0110")

    def test_decode_inverse_of_encode_example(self):
        cw = KnuthCodeword(payload=BalancedWord.from_string("0011"),
                           prefix=encode_prefix(2, prefix_length(4)))
        assert knuth_decode(cw) == bw("1111")

    def test_decode_longer_payload(self):
        cw = KnuthCodeword(payload=BalancedWord.from_string("010011"),
                           prefix=encode_prefix(3, prefix_length(6)))
        assert knuth_decode(cw) == bw("101011")

    def test_prefix_out_of_range_rejected(self):
        # prefix of length 4 can index up to C(4, 2) = 6 values, but the
        # payload here only admits i < 4
        cw = KnuthCodeword(payload=BalancedWord.from_string("0011"),
                           prefix=encode_prefix(5, 4))
        with pytest.raises(ValueError):
            knuth_decode(cw)

    def test_whole_codeword_balanced(self):
        cw = knuth_encode(bw("1110"))
        both = cw.prefix.bits + cw.payload.bits
        assert sum(both) * 2 == len(both)

    @given(even_words)
    @settings(max_examples=150)
    def test_round_trip(self, bits):
        u = BitWord(tuple(bits))
        assert knuth_decode(knuth_encode(u)) == u


class TestPrefixCode:
    def test_prefix_length_values(self):
        assert prefix_length(2) == 2
        assert prefix_length(4) == 4
        assert prefix_length(6) == 4
        assert prefix_length(8) == 6
        assert prefix_length(16) == 6

    @given(st.integers(0, 19))
    def test_prefix_round_trip(self, i):
        assert decode_prefix(encode_prefix(i, 6)) == i

    def test_prefix_words_are_lexicographic(self):
        ws = [str(encode_prefix(i, 4)) for i in range(6)]
        assert ws == sorted(ws)
        assert ws[0] == "0011"
