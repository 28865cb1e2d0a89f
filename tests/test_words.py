import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balmod import bec, channel, em, harness, intervals, ldpc, mlc, partial, thresholds
from balmod.words import (BalancedWord, BitWord, KnuthCodeword, as_bits, as_real,
                          as_whole_number, as_whole_numbers, balance, bits_to_int,
                          decode_prefix, encode_prefix, find_balancing_index, int_to_bits,
                          invert_prefix, knuth_decode, knuth_encode, prefix_length, weight)


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
        assert w.bits == bytes((1, 0, 1, 1))
        assert all(type(b) is int for b in w.bits)
        assert str(w) == "1011"

    def test_lists_and_float_arrays(self):
        assert BitWord.from_array([0, 1]).bits == bytes((0, 1))
        assert BitWord.from_array(np.array([1.0, 0.0])).bits == bytes((1, 0))

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


class TestAsBits:
    def test_bitword_gives_its_bits(self):
        a = as_bits(bw("0110"))
        assert a.dtype == np.uint8 and a.tolist() == [0, 1, 1, 0]

    def test_uint8_array_is_not_copied(self):
        a = np.array([1, 0, 1], dtype=np.uint8)
        assert as_bits(a) is a

    @pytest.mark.parametrize("w", [[1, 0], (True, False), np.array([1.0, 0.0]),
                                   np.array([1, 0], dtype=np.int64)])
    def test_other_zero_one_inputs_become_uint8(self, w):
        a = as_bits(w)
        assert a.dtype == np.uint8 and a.tolist() == [1, 0]

    @pytest.mark.parametrize("w, shape", [([[0, 1], [1, 0]], r"\(2, 2\)"), (1, r"\(\)"),
                                          (np.uint8(0), r"\(\)")])
    def test_rejects_non_vectors(self, w, shape):
        with pytest.raises(ValueError,
                           match=f"^a word must be one-dimensional, got shape {shape}$"):
            as_bits(w)

    @pytest.mark.parametrize("bad", [0.5, 2, -1])
    def test_rejects_non_bits_by_value_and_index(self, bad):
        with pytest.raises(ValueError,
                           match=rf"^bits must be 0 or 1, got {bad!r} at index 2$"):
            as_bits([0, 1, bad, 1])


@pytest.fixture(scope="module")
def small_scheme():
    return partial.make_partial_scheme(ldpc.build_gallager(56, 4, 7, seed=1), k_info=16,
                                       layout_seed=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=56, max_size=56), st.integers(0, 2**32 - 1))
def test_bitword_and_its_array_give_equal_results(small_scheme, bits, seed):
    # the functions that take a word read a BitWord and its to_array() alike
    w = BitWord(tuple(bits))
    a = w.to_array()
    model = channel.DriftModel(channel.MEAN_DRIFT, 0.2)
    block_w = channel.sample_levels(w, model, 0.3, seed)
    block_a = channel.sample_levels(a, model, 0.3, seed)
    assert np.array_equal(block_w.levels, block_a.levels)
    assert np.array_equal(block_w.truth, block_a.truth)
    y = channel.apply_bsc(w, 0.2, seed)
    assert np.array_equal(y, channel.apply_bsc(a, 0.2, seed))
    assert np.array_equal(channel.apply_bec(w, 0.3, seed), channel.apply_bec(a, 0.3, seed))
    assert (thresholds.error_counts(w, BitWord.from_array(y))
            == thresholds.error_counts(a, y))
    assert (thresholds.optimal_threshold_oracle(block_w.levels, w)
            == thresholds.optimal_threshold_oracle(block_a.levels, a))
    u = BitWord(tuple(bits[:16]))
    cw_w = partial.pb_encode(small_scheme, u)
    cw_a = partial.pb_encode(small_scheme, u.to_array())
    assert cw_w.u_tilde == cw_a.u_tilde
    for field in ("i_bits", "parity", "physical"):
        assert np.array_equal(getattr(cw_w, field), getattr(cw_a, field))
    for word in (cw_a.physical, a):
        res_w = partial.pb_decode(small_scheme, BitWord.from_array(word))
        res_a = partial.pb_decode(small_scheme, word)
        assert (res_w.ok, res_w.reason) == (res_a.ok, res_a.reason)
        assert np.array_equal(res_w.u, res_a.u) if res_w.ok else res_a.u is None


# Every public entry that takes bits, as (length of its word, call on that
# word, whether a 2-D block of words is legal); the code is small_scheme's.
MODEL = channel.DriftModel(channel.MEAN_DRIFT, 0.2)
BIT_ENTRIES = {
    "as_bits": (8, lambda s, w: as_bits(w), False),
    "BitWord.from_array": (8, lambda s, w: BitWord.from_array(w), False),
    "weight": (8, lambda s, w: weight(w), False),
    "knuth_encode": (8, lambda s, w: knuth_encode(w), False),
    "find_balancing_index": (8, lambda s, w: find_balancing_index(w), True),
    "balance": (8, lambda s, w: balance(w), True),
    "ldpc.encode": ("k", lambda s, w: ldpc.encode(s.code, w), False),
    "ldpc.balanced_encode": ("k", lambda s, w: ldpc.balanced_encode(s.code, w), False),
    "ldpc.bsc_llr": (8, lambda s, w: ldpc.bsc_llr(w, 0.1), False),
    "ldpc.syndrome": ("n", lambda s, w: ldpc.syndrome(s.code, w), True),
    "ldpc.balanced_decode_bsc": ("n", lambda s, w: ldpc.balanced_decode_bsc(s.code, w, 0.1),
                                 False),
    "mlc.bits_to_balanced": (8, lambda s, w: mlc.bits_to_balanced(w, 3), False),
    "bec.check_interval_sets": (8, lambda s, w: bec.check_interval_sets(range(8), w, 16),
                                False),
    "channel.sample_levels": (8, lambda s, w: channel.sample_levels(w, MODEL, 0.3, 1), False),
    "channel.apply_bsc": (8, lambda s, w: channel.apply_bsc(w, 0.1, 1), False),
    "channel.apply_bec": (8, lambda s, w: channel.apply_bec(w, 0.1, 1), False),
    "thresholds.error_counts x": (8, lambda s, w: thresholds.error_counts(w, [0] * 8), False),
    "thresholds.error_counts y": (8, lambda s, w: thresholds.error_counts([0] * 8, w), False),
    "thresholds.optimal_threshold_oracle":
        (8, lambda s, w: thresholds.optimal_threshold_oracle(np.linspace(0, 1, 8), w), False),
    "partial.pb_encode": ("k_info", lambda s, w: partial.pb_encode(s, w), False),
    "partial.pb_decode": ("n", lambda s, w: partial.pb_decode(s, w), False),
}


class TestOneBitRule:
    """Each entry rejects a non-bit by value and index with as_bits' message,
    and a block of words where it takes one word; none reads 0.5 or 2 as a
    bit."""

    @staticmethod
    def entry(scheme, name):
        length, call, block = BIT_ENTRIES[name]
        sizes = {"k": scheme.code.k, "n": scheme.n, "k_info": scheme.k_info}
        return sizes.get(length, length), lambda w: call(scheme, w), block

    @pytest.mark.parametrize("bad", [0.5, 2])
    @pytest.mark.parametrize("name", BIT_ENTRIES)
    def test_non_bit_named_by_value_and_index(self, small_scheme, name, bad):
        length, call, _ = self.entry(small_scheme, name)
        w = np.zeros(length, dtype=type(bad))
        w[3] = bad
        with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, got {bad!r} at index 3$"):
            call(w)
        with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, got {bad!r} at index 3$"):
            call(w.tolist())

    @pytest.mark.parametrize("name", BIT_ENTRIES)
    def test_word_blocks(self, small_scheme, name):
        length, call, block = self.entry(small_scheme, name)
        w = np.zeros((2, length), dtype=np.uint8)
        if block:
            w[1, 3] = 2
            with pytest.raises(ValueError,
                               match=rf"^bits must be 0 or 1, got 2 at index \(1, 3\)$"):
                call(w)
            with pytest.raises(ValueError, match=rf"got shape \(1, 2, {length}\)"):
                call(w[None] % 2)
        else:
            with pytest.raises(ValueError,
                               match=rf"^a word must be one-dimensional, got shape \(2, {length}\)$"):
                call(w)


class TestWholeNumberRule:
    """One rule reads whole numbers: a single value is named by value alone,
    a list entry by value and index."""

    @pytest.mark.parametrize("value, want", [(2, 2), (2.0, 2), (np.int64(3), 3),
                                             (np.float64(4.0), 4), (True, 1)])
    def test_whole_values_read_as_int(self, value, want):
        got = as_whole_number(value, "count")
        assert got == want and type(got) is int
        assert as_whole_numbers([1, value], "count") == [1, want]

    @pytest.mark.parametrize("bad", [float("nan"), 2.5, float("inf"), "3", None])
    def test_single_value_named_without_index(self, bad):
        with pytest.raises(ValueError, match=rf"^count {re.escape(repr(bad))} is not an integer$"):
            as_whole_number(bad, "count")
        with pytest.raises(ValueError,
                           match=rf"^count {re.escape(repr(bad))} at index 1 is not an integer$"):
            as_whole_numbers([1, bad], "count")

    def test_each_one_value_site_names_no_index(self):
        code = ldpc.build_gallager(8, 2, 4, seed=2)
        y = np.zeros(code.n, dtype=np.int8)
        sites = [
            ("enumeration budget nan", lambda: bec.bec_decode(code, y, budget=float("nan"))),
            ("inversion index 1.5", lambda: bec.genie_peel(code, y, 1.5)),
            ("block length 8.5", lambda: bec.check_interval_sets([1, 4], [0, 0], 8.5)),
            ("rank 2.5", lambda: mlc.unrank_multiset(2.5, (2, 2))),
            ("rank 1.5", lambda: encode_prefix(1.5, 4)),
            ("enumeration budget nan", lambda: harness.WerBecSpec(budget=float("nan"))),
            ("n 8.5", lambda: intervals.IntervalSet.full(8.5)),
            # these raised TypeError or AttributeError, or returned a value for 4.5
            ("max_iter 2.5", lambda: em.fit(np.arange(8.0), max_iter=2.5)),
            ("prefix length 2.5", lambda: invert_prefix(bw("0101"), 2.5)),
            ("alphabet size 2.5", lambda: mlc.unrank_balanced(0, 2.5, 2)),
            ("symbol count m 2.5", lambda: mlc.trace_bit_cost(4, 2.5)),
            ("alphabet size 4.5", lambda: mlc.redundancy_factor(4.5)),
            ("alphabet size 2.5", lambda: mlc.symbol_counts([0, 1], 2.5)),
            ("message length k 10.5", lambda: mlc.min_balanced_length(10.5, 3)),
            ("message length k 2.5", lambda: mlc.balanced_to_bits([0, 1, 1, 0], 2, 2.5)),
        ]
        for named, call in sites:
            with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
                call()


class TestRealNumberRule:
    @pytest.mark.parametrize("value", [0.25, np.float64(0.25), np.float32(0.25), 1, np.int64(1),
                                       True, float("inf")])
    def test_real_values_read_as_float(self, value):
        got = as_real(value, "sigma")
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("bad", ["0.2", None, 1j, [0.2]])
    def test_other_values_named(self, bad):
        named = re.escape(repr(bad))
        with pytest.raises(ValueError, match=rf"^sigma {named} is not a real number$"):
            as_real(bad, "sigma")
        with pytest.raises(ValueError, match=rf"^p_grid {named} at index 2 is not a real number$"):
            as_real(bad, "p_grid", 2)


class TestBinaryIndex:
    """The one conversion between an int and its bits, most significant first,
    shared by the partial-balanced index and the q-ary message codec."""

    @pytest.mark.parametrize("width", [1, 3, 8, 70])
    def test_round_trip(self, width):
        drawn = channel.make_rng(width).integers(0, 1 << min(width, 62), 20).tolist()
        for value in {0, 1, (1 << width) - 1, *drawn}:
            bits = int_to_bits(value, width)
            assert bits.dtype == np.uint8 and bits.shape == (width,)
            assert bits_to_int(bits) == value
            assert bits.tolist() == [int(ch) for ch in format(value, f"0{width}b")]

    def test_edges(self):
        assert bits_to_int([]) == 0 and bits_to_int(bw("0110")) == 6
        assert int_to_bits(6, 0).shape == (0,)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            bits_to_int([1, 2])


class TestBitWordEntries:
    def test_bools_normalised_to_ints(self):
        w = BitWord((True, False))
        assert str(w) == "10"
        assert w.bits == bytes((1, 0))
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


class TestByteLayout:
    def test_as_bits_views_the_bytes_read_only(self):
        w = bw("0110")
        a = as_bits(w)
        assert not a.flags.writeable
        assert np.shares_memory(a, np.frombuffer(w.bits, np.uint8))

    def test_bytes_rebuild_the_word(self):
        w = bw("100111")
        assert type(w.bits) is bytes and BitWord(w.bits) == w
        assert BitWord(w.bits).bits is w.bits
        for raw in (b"\x01\x02", b"01"):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitWord(raw)

    def test_from_array_of_10000_bits(self):
        bits = channel.make_rng(5).integers(0, 2, 10_000)
        w = BitWord.from_array(bits)
        assert w == BitWord(tuple(bits.tolist()))
        assert w.to_array().tolist() == bits.tolist()


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


class TestBalance:
    @given(even_words)
    def test_inverts_the_minimal_prefix(self, bits):
        w = BitWord(tuple(bits))
        x, i = balance(w.to_array())
        assert type(i) is int and i == brute_force_balancing_index(w)
        assert x.dtype == np.uint8 and x.tobytes() == invert_prefix(w, i).bits

    def test_rows_balanced_by_their_own_index(self):
        rows = np.array([[1, 1, 1, 1], [0, 1, 1, 0], [1, 0, 0, 0]], dtype=np.uint8)
        x, i = balance(rows)
        assert i.tolist() == [2, 0, 3]
        assert x.tolist() == [[0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 1, 0]]

    def test_input_left_alone(self):
        z = np.array([1, 1, 1, 1], dtype=np.uint8)
        x, _ = balance(z)
        assert z.tolist() == [1, 1, 1, 1] and x.tolist() == [0, 0, 1, 1]


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

    def test_non_integer_index_rejected(self):
        # 1.5 walked to the balanced prefix 0101
        with pytest.raises(ValueError, match=r"^rank 1\.5 is not an integer$"):
            encode_prefix(1.5, 4)

    def test_prefix_words_are_lexicographic(self):
        ws = [str(encode_prefix(i, 4)) for i in range(6)]
        assert ws == sorted(ws)
        assert ws[0] == "0011"
