import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bec_oracle
from balmod import bec, channel, ldpc
from balmod.channel import ERASURE
from balmod.intervals import IntervalSet
from balmod.words import find_balancing_index

# small codes for the property tests, built once
SMALL_CODES = (ldpc.build_gallager(8, 2, 4, seed=2),
               ldpc.build_gallager(32, 3, 4, seed=11),
               ldpc.build_gallager(28, 4, 7, seed=1))


@pytest.fixture(scope="module")
def tiny_code():
    return ldpc.build_gallager(8, 2, 4, seed=2)


@pytest.fixture(scope="module")
def bec_code():
    return ldpc.build_gallager(64, 3, 4, seed=11)


def all_codewords(code) -> list[np.ndarray]:
    # brute-force span of the full null space, independent of the generator
    rref, pivots = ldpc.gf2_rref(code.H)
    basis, _ = ldpc._nullspace_basis(rref, pivots, code.n)
    dim = basis.shape[1]
    out = []
    for coeffs in itertools.product((0, 1), repeat=dim):
        out.append((basis @ np.array(coeffs, np.uint8)) % 2)
    return out


def stored_form(z: np.ndarray) -> tuple[np.ndarray, int]:
    i = find_balancing_index(z)
    x = z.copy()
    x[:i] ^= 1
    return x, i


class TestCheckIntervalSets:
    def test_even_parity_outer_runs(self):
        s = bec.check_interval_sets([1, 4], [0, 0], n=8)
        assert s.intervals == ((0, 2), (5, 9))

    def test_odd_parity_inner_run(self):
        s = bec.check_interval_sets([1, 4], [1, 0], n=8)
        assert s.intervals == ((2, 5),)

    def test_classes_partition_universe(self):
        rng = channel.make_rng(30)
        for _ in range(40):
            n = 20
            positions = np.sort(rng.choice(n, size=4, replace=False))
            vals = rng.integers(0, 2, 4)
            s = bec.check_interval_sets(positions, vals, n)
            flipped = vals.copy()
            flipped[0] ^= 1
            t = bec.check_interval_sets(positions, flipped, n)
            assert s.intersect(t).size == 0
            assert s.size + t.size == n + 1

    def test_membership_matches_flip_counting(self):
        positions, n = [2, 5, 11], 16
        vals = [1, 1, 0]
        s = bec.check_interval_sets(positions, vals, n)
        parity = sum(vals) % 2
        for i in range(n + 1):
            flipped = sum(1 for p in positions if p < i) % 2
            assert ((flipped == parity) == (i in s))

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            bec.check_interval_sets([1, 4], [0, ERASURE], n=8)

    def test_non_integer_position_rejected(self):
        # int() truncated 1.5 to 1, so [1.5, 4] gave the classes of [1, 4]
        with pytest.raises(ValueError, match=r"^position 1\.5 at index 0 is not an integer$"):
            bec.check_interval_sets([1.5, 4], [0, 0], n=8)
        assert bec.check_interval_sets(np.array([1.0, 4.0]), [0, 0], n=8).intervals == (
            (0, 2), (5, 9))

    def test_non_integer_length_rejected(self):
        # n was read only as the last bound: "interval end 9.5 at index 1"
        with pytest.raises(ValueError, match=r"^block length 8\.5 is not an integer$"):
            bec.check_interval_sets([1, 4], [0, 0], 8.5)
        assert bec.check_interval_sets([1, 4], [0, 0], np.float64(8.0)).intervals == (
            (0, 2), (5, 9))


class TestGeniePeel:
    def test_no_erasures_round_trip(self, bec_code):
        u = channel.make_rng(31).integers(0, 2, bec_code.k)
        x, i = ldpc.balanced_encode(bec_code, u)
        z = bec.genie_peel(bec_code, x.to_array().astype(np.int8), i)
        expect, _ = stored_form(ldpc.encode(bec_code, u))
        assert z is not None
        assert not ldpc.syndrome(bec_code, z).any()

    def test_fills_scattered_erasures(self, bec_code):
        rng = channel.make_rng(32)
        for trial in range(30):
            u = rng.integers(0, 2, bec_code.k)
            x, i = ldpc.balanced_encode(bec_code, u)
            z_true = x.to_array().copy()
            z_true[:i] ^= 1
            y = channel.apply_bec(x, 0.2, seed=(33, trial))
            z = bec.genie_peel(bec_code, y, i)
            if z is not None:
                assert np.array_equal(z, z_true)

    def test_reports_stopping_set(self, bec_code):
        y = np.full(bec_code.n, ERASURE, dtype=np.int8)
        assert bec.genie_peel(bec_code, y, 0) is None


class TestInversionSetDecoder:
    def test_no_erasures_unique(self, bec_code):
        rng = channel.make_rng(34)
        for _ in range(20):
            u = rng.integers(0, 2, bec_code.k)
            x, i_true = ldpc.balanced_encode(bec_code, u)
            res = bec.bec_decode(bec_code, x.to_array().astype(np.int8),
                                 budget=bec_code.n + 1)
            z_true = x.to_array().copy()
            z_true[:i_true] ^= 1
            assert res.status == bec.UNIQUE
            assert np.array_equal(res.z, z_true)
            assert res.i == i_true

    def test_words_are_uint8_arrays(self, bec_code):
        # like genie_peel's result, though the decoder works on int8 words
        x, i = ldpc.balanced_encode(bec_code, channel.make_rng(43).integers(0, 2, bec_code.k))
        y = channel.apply_bec(x, 0.3, seed=44)
        res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
        assert res.status == bec.UNIQUE and res.candidates
        for word in (res.z, bec.genie_peel(bec_code, y, i), *(z for z, _ in res.candidates)):
            assert type(word) is np.ndarray and word.dtype == np.uint8 and word.ndim == 1

    def test_all_erased_is_not_unique(self, bec_code):
        y = np.full(bec_code.n, ERASURE, dtype=np.int8)
        res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
        assert res.status != bec.UNIQUE

    def test_budget_overflow_reported(self, bec_code):
        y = np.full(bec_code.n, ERASURE, dtype=np.int8)
        res = bec.bec_decode(bec_code, y, budget=4)
        assert res.status == bec.AMBIGUOUS
        assert res.budget_exceeded

    def test_two_erasures_on_tiny_code_match_exhaustive_oracle(self, tiny_code):
        # every returned word must be oracle-consistent, and whenever the
        # planted pair is the oracle's unique consistent answer AND its
        # erasures are peelable with the index known, the decoder must find it
        words = all_codewords(tiny_code)
        decoded_planted = 0
        for z in words:
            x, i = stored_form(z)
            for e1, e2 in ((0, 5), (2, 3), (6, 7), (1, 4)):
                y = x.astype(np.int8).copy()
                y[e1] = y[e2] = ERASURE
                mask = y != ERASURE
                consistent = set()
                for zc in words:
                    xc, ic = stored_form(zc)
                    if np.array_equal(xc[mask], y[mask].astype(np.uint8)):
                        consistent.add((tuple(zc), ic))
                res = bec.bec_decode(tiny_code, y, budget=tiny_code.n + 1)
                if res.status == bec.UNIQUE:
                    assert (tuple(res.z), res.i) in consistent
                peelable = bec.genie_peel(tiny_code, y, i) is not None
                if peelable and len(consistent) == 1:
                    assert res.status == bec.UNIQUE
                    assert np.array_equal(res.z, z)
                    assert res.i == i
                    decoded_planted += 1
        assert decoded_planted > 0

    def test_unique_results_are_sound(self, bec_code):
        rng = channel.make_rng(36)
        uniques = 0
        for trial in range(60):
            u = rng.integers(0, 2, bec_code.k)
            x, _ = ldpc.balanced_encode(bec_code, u)
            y = channel.apply_bec(x, 0.35, seed=(37, trial))
            res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
            if res.status != bec.UNIQUE:
                continue
            uniques += 1
            z = res.z
            assert not ldpc.syndrome(bec_code, z).any()
            xr = z.copy()
            xr[:res.i] ^= 1
            assert 2 * int(xr.sum()) == bec_code.n
            assert find_balancing_index(z) == res.i
        assert uniques > 30

    def test_genie_equivalence(self, bec_code):
        rng = channel.make_rng(38)
        agreements = 0
        for trial in range(100):
            u = rng.integers(0, 2, bec_code.k)
            x, i_true = ldpc.balanced_encode(bec_code, u)
            z_true = x.to_array().copy()
            z_true[:i_true] ^= 1
            y = channel.apply_bec(x, 0.35, seed=(39, trial))
            g = bec.genie_peel(bec_code, y, i_true)
            res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
            if g is not None and res.status == bec.UNIQUE:
                assert np.array_equal(res.z, g)
                agreements += 1
        assert agreements > 50


def received_words(code, seed: int, trials: int, rates=(0.2, 0.3, 0.35, 0.4, 0.5)):
    """Channel outputs of balanced codewords at the given erasure rates, and
    every fourth one replaced by a random non-codeword word with erasures,
    each with its true index (None for the random words)."""
    rng = channel.make_rng(seed)
    for p in rates:
        for trial in range(trials):
            u = rng.integers(0, 2, code.k)
            x, i_true = ldpc.balanced_encode(code, u)
            y = channel.apply_bec(x, p, seed=(seed, int(100 * p), trial))
            if trial % 4 == 3:
                y = rng.integers(0, 2, code.n).astype(np.int8)
                y[rng.random(code.n) < p] = ERASURE
                i_true = None
            yield y, i_true


class TestMatchesOracle:
    @pytest.mark.parametrize("shape, trials", [
        pytest.param(shape, trials, id=",".join(map(str, shape[:3])))
        for shape, trials in (((60, 2, 4, 11), 12), ((64, 3, 4, 11), 12),
                              ((128, 3, 4, 11), 8), ((132, 3, 6, 11), 8),
                              ((256, 3, 4, 11), 6), ((280, 4, 7, 1), 6),
                              ((1024, 3, 4, 11), 4))])
    def test_decode_and_peel_equal_oracle(self, shape, trials):
        # degree-2 variables, six-neighbor checks, and at p = 0.6 waves in
        # which one check loses several erasures at once
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        rng = channel.make_rng(40)
        statuses = set()
        for y, i_true in received_words(code, n, trials, rates=(0.2, 0.3, 0.35, 0.4, 0.5, 0.6)):
            for budget in (n + 1, 4):
                res = bec.bec_decode(code, y, budget=budget)
                assert bec_oracle.same_result(
                    res, bec_oracle.bec_decode(code, y, budget=budget))
                statuses.add((res.status, res.budget_exceeded))
            for i in {0, n, int(rng.integers(0, n + 1))} | ({i_true} - {None}):
                assert bec_oracle.same_word(bec.genie_peel(code, y, i),
                                            bec_oracle.genie_peel(code, y, i))
        assert {(bec.UNIQUE, False), (bec.FAILURE, False)} <= statuses
        if n < 1024:
            assert (bec.AMBIGUOUS, True) in statuses

    def test_chunked_enumeration_equals_oracle(self, bec_code, monkeypatch):
        # small blocks: residual sets span several chunks of candidates
        monkeypatch.setattr(bec, "_ENUM_ROWS", 3)
        spans = 0
        for y, _ in received_words(bec_code, 41, 8):
            res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
            assert bec_oracle.same_result(
                res, bec_oracle.bec_decode(bec_code, y, budget=bec_code.n + 1))
            spans += res.residual_set_size > 3 and res.status != bec.FAILURE
        assert spans > 0

    def test_fully_observed_words(self, bec_code):
        # propagation fills every position: candidates come from the word itself
        rng = channel.make_rng(42)
        for trial in range(20):
            u = rng.integers(0, 2, bec_code.k)
            x, _ = ldpc.balanced_encode(bec_code, u)
            y = x.to_array().astype(np.int8)
            if trial % 2:
                y[rng.integers(0, bec_code.n, 2)] ^= 1
            res = bec.bec_decode(bec_code, y, budget=bec_code.n + 1)
            assert bec_oracle.same_result(
                res, bec_oracle.bec_decode(bec_code, y, budget=bec_code.n + 1))
            assert res.erasures_left == 0


@pytest.fixture(scope="module")
def stalled_words():
    """(code, y, oracle result) of the words whose propagation stops with
    erasures left and a residual set within the budget, so the known-index
    peel of the enumeration starts from a partly filled word."""
    out = []
    for n in (128, 256):
        code = ldpc.build_gallager(n, 3, 4, seed=11)
        for y, _ in received_words(code, 43, 24, rates=(0.35, 0.45)):
            ref = bec_oracle.bec_decode(code, y, budget=n + 1)
            if ref.erasures_left > 0 and 0 < ref.residual_set_size <= n + 1:
                out.append((code, y, ref))
    return out


class TestEnumerationStart:
    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_stalled_decodes_equal_oracle(self, stalled_words, rows, monkeypatch):
        # every fill made while I narrowed is forced for each i in I, so the
        # peel from the propagated word yields the raw word's feasible pairs
        if rows is not None:
            monkeypatch.setattr(bec, "_ENUM_ROWS", rows)
        assert len(stalled_words) >= 20
        for code, y, ref in stalled_words:
            assert bec_oracle.same_result(bec.bec_decode(code, y, budget=code.n + 1), ref)
        assert any(ref.candidates for *_, ref in stalled_words)


class TestFlipParityTable:
    @pytest.mark.parametrize("shape", [(64, 3, 4, 11), (28, 4, 7, 1)])
    def test_rows_are_interval_classes(self, shape):
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        table = bec._flip_parity(code)
        assert table.shape == (code.r, n + 1) and table.dtype == bool
        for c, nbrs in enumerate(code.check_nbrs):
            even = bec.check_interval_sets(nbrs, np.zeros(b, dtype=np.int8), n)
            odd = bec.check_interval_sets(nbrs, np.eye(1, b, dtype=np.int8)[0], n)
            assert set(np.nonzero(~table[c])[0]) == set(even.values())
            assert set(np.nonzero(table[c])[0]) == set(odd.values())

    def test_tables_never_shared(self, tmp_path):
        def arrays(c):
            """The flip-parity table and the two peeling-adjacency arrays."""
            return [c._plans["flip_parity"], *c._plans["peel_graph"]]

        code = ldpc.build_gallager(64, 3, 4, seed=11)
        other = ldpc.build_gallager(64, 3, 4, seed=12)
        copy = dataclasses.replace(code)
        ldpc.save_code(code, tmp_path / "code.mtx")
        loaded = ldpc.load_code(tmp_path / "code.mtx")
        codes = (code, other, copy, loaded)
        y = np.zeros(64, dtype=np.int8)
        for c in codes:
            bec.bec_decode(c, y, budget=4)
        per_code = [arrays(c) for c in codes]
        for tables in zip(*per_code):
            assert len({id(t) for t in tables}) == len(codes)
            assert not np.array_equal(tables[0], tables[1])
            assert np.array_equal(tables[0], tables[2])
            assert np.array_equal(tables[0], tables[3])
        bec.bec_decode(code, y, budget=4)
        assert all(t is u for t, u in zip(arrays(code), per_code[0]))


class TestInputValidation:
    def test_genie_peel_rejects_short_word(self, bec_code):
        with pytest.raises(ValueError, match="shape"):
            bec.genie_peel(bec_code, np.zeros(bec_code.n - 1, dtype=np.int8), 0)

    @pytest.mark.parametrize("bad", [2, -2, 0.5])
    def test_genie_peel_rejects_bad_entry(self, bec_code, bad):
        y = np.zeros(bec_code.n)
        y[5] = bad
        with pytest.raises(ValueError, match="entries"):
            bec.genie_peel(bec_code, y, 0)

    @pytest.mark.parametrize("i", [-1, 65, 500])
    def test_genie_peel_rejects_index_out_of_range(self, bec_code, i):
        with pytest.raises(ValueError, match="index"):
            bec.genie_peel(bec_code, np.zeros(bec_code.n, dtype=np.int8), i)

    def test_genie_peel_accepts_both_ends(self, bec_code):
        y = np.zeros(bec_code.n, dtype=np.int8)
        assert np.array_equal(bec.genie_peel(bec_code, y, 0), y)
        assert bec.genie_peel(bec_code, y, bec_code.n) is not None

    @pytest.mark.parametrize("bad", [2, -2, 0.5])
    def test_decode_rejects_bad_entry_anywhere(self, bec_code, bad):
        # an all-erased word has no fully observed check to trip over it
        y = np.full(bec_code.n, ERASURE, dtype=np.float64)
        y[7] = bad
        with pytest.raises(ValueError, match="entries"):
            bec.bec_decode(bec_code, y)

    def test_decode_rejects_wrong_length(self, bec_code):
        with pytest.raises(ValueError, match="shape"):
            bec.bec_decode(bec_code, np.zeros(bec_code.n + 1, dtype=np.int8))

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, "3", None])
    def test_decode_rejects_budget_not_whole(self, bec_code, budget):
        # a single value is named without a list index
        message = f"^enumeration budget {re.escape(repr(budget))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            bec.bec_decode(bec_code, np.zeros(bec_code.n, dtype=np.int8), budget=budget)

    def test_decode_reads_whole_float_budget(self, bec_code):
        y = np.full(bec_code.n, ERASURE, dtype=np.int8)
        y[:40] = 0
        assert bec_oracle.same_result(bec.bec_decode(bec_code, y, budget=2.0),
                                      bec.bec_decode(bec_code, y, budget=2))

    @pytest.mark.parametrize("i", [1.5, float("nan"), "2", None])
    def test_genie_peel_rejects_index_not_whole(self, bec_code, i):
        message = f"^inversion index {re.escape(repr(i))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            bec.genie_peel(bec_code, np.zeros(bec_code.n, dtype=np.int8), i)

    def test_genie_peel_reads_whole_float_index(self, bec_code):
        rng = channel.make_rng(44)
        x, i = ldpc.balanced_encode(bec_code, rng.integers(0, 2, bec_code.k))
        y = channel.apply_bec(x, 0.2, seed=(44, 1))
        assert bec_oracle.same_word(bec.genie_peel(bec_code, y, float(i)),
                                    bec.genie_peel(bec_code, y, i))

    def test_decode_rejects_negative_budget(self, bec_code):
        with pytest.raises(ValueError, match="budget"):
            bec.bec_decode(bec_code, np.zeros(bec_code.n, dtype=np.int8), budget=-3)
        assert bec.bec_decode(bec_code, np.zeros(bec_code.n, dtype=np.int8),
                              budget=0).budget_exceeded


class TestProperties:
    @given(st.sampled_from(SMALL_CODES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_unique_equals_genie_peel(self, code, data):
        u = data.draw(st.lists(st.integers(0, 1), min_size=code.k, max_size=code.k))
        erased = data.draw(st.lists(st.booleans(), min_size=code.n, max_size=code.n))
        x, i_true = ldpc.balanced_encode(code, np.array(u))
        y = x.to_array().astype(np.int8)
        y[np.array(erased)] = ERASURE
        g = bec.genie_peel(code, y, i_true)
        res = bec.bec_decode(code, y, budget=code.n + 1)
        assert bec_oracle.same_result(res, bec_oracle.bec_decode(code, y, budget=code.n + 1))
        if g is not None and res.status == bec.UNIQUE:
            assert np.array_equal(res.z, g)
            assert res.i == i_true

    @given(st.sampled_from(SMALL_CODES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_decode_equals_oracle_on_any_word(self, code, data):
        y = np.array(data.draw(st.lists(st.sampled_from((0, 1, ERASURE)),
                                        min_size=code.n, max_size=code.n)),
                     dtype=np.int8)
        budget = data.draw(st.integers(0, code.n + 1))
        assert bec_oracle.same_result(bec.bec_decode(code, y, budget=budget),
                                      bec_oracle.bec_decode(code, y, budget=budget))
        i = data.draw(st.integers(0, code.n))
        assert bec_oracle.same_word(bec.genie_peel(code, y, i), bec_oracle.genie_peel(code, y, i))
