import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bec_oracle
from balmod import bec, channel, ldpc
from balmod.channel import ERASURE
from balmod.intervals import IntervalSet
from balmod.words import BitWord, find_balancing_index

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


class TestGeniePeel:
    def test_no_erasures_round_trip(self, bec_code):
        u = channel.make_rng(31).integers(0, 2, bec_code.k)
        x, i = ldpc.balanced_encode(bec_code, u)
        z = bec.genie_peel(bec_code, x.to_array().astype(np.int8), i)
        expect, _ = stored_form(ldpc.encode(bec_code, u).to_array())
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
            assert np.array_equal(res.z.to_array(), z_true)
            assert res.i == i_true

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
                    assert (tuple(res.z.to_array()), res.i) in consistent
                peelable = bec.genie_peel(tiny_code, y, i) is not None
                if peelable and len(consistent) == 1:
                    assert res.status == bec.UNIQUE
                    assert np.array_equal(res.z.to_array(), z)
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
            z = res.z.to_array()
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
                assert np.array_equal(res.z.to_array(), g)
                agreements += 1
        assert agreements > 50


def same_peel(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def received_words(code, seed: int, trials: int):
    """Channel outputs of balanced codewords at erasure rates 0.2-0.5, and
    every fourth one replaced by a random non-codeword word with erasures,
    each with its true index (None for the random words)."""
    rng = channel.make_rng(seed)
    for p in (0.2, 0.3, 0.35, 0.4, 0.5):
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
        for shape, trials in (((64, 3, 4, 11), 12), ((128, 3, 4, 11), 8),
                              ((256, 3, 4, 11), 6), ((280, 4, 7, 1), 6),
                              ((1024, 3, 4, 11), 4))])
    def test_decode_and_peel_equal_oracle(self, shape, trials):
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        rng = channel.make_rng(40)
        statuses = set()
        for y, i_true in received_words(code, n, trials):
            for budget in (n + 1, 4):
                res = bec.bec_decode(code, y, budget=budget)
                assert res == bec_oracle.bec_decode(code, y, budget=budget)
                statuses.add((res.status, res.budget_exceeded))
            for i in {0, n, int(rng.integers(0, n + 1))} | ({i_true} - {None}):
                assert same_peel(bec.genie_peel(code, y, i),
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
            assert res == bec_oracle.bec_decode(bec_code, y, budget=bec_code.n + 1)
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
            assert res == bec_oracle.bec_decode(bec_code, y, budget=bec_code.n + 1)
            assert res.erasures_left == 0


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
        code = ldpc.build_gallager(64, 3, 4, seed=11)
        other = ldpc.build_gallager(64, 3, 4, seed=12)
        copy = dataclasses.replace(code)
        ldpc.save_code(code, tmp_path / "code.mtx")
        loaded = ldpc.load_code(tmp_path / "code.mtx")
        codes = (code, other, copy, loaded)
        y = np.zeros(64, dtype=np.int8)
        for c in codes:
            bec.bec_decode(c, y, budget=4)
        tables = [c._plans["flip_parity"] for c in codes]
        assert len({id(t) for t in tables}) == len(codes)
        assert not np.array_equal(tables[0], tables[1])
        assert np.array_equal(tables[0], tables[2])
        assert np.array_equal(tables[0], tables[3])
        bec.bec_decode(code, y, budget=4)
        assert code._plans["flip_parity"] is tables[0]


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
        assert res == bec_oracle.bec_decode(code, y, budget=code.n + 1)
        if g is not None and res.status == bec.UNIQUE:
            assert np.array_equal(res.z.to_array(), g)
            assert res.i == i_true

    @given(st.sampled_from(SMALL_CODES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_decode_equals_oracle_on_any_word(self, code, data):
        y = np.array(data.draw(st.lists(st.sampled_from((0, 1, ERASURE)),
                                        min_size=code.n, max_size=code.n)),
                     dtype=np.int8)
        budget = data.draw(st.integers(0, code.n + 1))
        assert (bec.bec_decode(code, y, budget=budget)
                == bec_oracle.bec_decode(code, y, budget=budget))
        i = data.draw(st.integers(0, code.n))
        assert same_peel(bec.genie_peel(code, y, i), bec_oracle.genie_peel(code, y, i))
