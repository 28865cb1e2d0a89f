import collections
import dataclasses
import re
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from balmod import channel, ldpc
from balmod.words import BitWord, find_balancing_index, invert_prefix, weight
import bp_oracle
from score_oracle import check_products, exact_sum, flooding_round, lambda_scores_scratch

# small codes for the noise-free property, built once
NOISE_FREE_CODES = (ldpc.build_gallager(8, 2, 4, seed=2),
                    ldpc.build_gallager(28, 4, 7, seed=1),
                    ldpc.build_gallager(32, 3, 4, seed=11))


@pytest.fixture(scope="module")
def small_code():
    return ldpc.build_gallager(28, 2, 7, seed=1)


@pytest.fixture(scope="module")
def mid_code():
    return ldpc.build_gallager(56, 2, 7, seed=3)


@pytest.fixture(scope="module")
def full_scale_code():
    return ldpc.build_gallager(280, 4, 7, seed=1)


@pytest.fixture(scope="module")
def long_code():
    return ldpc.build_gallager(1120, 4, 7, seed=1)


def loop_construction(n, a, b, seed):
    """The Gallager draw, null-space basis and graph maps of build_gallager,
    written as explicit loops over rows, free columns and edges."""
    rows_per = n // b
    base = np.zeros((rows_per, n), dtype=np.uint8)
    for i in range(rows_per):
        base[i, i * b:(i + 1) * b] = 1
    for attempt in range(32):
        rng = channel.make_rng(seed + attempt)
        H = np.vstack([base] + [base[:, rng.permutation(n)] for _ in range(a - 1)])
        rref, pivots = ldpc.gf2_rref(H)
        if a * rows_per - len(pivots) == a - 1:
            break
    free = [c for c in range(n) if c not in set(pivots)]
    basis = np.zeros((n, len(free)), dtype=np.uint8)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
        for t, pc in enumerate(pivots):
            basis[pc, idx] = rref[t, f]
    k = n - H.shape[0]
    check_nbrs = np.array([np.flatnonzero(row) for row in H])
    var_edge_ids = np.array([[c * b + list(check_nbrs[c]).index(v)
                              for c in np.flatnonzero(H[:, v])] for v in range(n)])
    return {"H": H, "G": basis[:, :k], "message_positions": np.array(free[:k]),
            "rank": len(pivots), "check_nbrs": check_nbrs, "var_edge_ids": var_edge_ids}


class TestConstruction:
    @pytest.mark.parametrize("n, a, b, seed", [
        (28, 4, 7, 1), (280, 4, 7, 1), (1120, 4, 7, 1), (256, 3, 4, 11)])
    def test_matches_loop_construction(self, n, a, b, seed):
        code = ldpc.build_gallager(n, a, b, seed)
        for name, want in loop_construction(n, a, b, seed).items():
            assert np.array_equal(getattr(code, name), want), name

    def test_regular_weights(self, small_code):
        assert np.all(small_code.H.sum(axis=0) == 2)
        assert np.all(small_code.H.sum(axis=1) == 7)

    def test_generator_consistency(self, small_code):
        rng = channel.make_rng(10)
        for _ in range(100):
            u = rng.integers(0, 2, small_code.k)
            z = ldpc.encode(small_code, u)
            assert not ldpc.syndrome(small_code, z).any()

    @pytest.mark.parametrize("shape", [(8, 2, 4, 2), (28, 2, 7, 1), (28, 4, 7, 1),
                                       (32, 3, 4, 11), (56, 2, 7, 3), (64, 8, 16, 1),
                                       (70, 4, 7, 2), (256, 3, 4, 11), (280, 4, 7, 1),
                                       (1120, 4, 7, 1)])
    def test_packed_encode_equals_generator_product(self, shape):
        # k = 4, 20 and 12 on the first three codes: a partly filled last byte
        code = ldpc.build_gallager(*shape)
        rng = channel.make_rng((12, shape[0]))
        msgs = [np.zeros(code.k, dtype=int), np.ones(code.k, dtype=int)]
        msgs += [rng.integers(0, 2, code.k) for _ in range(20)]
        for u in msgs:
            z = ldpc.encode(code, u)
            assert z.dtype == np.uint8 and np.array_equal(z, code.G @ u.astype(np.uint8) % 2)
        # bools and exact float bits are bits too; the packed table is cached
        packed = code._plans["encode"]
        assert np.array_equal(ldpc.encode(code, u.astype(bool)), z)
        assert np.array_equal(ldpc.encode(code, u.astype(float)), z)
        assert code._plans["encode"] is packed

    @pytest.mark.parametrize("value", [2, -1, 255, 0.5, float("nan")])
    def test_non_binary_message_rejected(self, small_code, value):
        # 2 encoded as 0 and -1 as 1
        u = np.zeros(small_code.k, dtype=type(value))
        u[[3, 7]] = value
        message = rf"^bits must be 0 or 1, got {value!r} at index 3$"
        with pytest.raises(ValueError, match=message):
            ldpc.encode(small_code, u)
        with pytest.raises(ValueError, match=message):
            ldpc.balanced_encode(small_code, u)

    def test_paper_scale_shape(self, full_scale_code):
        assert full_scale_code.r == 160
        assert full_scale_code.n == 280
        assert full_scale_code.k == 120
        # codes compare and hash by identity, never by their arrays
        copy = dataclasses.replace(full_scale_code)
        assert full_scale_code == full_scale_code and full_scale_code != copy
        assert len({full_scale_code, copy, full_scale_code}) == 2

    def test_message_bits_verbatim(self, small_code):
        rng = channel.make_rng(11)
        u = rng.integers(0, 2, small_code.k)
        z = ldpc.encode(small_code, u)
        assert np.array_equal(z[small_code.message_positions], u)

    def test_rank_deficit_is_structural(self, full_scale_code):
        assert full_scale_code.r - full_scale_code.rank == full_scale_code.a - 1

    def test_syndrome_is_dense_parity(self, full_scale_code):
        rng = channel.make_rng(32)
        for _ in range(20):
            w = rng.integers(0, 2, full_scale_code.n).astype(np.uint8)
            syn = ldpc.syndrome(full_scale_code, w)
            assert syn.dtype == np.uint8
            assert np.array_equal(syn, full_scale_code.H @ w % 2)
        with pytest.raises(ValueError):
            ldpc.syndrome(full_scale_code, w[:-1])

    def test_syndrome_of_rows(self, full_scale_code):
        words = channel.make_rng(33).integers(0, 2, (6, full_scale_code.n)).astype(np.uint8)
        syn = ldpc.syndrome(full_scale_code, words)
        assert syn.shape == (6, full_scale_code.r)
        for w, s in zip(words, syn):
            assert np.array_equal(s, ldpc.syndrome(full_scale_code, w))
        with pytest.raises(ValueError):
            ldpc.syndrome(full_scale_code, words[None])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ldpc.build_gallager(27, 2, 7, seed=1)
        with pytest.raises(ValueError):
            ldpc.build_gallager(28, 1, 7, seed=1)
        for n in (0, -7):
            with pytest.raises(ValueError, match="n must be a positive multiple of the row weight b"):
                ldpc.build_gallager(n, 4, 7, seed=1)
        # whole floats read as ints; any other value is named
        assert np.array_equal(ldpc.build_gallager(28.0, 4, 7, 1.0).H,
                              ldpc.build_gallager(28, 4, 7, 1).H)
        with pytest.raises(ValueError, match="^seed 1.5 is not an integer$"):
            ldpc.build_gallager(28, 4, 7, seed=1.5)


class TestBalancedEncode:
    def test_weight_and_membership(self, mid_code):
        rng = channel.make_rng(12)
        for _ in range(50):
            u = rng.integers(0, 2, mid_code.k)
            x, i = ldpc.balanced_encode(mid_code, u)
            assert weight(x) == mid_code.n // 2
            z = x.to_array().copy()
            z[:i] ^= 1
            assert not ldpc.syndrome(mid_code, z).any()
            # minimality: no smaller index also balances
            for j in range(i):
                w = z.copy()
                w[:j] ^= 1
                assert int(w.sum()) != mid_code.n // 2

    def test_balanced_codeword_needs_no_inversion(self, mid_code):
        rng = channel.make_rng(13)
        for _ in range(300):
            u = rng.integers(0, 2, mid_code.k)
            z = ldpc.encode(mid_code, u)
            if 2 * int(z.sum()) == mid_code.n:
                x, i = ldpc.balanced_encode(mid_code, u)
                assert i == 0
                assert np.array_equal(x.to_array(), z)
                break
        else:
            pytest.fail("no balanced codeword sampled")

    def test_all_ones_word_inverts_half(self):
        assert find_balancing_index(np.ones(20, dtype=np.uint8)) == 10

    def test_balancing_index_of_rows(self):
        # the definition: the first i whose prefix inversion has weight n/2
        rng = channel.make_rng(34)
        for n in (2, 10, 64):
            words = rng.integers(0, 2, (40, n)).astype(np.uint8)
            expect = [next(i for i in range(n)
                           if weight(invert_prefix(BitWord.from_array(w), i)) == n // 2)
                      for w in words]
            assert find_balancing_index(words).tolist() == expect
            assert [find_balancing_index(w) for w in words] == expect
            assert all(type(find_balancing_index(w)) is int for w in words)
        with pytest.raises(ValueError):
            find_balancing_index(np.ones(7, dtype=np.uint8))


class TestBeliefPropagation:
    def test_noiseless_converges_first_iteration(self, full_scale_code):
        u = channel.make_rng(14).integers(0, 2, full_scale_code.k)
        z = ldpc.encode(full_scale_code, u)
        llr = np.where(z == 0, 1e9, -1e9)
        res = ldpc.bp_decode(full_scale_code, llr)
        assert res.satisfied and res.iterations == 1
        assert np.array_equal(res.word, z)

    def test_single_flip_corrected(self, full_scale_code):
        rng = channel.make_rng(15)
        for trial in range(10):
            u = rng.integers(0, 2, full_scale_code.k)
            z = ldpc.encode(full_scale_code, u)
            y = z.copy()
            y[int(rng.integers(0, full_scale_code.n))] ^= 1
            res = ldpc.bp_decode(full_scale_code, ldpc.bsc_llr(y, 0.01))
            assert res.satisfied
            assert np.array_equal(res.word, z)

    def test_bsc_llr_constants(self):
        p = 0.1
        llr = ldpc.bsc_llr([0, 1, 0], p)
        mag = np.log((1 - p) / p)
        assert llr == pytest.approx([mag, -mag, mag])

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, full_scale_code, max_iter):
        # zero iterations would report every word, codewords too, as unsatisfied
        llr = np.ones(full_scale_code.n)
        with pytest.raises(ValueError, match="max_iter"):
            ldpc.bp_decode(full_scale_code, llr, max_iter=max_iter)
        for num_candidates in (4, None):
            with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
                ldpc.balanced_decode(full_scale_code, llr, num_candidates=num_candidates,
                                     max_iter=max_iter)

    def test_bsc_llr_validates_p(self):
        with pytest.raises(ValueError):
            ldpc.bsc_llr([0, 1], 0.6)

    def test_nan_llr_rejected(self, small_code):
        # a NaN compares false everywhere: BP read it as a satisfied word
        llr = np.ones(small_code.n)
        llr[5] = np.nan
        with pytest.raises(ValueError, match="llr holds 1 NaN value.*index 5"):
            ldpc.bp_decode(small_code, llr)

    def test_infinite_llr_clips(self, small_code):
        llr = channel.make_rng(32).normal(0, 4, small_code.n)
        llr[[2, 9]] = np.inf, -np.inf
        clipped = llr.copy()
        clipped[[2, 9]] = ldpc.LLR_CLIP, -ldpc.LLR_CLIP
        got, want = ldpc.bp_decode(small_code, llr), ldpc.bp_decode(small_code, clipped)
        assert np.array_equal(got.word, want.word)
        assert (got.satisfied, got.iterations) == (want.satisfied, want.iterations)
        assert np.array_equal(ldpc.lambda_scores(small_code, llr, 2),
                              ldpc.lambda_scores(small_code, clipped, 2))


def _noisy_llrs(code, rng, count: int, kind: str) -> np.ndarray:
    """LLRs of random codewords: Gaussian around +-2, or BSC reads at p = 0.07.
    Most rows converge, each after its own number of iterations."""
    rows = []
    for _ in range(count):
        z = ldpc.encode(code, rng.integers(0, 2, code.k))
        if kind == "gauss":
            rows.append((1.0 - 2.0 * z) * 2.0 + rng.normal(0, 1.6, code.n))
        else:
            rows.append(ldpc.bsc_llr(z ^ (rng.random(code.n) < 0.07), 0.07))
    return np.array(rows)


def _assert_kernel_matches_oracle(code, llrs, max_iter=50):
    """The batch kernel, and bp_decode row by row, equal the oracle exactly."""
    clipped = np.clip(llrs, -ldpc.LLR_CLIP, ldpc.LLR_CLIP)
    words, satisfied, iterations = ldpc._bp_rows(code, clipped, max_iter)
    ref = [bp_oracle.bp_decode(code, llr, max_iter=max_iter) for llr in llrs]
    assert np.array_equal(words, np.array([res.word for res in ref]))
    assert np.array_equal(satisfied, [res.satisfied for res in ref])
    assert np.array_equal(iterations, [res.iterations for res in ref])
    for llr, want in zip(llrs, ref):
        got = ldpc.bp_decode(code, llr, max_iter=max_iter)
        assert np.array_equal(got.word, want.word) and got.word.dtype == np.uint8
        assert (got.satisfied, got.iterations) == (want.satisfied, want.iterations)
    return iterations


def _same_decode(got, want) -> bool:
    same_word = (got.z is None and want.z is None) or (
        np.array_equal(got.z, want.z) and np.array_equal(got.u, want.u))
    return (same_word and (got.ok, got.i, got.candidates, got.score)
            == (want.ok, want.i, want.candidates, want.score))


class TestBpKernel:
    """The batched kernel against the one-word loop in bp_oracle, exactly."""

    @pytest.mark.parametrize("n", [280, 1120])
    @pytest.mark.parametrize("kind", ["gauss", "bsc"])
    def test_matches_oracle_at_paper_scale(self, n, kind):
        code = ldpc.build_gallager(n, 4, 7, seed=1)
        rng = channel.make_rng((36, n, kind == "bsc"))
        iterations = _assert_kernel_matches_oracle(code, _noisy_llrs(code, rng, 40, kind))
        # rows retire at many different iterations within one batch
        assert len(set(iterations.tolist())) >= 4

    @pytest.mark.parametrize("shape", [(28, 4, 7, 1), (256, 3, 4, 11), (56, 2, 7, 3),
                                       (64, 8, 16, 1)])
    @pytest.mark.parametrize("kind", ["gauss", "bsc"])
    def test_matches_oracle_for_other_column_weights(self, shape, kind):
        # at a = 8 a left-to-right sum of the incoming messages differs from
        # numpy's pairwise sum; both the kernel and the oracle add left to right
        code = ldpc.build_gallager(*shape)
        rng = channel.make_rng((37, shape[0], kind == "bsc"))
        _assert_kernel_matches_oracle(code, _noisy_llrs(code, rng, 40, kind))

    @pytest.mark.parametrize("shape", [(56, 2, 7, 3), (280, 4, 7, 1), (64, 8, 16, 1)])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5])
    def test_posteriors_equal_flooding_rounds_bit_for_bit(self, shape, max_iter):
        # hard words cannot see the order in which a posterior is summed: the
        # kernel's posterior after its last iteration is pinned to the oracle's
        # after as many rounds, every bit of every float (a = 8 sums pairwise
        # in numpy, so this code catches a sum other than left to right)
        code = ldpc.build_gallager(*shape)
        rng = channel.make_rng((50, shape[0], max_iter))
        for llr in _noisy_llrs(code, rng, 20, "gauss"):
            L = np.clip(llr, -ldpc.LLR_CLIP, ldpc.LLR_CLIP)[None]
            _, _, iterations = ldpc._bp_rows(code, L, max_iter)
            m = L[:, code.check_nbrs.ravel()]
            for _ in range(iterations[0]):
                post, m = flooding_round(code, L, m)
            got = code._plans["bp", 1].post
            assert np.array_equal(got.view(np.int64), post.view(np.int64))

    def test_column_weight_one_code_decodes(self):
        # load_code reads an a = 1 listing (build_gallager draws a >= 2); BP
        # indexed a second incoming message that such a code lacks
        H = np.kron(np.eye(2, dtype=np.uint8), np.ones((1, 4), dtype=np.uint8))
        code = ldpc._assemble(H, 1, 4, 0, 0)
        _assert_kernel_matches_oracle(code, channel.make_rng(49).normal(0, 2, (8, code.n)))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_matches_oracle_at_small_max_iter(self, full_scale_code, max_iter):
        rng = channel.make_rng((38, max_iter))
        llrs = np.concatenate([_noisy_llrs(full_scale_code, rng, 20, "bsc"),
                               _noisy_llrs(full_scale_code, rng, 20, "gauss")])
        _assert_kernel_matches_oracle(full_scale_code, llrs, max_iter=max_iter)

    def test_syndrome_clearing_at_max_iter_is_satisfied(self, full_scale_code):
        rng = channel.make_rng(39)
        llrs = _noisy_llrs(full_scale_code, rng, 30, "bsc")
        its = [bp_oracle.bp_decode(full_scale_code, llr).iterations for llr in llrs]
        row = next(k for k, it in enumerate(its) if 3 <= it < 50)
        # the row clears on its last allowed iteration, in a batch with rows
        # that retire before it and rows that never clear
        words, satisfied, iterations = ldpc._bp_rows(full_scale_code, llrs, its[row])
        assert satisfied[row] and iterations[row] == its[row]
        assert not satisfied.all() and (iterations < its[row]).any()
        _assert_kernel_matches_oracle(full_scale_code, llrs, max_iter=its[row])
        _, satisfied, iterations = ldpc._bp_rows(full_scale_code, llrs, its[row] - 1)
        assert not satisfied[row] and iterations[row] == its[row] - 1

    def test_llr_shape_checked(self, full_scale_code):
        with pytest.raises(ValueError, match=r"llr shape \(279,\) != \(280,\)"):
            ldpc.bp_decode(full_scale_code, np.ones(279))
        # one word's worth of LLRs in another shape is not one word
        with pytest.raises(ValueError, match=r"llr shape \(2, 140\) != \(280,\)"):
            ldpc.bp_decode(full_scale_code, np.ones((2, 140)))
        with pytest.raises(ValueError, match=r"llr shape \(279,\) != \(280,\)"):
            ldpc.balanced_decode(full_scale_code, np.ones(279), num_candidates=None)

    @pytest.mark.parametrize("llrs", ["bsc", "gaussian"])
    def test_balanced_decode_matches_serial_oracle(self, full_scale_code, llrs):
        # Gaussian LLRs are arbitrary floats, so their scores pin the order in
        # which each row's correlation is summed
        def observe(code, rng):
            x = ldpc.balanced_encode(code, rng.integers(0, 2, code.k))[0].to_array()
            if llrs == "bsc":
                return ldpc.bsc_llr(x ^ (rng.random(code.n) < 0.06).astype(np.uint8), 0.06)
            sigma = 0.7
            return 2.0 * (1.0 - 2.0 * x + sigma * rng.standard_normal(code.n)) / sigma ** 2

        rng = channel.make_rng(40)
        for trial in range(30):
            llr = observe(full_scale_code, rng)
            depth, c = (1 + trial % 3, (4, 2, 8)[trial % 3])
            got = ldpc.balanced_decode(full_scale_code, llr, depth=depth, num_candidates=c)
            want = bp_oracle.balanced_decode(full_scale_code, llr, depth=depth, num_candidates=c)
            assert _same_decode(got, want), trial
        # the exhaustive decoder, where many rows decode to one word
        small = ldpc.build_gallager(28, 4, 7, seed=1)
        for trial in range(10):
            llr = observe(small, rng)
            got = ldpc.balanced_decode(small, llr, num_candidates=None)
            want = bp_oracle.balanced_decode(small, llr, num_candidates=None)
            assert _same_decode(got, want), trial

    @pytest.mark.parametrize("shape, trials", [((28, 4, 7, 1), 20), ((56, 2, 7, 3), 20),
                                               ((280, 4, 7, 1), 2)])
    def test_exhaustive_matches_serial_oracle(self, shape, trials):
        # n = 280 runs its shifts in several blocks of _BP_BLOCK rows
        code = ldpc.build_gallager(*shape)
        rng = channel.make_rng((41, shape[0]))
        for trial in range(trials):
            x, _ = ldpc.balanced_encode(code, rng.integers(0, 2, code.k))
            noise = (rng.random(code.n) < 0.05).astype(np.uint8)
            llr = ldpc.bsc_llr(x.to_array() ^ noise, 0.05)
            got = ldpc.balanced_decode(code, llr, num_candidates=None)
            want = bp_oracle.balanced_decode(code, llr, num_candidates=None)
            assert _same_decode(got, want), trial

    @pytest.mark.parametrize("shape", [(56, 2, 7, 3), (70, 4, 7, 2)])
    def test_window_rule_matches_oracle(self, shape, monkeypatch):
        # K = 2 and w = 3 put these codes above the rule's bound 2K(2w + 1) = 28;
        # the oracle scores the windows with the per-shift reference
        monkeypatch.setattr(ldpc, "_WINDOW_PEAKS", 2)
        monkeypatch.setattr(ldpc, "_WINDOW_HALF", 3)
        code = ldpc.build_gallager(*shape)
        rng = channel.make_rng((53, shape[0]))
        for trial in range(12):
            x = ldpc.balanced_encode(code, rng.integers(0, 2, code.k))[0].to_array()
            if trial % 2:
                llr = ldpc.bsc_llr(x ^ (rng.random(code.n) < 0.05).astype(np.uint8), 0.05)
            else:
                llr = 2.0 * (1.0 - 2.0 * x) + rng.normal(0, 1.5, code.n)
            depth = 2 + trial % 4 // 2
            windows = ldpc._score_windows(code, np.clip(llr, -30, 30), depth)
            assert windows is not None and (windows[:, 1] - windows[:, 0] + 1).sum() <= code.n // 2
            got = ldpc.balanced_decode(code, llr, depth=depth)
            want = bp_oracle.balanced_decode(code, llr, depth=depth)
            assert _same_decode(got, want), trial
            assert all(any(lo <= j <= hi for lo, hi in windows) for j in got.candidates)

    def test_decisions_below_the_bound_use_every_shift(self, full_scale_code, monkeypatch):
        # n = 280 < 2K(2w + 1) = 1056: the decoder's candidates are those of
        # the all-shift scores, as before the rule
        rng = channel.make_rng(54)
        for llr in _mixed_llrs(rng, full_scale_code.n, 6):
            for depth in (1, 2, 3):
                assert ldpc._score_windows(full_scale_code, np.clip(llr, -30, 30), depth) is None
            cands = ldpc.candidate_inversions(ldpc.lambda_scores(full_scale_code, llr, 2), 4)
            assert ldpc.balanced_decode(full_scale_code, llr).candidates == tuple(cands)
        # the bound itself: K = 2, w = 3 windows n = 28, w = 4 does not
        code = ldpc.build_gallager(28, 4, 7, seed=1)
        clipped = np.clip(next(_mixed_llrs(rng, code.n, 1)), -30, 30)
        monkeypatch.setattr(ldpc, "_WINDOW_PEAKS", 2)
        monkeypatch.setattr(ldpc, "_WINDOW_HALF", 3)
        assert ldpc._score_windows(code, clipped, 2) is not None
        assert ldpc._score_windows(code, clipped, 1) is None
        monkeypatch.setattr(ldpc, "_WINDOW_HALF", 4)
        assert ldpc._score_windows(code, clipped, 2) is None

    def test_first_convergence_rule_matches_oracle(self):
        # on this toy code the rule changes some winners: a wrong codeword that
        # converges first now beats a likelier one that converges later
        code = ldpc.build_gallager(28, 4, 7, seed=1)
        rng = channel.make_rng(42)
        changed = 0
        for trial in range(100):
            x, _ = ldpc.balanced_encode(code, rng.integers(0, 2, code.k))
            noise = (rng.random(code.n) < 0.06).astype(np.uint8)
            llr = ldpc.bsc_llr(x.to_array() ^ noise, 0.06)
            want = bp_oracle.balanced_decode(code, llr)
            assert _same_decode(ldpc.balanced_decode(code, llr), want), trial
            # the rule before: every satisfied candidate row competes
            cands, results = bp_oracle.candidate_decodes(code, llr)
            changed += not _same_decode(bp_oracle.pick_winner(code, llr, cands, results), want)
        assert changed > 0

    def test_first_convergence_stop_covers_every_candidate(self, full_scale_code, monkeypatch):
        calls = []

        def spy(code, L, max_iter, first_stop=False):
            calls.append((len(L), first_stop))
            return bp_rows(code, L, max_iter, first_stop=first_stop)

        bp_rows = ldpc._bp_rows
        monkeypatch.setattr(ldpc, "_bp_rows", spy)
        rng = channel.make_rng(43)
        for trial in range(6):
            x, _ = ldpc.balanced_encode(full_scale_code, rng.integers(0, 2, full_scale_code.k))
            noise = (rng.random(full_scale_code.n) < 0.07).astype(np.uint8)
            llr = ldpc.bsc_llr(x.to_array() ^ noise, 0.07)
            calls.clear()
            got = ldpc.balanced_decode(full_scale_code, llr, num_candidates=40)
            # more candidates than an exhaustive block, all in one stopping batch
            assert len(got.candidates) == 40 > ldpc._BP_BLOCK
            assert calls == [(40, True)]
            want = bp_oracle.balanced_decode(full_scale_code, llr, num_candidates=40)
            assert _same_decode(got, want), trial
        # the exhaustive decoder keeps its blocks and lets every row run on
        calls.clear()
        ldpc.balanced_decode(full_scale_code, llr, num_candidates=None)
        assert calls == [(min(ldpc._BP_BLOCK, full_scale_code.n - start), False)
                         for start in range(0, full_scale_code.n, ldpc._BP_BLOCK)]

    def test_first_stop_leaves_at_first_convergence(self, full_scale_code):
        rng = channel.make_rng(44)
        llrs = _noisy_llrs(full_scale_code, rng, 30, "bsc")
        ref = [bp_oracle.bp_decode(full_scale_code, llr) for llr in llrs]
        its = np.array([res.iterations for res in ref])
        own_sat = np.array([res.satisfied for res in ref])
        first = its[own_sat].min()
        # the rows converge at different iterations, some never
        assert len(set(its[own_sat].tolist())) >= 3 and not own_sat.all()
        clipped = np.clip(llrs, -ldpc.LLR_CLIP, ldpc.LLR_CLIP)
        words, satisfied, iterations = ldpc._bp_rows(full_scale_code, clipped, 50,
                                                     first_stop=True)
        assert (iterations == first).all()
        assert np.array_equal(satisfied, own_sat & (its == first))
        assert 0 < satisfied.sum() < len(llrs)
        # every row is the hard decision a one-row decode has after that many
        # iterations, and so is every row when max_iter comes first
        for max_iter in (first, first - 1):
            got = ldpc._bp_rows(full_scale_code, clipped, max_iter, first_stop=True)
            want = [bp_oracle.bp_decode(full_scale_code, llr, max_iter=max_iter) for llr in llrs]
            assert np.array_equal(got[0], np.array([res.word for res in want]))
            assert np.array_equal(got[1], [res.satisfied for res in want])
            assert np.array_equal(got[2], [res.iterations for res in want])

    def test_results_share_nothing_with_the_plan(self, full_scale_code):
        rng = channel.make_rng(45)
        llrs = np.clip(_noisy_llrs(full_scale_code, rng, 8, "bsc"), -ldpc.LLR_CLIP,
                       ldpc.LLR_CLIP)
        first = ldpc._bp_rows(full_scale_code, llrs[:4], 50)
        want = [out.copy() for out in first]
        one = ldpc.bp_decode(full_scale_code, llrs[0])
        one_word = one.word.copy()
        # later calls on the same plans leave the returned arrays as they were
        ldpc._bp_rows(full_scale_code, llrs[4:], 50, first_stop=True)
        ldpc.bp_decode(full_scale_code, llrs[1])
        for got, expect in zip(first, want):
            assert np.array_equal(got, expect)
        assert np.array_equal(one.word, one_word)
        tables = [table for size in (1, 4)
                  for _, table in _plan_tables(full_scale_code._plans["bp", size])]
        for out in (*first, one.word):
            assert not any(np.shares_memory(out, table) for table in tables)

    def test_warm_call_allocates_little(self, long_code):
        # a call writes its plan's tables in place; only its results and the
        # rows recorded at an iteration are fresh
        rng = channel.make_rng(46)
        llrs = np.clip(_noisy_llrs(long_code, rng, 4, "bsc"), -ldpc.LLR_CLIP, ldpc.LLR_CLIP)
        calls = {"bp_decode": lambda: ldpc.bp_decode(long_code, llrs[0]),
                 "4 rows": lambda: ldpc._bp_rows(long_code, llrs, 50, first_stop=True)}
        for name, call in calls.items():
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 256 << 10, (name, peak)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_first_stop_matches_oracle_for_small_batches(self, full_scale_code, size):
        # the top-c decoder's batch sizes, each on its own plan
        rng = channel.make_rng((47, size))
        for trial in range(6):
            llrs = np.clip(_noisy_llrs(full_scale_code, rng, size, "bsc"), -ldpc.LLR_CLIP,
                           ldpc.LLR_CLIP)
            ref = [bp_oracle.bp_decode(full_scale_code, llr) for llr in llrs]
            first = min((res.iterations for res in ref if res.satisfied), default=50)
            want = [bp_oracle.bp_decode(full_scale_code, llr, max_iter=first) for llr in llrs]
            words, satisfied, iterations = ldpc._bp_rows(full_scale_code, llrs, 50,
                                                         first_stop=True)
            assert np.array_equal(words, [res.word for res in want]), trial
            assert np.array_equal(satisfied, [res.satisfied for res in want]), trial
            assert (iterations == first).all(), trial

    def test_exhaustive_blocks_use_one_plan_per_size(self):
        # n = 56 runs one block of _BP_BLOCK rows and a remainder of 24
        code = ldpc.build_gallager(56, 2, 7, seed=3)
        rng = channel.make_rng(48)
        for trial in range(8):
            x, _ = ldpc.balanced_encode(code, rng.integers(0, 2, code.k))
            noise = (rng.random(code.n) < 0.05).astype(np.uint8)
            llr = ldpc.bsc_llr(x.to_array() ^ noise, 0.05)
            got = ldpc.balanced_decode(code, llr, num_candidates=None)
            want = bp_oracle.balanced_decode(code, llr, num_candidates=None)
            assert _same_decode(got, want), trial
        assert sorted(key for key in code._plans if key[0] == "bp") == [
            ("bp", code.n - ldpc._BP_BLOCK), ("bp", ldpc._BP_BLOCK)]


# the read-only index maps of each plan class: every other ndarray field of a
# plan is a table its calls write into, so a table added later is checked too
_INDEX_MAPS = {ldpc._BpPlan: {"to_var", "to_check"},
               ldpc._ScorePlan: {"keys", "pos", "seg_ptr", "prod_idx", "prev"},
               ldpc._ScoreRound: {"check_ptr", "var_ptr", "check_idx", "var_idx"}}


def _plan_tables(plan, prefix=""):
    """(name, array) of every table a call on the plan writes into: each
    ndarray field but the plan's index maps."""
    names = [f.name for f in dataclasses.fields(plan)]
    assert _INDEX_MAPS[type(plan)] <= set(names)
    for name in names:
        value = getattr(plan, name)
        if isinstance(value, np.ndarray) and name not in _INDEX_MAPS[type(plan)]:
            yield prefix + name, value


def _written_tables(plan):
    """(name, array) of every table a scorer call writes into."""
    yield from _plan_tables(plan)
    for k, rd in enumerate(plan.rounds):
        yield from _plan_tables(rd, f"round {k} ")


class TestPosterior:
    @pytest.mark.parametrize("a", [2, 3, 7, 8, 16])
    def test_adds_incoming_left_to_right_then_own(self, a):
        # BP passes its incoming messages as a tuple of rows, the scorer as one table
        rng = channel.make_rng((47, a))
        inc = rng.normal(0, 1, (a, 2000)) * 10.0 ** rng.integers(-3, 4, (a, 2000))
        own = rng.normal(0, 4, 2000)
        want = []
        for col, o in zip(inc.T.tolist(), own.tolist()):
            total = col[0]
            for x in col[1:]:
                total += x
            want.append(total + o)
        for incoming in (inc, tuple(inc)):
            out = np.empty(2000)
            assert ldpc._posterior(incoming, own, out) is out
            assert np.array_equal(out, want)
        # not vacuous: these inputs round differently in another order.  From
        # 8 terms on, numpy's sum along a contiguous edge axis adds pairwise;
        # below that it adds left to right, and adding the own LLR first differs
        own_first = own.copy()
        for row in inc:
            own_first += row
        assert not np.array_equal(own_first, want)
        if a >= 8:
            assert not np.array_equal(np.ascontiguousarray(inc.T).sum(axis=1) + own, want)


@st.composite
def _small_codes(draw):
    b = draw(st.integers(3, 8))
    a = draw(st.integers(2, b - 1))
    n = b * draw(st.integers(2, 12))
    seed = draw(st.integers(0, 10_000))
    try:
        return ldpc.build_gallager(n, a, b, seed)
    except RuntimeError:     # no draw with the minimal rank deficit
        reject()


def _mixed_llrs(rng, n: int, count: int):
    """Gaussian LLRs alternating with constant-magnitude BSC LLRs, whose
    scores tie exactly and so expose any rounding difference."""
    for i in range(count):
        if i % 2:
            yield ldpc.bsc_llr(rng.integers(0, 2, n), 0.06)
        else:
            yield rng.normal(0, 4, n)


class TestShiftScores:
    def test_incremental_matches_scratch_bit_for_bit(self, mid_code):
        rng = channel.make_rng(16)
        for depth in (1, 2, 3):
            for llr in _mixed_llrs(rng, mid_code.n, 4):
                scores = ldpc.lambda_scores(mid_code, llr, depth)
                assert np.array_equal(scores, lambda_scores_scratch(mid_code, llr, depth))

    def test_batch_agrees_with_scratch(self):
        # n = 1120: one Gaussian and one BSC input per depth, every shift; at
        # a = 8 a variable's posterior adds more terms than numpy sums in order
        for shape, count in (((70, 4, 7, 2), 4), ((1120, 4, 7, 1), 2), ((64, 8, 16, 1), 4)):
            code = ldpc.build_gallager(*shape)
            rng = channel.make_rng(17)
            for depth in (1, 2, 3):
                for llr in _mixed_llrs(rng, code.n, count):
                    scores = ldpc.lambda_scores(code, llr, depth)
                    ref = lambda_scores_scratch(code, llr, depth)
                    assert np.array_equal(scores, ref), (code.n, depth)

    @pytest.mark.parametrize("shape", [(56, 2, 7, 3), (64, 8, 16, 1)])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_score_is_bp_state_after_depth_minus_one_iterations(self, shape, depth):
        # BP's kernel on every shifted word, stopped at iteration `depth`, holds
        # the messages of depth - 1 iterations; each check's product of their
        # signs (depth 1) or tanh(m / 2), slot by slot, sums to the score
        code = ldpc.build_gallager(*shape)
        llr = channel.make_rng((48, depth)).normal(0, 4, code.n)
        rows = np.where(np.arange(code.n) < np.arange(code.n)[:, None], -llr, llr)
        iterations = ldpc._bp_rows(code, rows, depth)[2]
        assert iterations.max() == depth            # not every row stopped earlier
        m = code._plans["bp", code.n].m             # (b, rows, r)
        prods = np.prod(np.where(m >= 0, 1.0, -1.0) if depth == 1 else np.tanh(0.5 * m), axis=0)
        assert np.array_equal(ldpc.lambda_scores(code, llr, depth),
                              [exact_sum(row) for row in prods])

    def test_bsc_candidates_match_scratch(self, mid_code):
        # exact ties on BSC LLRs: a last-bit difference would reorder them
        rng = channel.make_rng(29)
        for _ in range(300):
            llr = ldpc.bsc_llr(rng.integers(0, 2, mid_code.n), 0.06)
            assert (ldpc.candidate_inversions(ldpc.lambda_scores(mid_code, llr, 2), 4)
                    == ldpc.candidate_inversions(lambda_scores_scratch(mid_code, llr, 2), 4))

    def test_plans_never_shared(self, mid_code):
        other = ldpc.build_gallager(mid_code.n, mid_code.a, mid_code.b, seed=4)
        assert not np.array_equal(other.H, mid_code.H)
        llr = channel.make_rng(30).normal(0, 4, mid_code.n)
        for depth in (2, 1, 3):
            for code in (mid_code, other):
                ref = lambda_scores_scratch(code, llr, depth)
                assert np.array_equal(ldpc.lambda_scores(code, llr, depth), ref)
        plans = [code._plans["score", depth] for code in (mid_code, other) for depth in (1, 2, 3)]
        assert len({id(plan) for plan in plans}) == len(plans)
        ldpc.lambda_scores(mid_code, llr, 2)
        assert mid_code._plans["score", 2] is plans[1]
        # one BP plan per (code, batch size), built on the first call of that size
        rows = np.clip(np.array([llr, -llr, llr[::-1]]), -ldpc.LLR_CLIP, ldpc.LLR_CLIP)
        bp_plans = []
        for code in (mid_code, other):
            for size in (1, 3):
                want = [bp_oracle.bp_decode(code, row) for row in rows[:size]]
                first = ldpc._bp_rows(code, rows[:size], 50)
                bp_plans.append(code._plans["bp", size])
                again = ldpc._bp_rows(code, rows[:size], 50)
                assert code._plans["bp", size] is bp_plans[-1]
                for words, _, iterations in (first, again):
                    assert np.array_equal(words, [res.word for res in want])
                    assert np.array_equal(iterations, [res.iterations for res in want])
            ldpc.bp_decode(code, llr)
            assert code._plans["bp", 1] is bp_plans[-2]
        assert len({id(plan) for plan in bp_plans}) == len(bp_plans)
        # the tables a call writes belong to one (code, depth) or (code, batch size)
        tables = [table for plan in plans for table in _written_tables(plan)]
        tables += [table for plan in bp_plans for table in _plan_tables(plan)]
        for i, (name_i, table_i) in enumerate(tables):
            for name_j, table_j in tables[i + 1:]:
                assert not np.shares_memory(table_i, table_j), (name_i, name_j)
        # the returned scores are fresh: writing to them changes no later call
        for depth in (1, 2, 3):
            scores = ldpc.lambda_scores(mid_code, llr, depth)
            want = scores.copy()
            assert not any(np.shares_memory(scores, table) for _, table in tables)
            scores[:] = 99.0
            again = ldpc.lambda_scores(mid_code, llr, depth)
            assert np.array_equal(again, want)
            assert not np.shares_memory(again, scores)

    def test_warm_call_allocates_little(self, long_code):
        # the call writes the plan's tables in place; it used to allocate
        # 11.0 / 15.4 MiB of temporaries here at depth 1 / 2
        llr = ldpc.bsc_llr(channel.make_rng(33).integers(0, 2, long_code.n), 0.06)
        for depth in (1, 2):
            ldpc.lambda_scores(long_code, llr, depth)
            tracemalloc.start()
            try:
                ldpc.lambda_scores(long_code, llr, depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 << 20, (depth, peak)

    def test_matches_dense_per_shift_table(self, long_code):
        # every check's product repeated over the shifts of its segment as
        # an (r, n) table built from H alone, each shift's column summed
        # exactly; each sum has r = 640 terms.  Shuffling the table's rows
        # leaves the exact sums' bits as they are, where a float sum's
        # rounding moves with the order
        code, n = long_code, long_code.n
        H = code.H.astype(np.int64)
        near = (H.T @ H) > 0                   # variables sharing a check, and v itself
        reach = H > 0                          # a check's dependencies at depth 1
        rng = channel.make_rng(34)
        float_moved = 0
        for depth in (1, 2):
            deps = [np.flatnonzero(row) for row in reach]
            runs = np.concatenate([np.diff(np.concatenate(([-1], d, [n - 1]))) for d in deps])
            for llr in _mixed_llrs(rng, n, 4):
                scores = ldpc.lambda_scores(code, llr, depth)
                # the products in check order: check c's segment s at ptr[c] + c + s;
                # one starting at shift n is never formed and repeats 0 times
                plan = code._plans["score", depth]
                prod = plan.prod.take(plan.pos, mode="clip")
                assert prod.size == runs.size
                per_check = np.repeat(prod, runs).reshape(code.r, n)
                shuffled = per_check[rng.permutation(code.r)]
                for table in (per_check, shuffled):
                    assert np.array_equal(scores, [exact_sum(col) for col in table.T])
                float_moved += not np.array_equal(per_check.sum(axis=0), shuffled.sum(axis=0))
            reach = (reach.astype(np.int64) @ near) > 0
        assert float_moved

    def test_depth_one_counts_unsatisfied_checks_at_every_shift(self, long_code):
        # r - 2 unsat exactly, as the sum of +-1 products always was
        code, n = long_code, long_code.n
        y = channel.make_rng(36).integers(0, 2, n).astype(np.uint8)
        flipped = y ^ (np.arange(n) < np.arange(n)[:, None])    # row j: shift j
        unsat = ldpc.syndrome(code, flipped).sum(axis=1, dtype=np.int64)
        scores = ldpc.lambda_scores(code, ldpc.bsc_llr(y, 0.06), 1)
        assert np.array_equal(scores, (code.r - 2 * unsat).astype(np.float64))

    def test_exact_sum_bound_named(self):
        # r < 8192 keeps every total inside int64; the bound is checked
        # before the plan build reads anything but r
        for r in (8192, 10_000):
            stub = types.SimpleNamespace(n=None, r=r, a=None, b=None)
            with pytest.raises(ValueError, match=f"need r < 8192 checks, got r = {r}"):
                ldpc._build_score_plan(stub, 2)

    def test_depth_one_exact_at_r_4096(self):
        # a (7168, 4, 7) Gallager graph has r = 4096 checks; the scorer reads
        # only its graph maps, so the code's rank reduction is skipped
        n, a, b = 7168, 4, 7
        rng = channel.make_rng(5)
        layers = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(a - 1)])
        check_nbrs = np.sort(layers.reshape(-1, b), axis=1)
        var_edge_ids = np.argsort(check_nbrs.ravel(), kind="stable").reshape(n, a)
        code = types.SimpleNamespace(n=n, r=len(check_nbrs), a=a, b=b, check_nbrs=check_nbrs,
                                     var_edge_ids=var_edge_ids, _plans={})
        y = rng.integers(0, 2, n).astype(np.uint8)
        parity = y[code.check_nbrs].sum(axis=1) % 2
        unsat = np.empty(n, dtype=np.int64)
        for j in range(n):      # shift j + 1 flips variable j in each of its a checks
            unsat[j] = parity.sum()
            parity[code.var_edge_ids[j] // b] ^= 1
        scores = ldpc.lambda_scores(code, ldpc.bsc_llr(y, 0.06), 1)
        assert np.array_equal(scores, (code.r - 2 * unsat).astype(np.float64))

    def test_nan_llr_rejected(self, mid_code):
        llr = np.zeros(mid_code.n)
        llr[[3, 40]] = np.nan
        with pytest.raises(ValueError, match="llr holds 2 NaN value.*index 3"):
            ldpc.lambda_scores(mid_code, llr, 2)

    def test_depth_one_closed_form(self, mid_code):
        rng = channel.make_rng(18)
        y = rng.integers(0, 2, mid_code.n).astype(np.uint8)
        scores = ldpc.lambda_scores(mid_code, ldpc.bsc_llr(y, 0.1), 1)
        for j in (0, 1, 5, mid_code.n - 1):
            yj = y.copy()
            yj[:j] ^= 1
            unsat = int(ldpc.syndrome(mid_code, yj).sum())
            assert scores[j] == mid_code.r - 2 * unsat

    def test_zero_shift_equals_plain_score(self, mid_code):
        rng = channel.make_rng(19)
        llr = rng.normal(0, 3, mid_code.n)
        plain = exact_sum(check_products(mid_code, np.clip(llr, -30, 30)[None], 2)[0])
        assert lambda_scores_scratch(mid_code, llr, 2)[0] == plain
        assert ldpc.lambda_scores(mid_code, llr, 2)[0] == plain

    def test_depth_validation(self, mid_code):
        with pytest.raises(ValueError):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n), 4)
        with pytest.raises(ValueError, match="score depth 2.5 is not an integer"):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n), 2.5)
        with pytest.raises(ValueError):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n - 1), 2)

    def test_llr_shape_checked(self, small_code):
        # one word's worth of LLRs in another shape is not one word: the
        # scorer used to score it as if flat, and the decoder failed in numpy
        llr = channel.make_rng(31).normal(0, 4, small_code.n).reshape(2, 14)
        with pytest.raises(ValueError, match=r"llr shape \(2, 14\) != \(28,\)"):
            ldpc.lambda_scores(small_code, llr, 2)
        for num_candidates in (4, None):
            with pytest.raises(ValueError, match=r"llr shape \(2, 14\) != \(28,\)"):
                ldpc.balanced_decode(small_code, llr, num_candidates=num_candidates)

    @given(_small_codes(), st.integers(1, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_scratch_on_any_small_code(self, code, depth, data):
        # exact zeros sit on the sign boundary of the depth-1 product, and
        # magnitudes past LLR_CLIP are clipped before any message is formed
        llr = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, ldpc.LLR_CLIP, -35.0, 1e3, -1e300]),
                      st.floats(-40.0, 40.0)),
            min_size=code.n, max_size=code.n))
        assert np.array_equal(ldpc.lambda_scores(code, llr, depth),
                              lambda_scores_scratch(code, llr, depth))


def _runs(inside: np.ndarray) -> np.ndarray:
    """The maximal runs of a shift mask as inclusive [lo, hi] rows."""
    edges = np.diff(np.concatenate([[0], inside.astype(int), [0]]))
    return np.stack([np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1], axis=1)


def _test_windows(code, llr, rng):
    """The decoder rule's windows (the shifts within 16 of the top 16
    depth-1 maxima), then random windows that take in both ends."""
    inside = np.zeros(code.n, dtype=bool)
    for peak in ldpc.candidate_inversions(ldpc.lambda_scores(code, llr, 1), 16):
        inside[max(peak - 16, 0):peak + 17] = True
    yield _runs(inside)
    inside = rng.random(code.n) < 0.2
    inside[[0, -1]] = True
    yield _runs(inside)


class TestWindowedScores:
    @pytest.mark.parametrize("n, depth", [(280, 2), (280, 3), (1120, 2), (1120, 3)])
    def test_window_shifts_equal_all_shift_scores(self, n, depth):
        # n = 280 is below the decoder rule's bound, n = 1120 above it
        code = ldpc.build_gallager(n, 4, 7, seed=1)
        rng = channel.make_rng((50, n, depth))
        for llr in _mixed_llrs(rng, n, 4 if depth == 2 or n == 280 else 2):
            full = ldpc.lambda_scores(code, llr, depth)
            for windows in _test_windows(code, llr, rng):
                got = ldpc.lambda_scores(code, llr, depth, windows)
                inside = np.zeros(n, dtype=bool)
                for lo, hi in windows:
                    inside[lo:hi + 1] = True
                assert np.array_equal(got[inside], full[inside])
                assert np.all(got[~inside] == -np.inf)
                # the all-shift call after a windowed one is unchanged
                assert np.array_equal(ldpc.lambda_scores(code, llr, depth), full)

    def test_window_shifts_equal_scratch(self, mid_code):
        rng = channel.make_rng(51)
        for depth in (1, 2, 3):
            for llr in _mixed_llrs(rng, mid_code.n, 4):
                for windows in ([[0, 0]], [[mid_code.n - 1, mid_code.n - 1]],
                                [[3, 9], [11, 11], [40, 55]], [[0, mid_code.n - 1]]):
                    shifts = np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows])
                    want = lambda_scores_scratch(mid_code, llr, depth, shifts=shifts)
                    got = ldpc.lambda_scores(mid_code, llr, depth, windows)
                    assert np.array_equal(got, want), (depth, windows)

    @pytest.mark.parametrize("shape", [(56, 2, 7, 3), (1120, 4, 7, 1)])
    def test_edge_windows_equal_all_shift_scores(self, shape):
        # a second window whose segments at lo start inside the first, 16
        # disjoint windows, the first and last shift alone, and every shift
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        rng = channel.make_rng((53, n))
        lo = np.arange(16) * (n // 16) + 1
        cases = ([[10, 40], [42, min(60, n - 1)]], np.stack([lo, lo + n // 32], axis=1),
                 [[0, 0]], [[n - 1, n - 1]], [[0, n - 1]])
        for depth in (1, 2, 3):
            for llr in _mixed_llrs(rng, n, 2):
                full = ldpc.lambda_scores(code, llr, depth)
                for windows in cases:
                    inside = np.zeros(n, dtype=bool)
                    for w_lo, w_hi in windows:
                        inside[w_lo:w_hi + 1] = True
                    # first fill the plan's tables from other LLRs, so that a segment
                    # the windowed call reads without writing shows
                    ldpc.lambda_scores(code, llr[::-1], depth)
                    got = ldpc.lambda_scores(code, llr, depth, windows)
                    assert np.array_equal(got[inside], full[inside]), (depth, windows)
                    assert np.all(got[~inside] == -np.inf), (depth, windows)

    @pytest.mark.parametrize("shape, depth", [((56, 2, 7, 3), 1), ((56, 2, 7, 3), 2),
                                              ((56, 2, 7, 3), 3), ((280, 4, 7, 1), 2)])
    def test_plan_levels_are_shift_major(self, shape, depth):
        # each segment's start shift, rebuilt from the index tables alone: the
        # channel's flipped LLR of v starts at v + 1, and any other segment at
        # the latest start among the segments it reads
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        plan = ldpc._build_score_plan(code, depth)
        chan_start = np.concatenate([np.zeros(n, dtype=np.intp), np.arange(1, n + 1)])

        def starts(idx, children):
            width = [child.size for child in children]
            return np.max([children[k].take(row % width[k])
                           for k, row in enumerate(idx)], axis=0)

        child = chan_start
        levels = []
        for rd in plan.rounds:
            check = starts(rd.check_idx, [child] * b)
            var = starts(rd.var_idx, [chan_start] + [check] * a)
            levels += [(rd.check_ptr, check, rd.check_idx, [child] * b, code.check_nbrs),
                       (rd.var_ptr, var, rd.var_idx, [chan_start] + [check] * a,
                        np.hstack([np.arange(n)[:, None], code.var_edge_ids // b]))]
            child = var
        levels.append((plan.seg_ptr, starts(plan.prod_idx, [child] * b), plan.prod_idx,
                       [child] * b, code.check_nbrs))
        for seg_ptr, start, idx, children, nbrs in levels:
            num = len(nbrs)
            assert np.all(np.diff(start) >= 0)          # start shifts never decrease
            assert seg_ptr[1] == num and np.all(start[:num] == 0) and start[-1] < n
            assert np.array_equal(seg_ptr, np.searchsorted(start, np.arange(n + 1)))
            # position x < num is node x's segment 0: it reads each input's segment 0
            for k, row in enumerate(idx):
                assert np.array_equal(row[:num] % children[k].size, nbrs[:, k])
        assert np.array_equal(plan.pos[np.searchsorted(
            plan.keys, np.arange(code.r) * n) + np.arange(code.r)], np.arange(code.r))

    @pytest.mark.parametrize("windows", [[], [[5, 3]], [[-1, 4]], [[0, 56]], [[0, 5], [5, 9]],
                                         [[10, 12], [0, 4]], [[0.0, 4.0]], [0, 4]])
    def test_bad_windows_rejected(self, mid_code, windows):
        with pytest.raises(ValueError, match="sorted, disjoint .* within 0..55"):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n), 2, windows)


class TestCandidateSelection:
    def test_monotone_increasing_scores(self):
        assert ldpc.candidate_inversions(np.arange(10.0), 3) == [9]

    def test_plateau_left_edge(self):
        scores = np.array([1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.5])
        cands = ldpc.candidate_inversions(scores, 4)
        assert cands == [4, 1]

    def test_single_candidate_is_argmax(self):
        rng = np.random.default_rng(20)
        scores = rng.normal(size=50)
        assert ldpc.candidate_inversions(scores, 1) == [int(np.argmax(scores))]

    def test_tie_prefers_smaller_shift(self):
        scores = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
        assert ldpc.candidate_inversions(scores, 2) == [1, 3]

    def test_never_empty(self):
        for scores in ([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]):
            assert ldpc.candidate_inversions(np.array(scores), 2)

    def test_minus_inf_shift_is_never_a_candidate(self, long_code):
        inf = np.inf
        assert ldpc.candidate_inversions(np.array([-inf, -inf, 1.0, 1.0, -inf]), 4) == [2]
        assert ldpc.candidate_inversions(np.array([-inf, 2.0, -inf, -inf]), 4) == [1]
        assert ldpc.candidate_inversions(np.array([-inf, -inf, 3.0]), 4) == [2]
        # the decoder's windowed scores: shift 0 lies outside every window here
        rng = channel.make_rng(52)
        for _ in range(5):
            llr = ldpc.bsc_llr(rng.integers(0, 2, long_code.n), 0.06)
            windows = [[40, 60], [500, 520]]
            scores = ldpc.lambda_scores(long_code, llr, 2, windows)
            for c in (4, 100):
                cands = ldpc.candidate_inversions(scores, c)
                assert cands and 0 not in cands
                assert all(40 <= j <= 60 or 500 <= j <= 520 for j in cands)

    @staticmethod
    def _scan(scores, c):
        """The local-maximum scan as a comprehension over every shift, a
        shift beyond either end scoring -inf."""
        lam, n = np.asarray(scores, dtype=np.float64), len(scores)
        left = [-np.inf, *lam[:-1]]
        right = [*lam[1:], -np.inf]
        maxima = [j for j in range(n) if lam[j] > left[j] and lam[j] >= right[j]]
        maxima.sort(key=lambda j: (-lam[j], j))
        return maxima[:c]

    def test_matches_scan_on_random_and_tied_scores(self, mid_code):
        rng = np.random.default_rng(42)
        cases = [rng.normal(size=int(rng.integers(1, 60))) for _ in range(200)]
        # small integers tie often, like BSC depth-1 scores
        cases += [rng.integers(-3, 4, int(rng.integers(1, 60))).astype(float) for _ in range(200)]
        cases += [ldpc.lambda_scores(mid_code, ldpc.bsc_llr(rng.integers(0, 2, mid_code.n), 0.06), 1)
                  for _ in range(50)]
        # scores outside lambda_scores' windows are -inf
        cases += [np.where(rng.random(len(lam)) < 0.5, -np.inf, lam) for lam in cases[-100:]]
        for scores in cases:
            for c in (1, 2, 4, 100):
                got = ldpc.candidate_inversions(scores, c)
                assert got == self._scan(scores, c)
                assert all(type(j) is int for j in got)


class TestBalancedDecoding:
    def test_nan_llr_rejected(self, small_code):
        # NaN scores have no local maximum: the top-c path failed on an empty candidate list
        llr = channel.make_rng(35).normal(0, 4, small_code.n)
        llr[-1] = np.nan
        for num_candidates in (4, None):
            with pytest.raises(ValueError, match="llr holds 1 NaN value.*index 27"):
                ldpc.balanced_decode(small_code, llr, num_candidates=num_candidates)

    def test_error_free_recovery(self, full_scale_code):
        rng = channel.make_rng(21)
        for _ in range(5):
            u = rng.integers(0, 2, full_scale_code.k)
            x, i_true = ldpc.balanced_encode(full_scale_code, u)
            llr = ldpc.bsc_llr(x.to_array(), 0.05)
            scores = ldpc.lambda_scores(full_scale_code, llr, 2)
            assert i_true in ldpc.candidate_inversions(scores, 4)
            res = ldpc.balanced_decode(full_scale_code, llr)
            assert res.ok and res.i == i_true
            assert np.array_equal(res.u, u)

    def test_noisy_recovery(self, full_scale_code):
        rng = channel.make_rng(22)
        ok = 0
        for trial in range(20):
            u = rng.integers(0, 2, full_scale_code.k)
            x, _ = ldpc.balanced_encode(full_scale_code, u)
            y = channel.apply_bsc(x, 0.03, seed=(23, trial))
            res = ldpc.balanced_decode_bsc(full_scale_code, y, 0.03)
            ok += int(res.ok and np.array_equal(res.u, u))
        assert ok >= 18

    def test_exhaustive_never_underperforms_guided(self):
        code = ldpc.build_gallager(70, 4, 7, seed=2)
        rng = channel.make_rng(24)
        guided_ok = exhaustive_ok = 0
        for trial in range(60):
            u = rng.integers(0, 2, code.k)
            x, _ = ldpc.balanced_encode(code, u)
            y = channel.apply_bsc(x, 0.04, seed=(25, trial))
            llr = ldpc.bsc_llr(y, 0.04)
            res_g = ldpc.balanced_decode(code, llr, depth=2, num_candidates=4)
            res_e = ldpc.balanced_decode(code, llr, depth=2, num_candidates=None)
            guided_ok += int(res_g.ok and np.array_equal(res_g.u, u))
            exhaustive_ok += int(res_e.ok and np.array_equal(res_e.u, u))
        assert exhaustive_ok >= guided_ok

    def test_soft_decode_over_drift_channel(self, full_scale_code):
        model = channel.DriftModel(channel.VARIANCE_GROWTH, 0.12)
        for trial in range(8):
            u = channel.make_rng((27, trial)).integers(0, 2, full_scale_code.k)
            x, _ = ldpc.balanced_encode(full_scale_code, u)
            block = channel.sample_levels(x, model, t=0.25, seed=(28, trial))
            res = ldpc.balanced_decode_soft(full_scale_code, block.levels)
            assert res.ok
            assert np.array_equal(res.u, u)

    def test_results_are_uint8_arrays(self, full_scale_code):
        u = channel.make_rng(35).integers(0, 2, full_scale_code.k)
        z = ldpc.encode(full_scale_code, u)
        res_bp = ldpc.bp_decode(full_scale_code, ldpc.bsc_llr(z, 0.05))
        x, _ = ldpc.balanced_encode(full_scale_code, u)
        res = ldpc.balanced_decode(full_scale_code, ldpc.bsc_llr(x.to_array(), 0.05))
        for word in (z, res_bp.word, res.z, res.u):
            assert type(word) is np.ndarray and word.dtype == np.uint8 and word.ndim == 1
        assert np.array_equal(res.z, z) and np.array_equal(res.u, u)

    @given(st.sampled_from(NOISE_FREE_CODES),
           st.sampled_from([(depth, c) for depth in (1, 2, 3) for c in (1, 2, 3, 4)]
                           + [(1, None)]),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_noise_free_returns_stored_word(self, code, search, data):
        # the property is on the stored form, not on z == encode(u): on
        # (8,2,4) another codeword can share the stored form (a shift collision)
        u = data.draw(st.lists(st.integers(0, 1), min_size=code.k, max_size=code.k))
        x, _ = ldpc.balanced_encode(code, np.array(u))
        depth, num_candidates = search
        res = ldpc.balanced_decode(code, ldpc.bsc_llr(x.to_array(), 0.05), depth=depth,
                                   num_candidates=num_candidates)
        assert res.ok
        assert res.i == find_balancing_index(res.z)
        assert np.array_equal(res.u, res.z[code.message_positions])
        stored = res.z.copy()
        stored[:res.i] ^= 1
        assert np.array_equal(stored, x.to_array())

    @pytest.mark.parametrize("num_candidates", [4, None])
    def test_depth_checked_on_every_path(self, small_code, num_candidates):
        # the exhaustive path scores nothing, so it used to decode any depth
        llr = ldpc.bsc_llr(np.zeros(small_code.n, dtype=np.uint8), 0.05)
        for depth in (0, 4, 9):
            with pytest.raises(ValueError, match="score depth must be 1, 2, or 3"):
                ldpc.balanced_decode(small_code, llr, depth=depth, num_candidates=num_candidates)
        # 2.5 used to fail as a raw TypeError from range, on the top-c path
        with pytest.raises(ValueError, match="score depth 2.5 is not an integer"):
            ldpc.balanced_decode(small_code, llr, depth=2.5, num_candidates=num_candidates)
        want = ldpc.balanced_decode(small_code, llr, depth=2, num_candidates=num_candidates)
        got = ldpc.balanced_decode(small_code, llr, depth=2.0, num_candidates=num_candidates)
        assert _same_decode(got, want)

    def test_candidate_count_read_as_whole_number(self, small_code):
        # 2.5 used to fail as a raw TypeError from slicing the candidate list
        llr = ldpc.bsc_llr(np.zeros(small_code.n, dtype=np.uint8), 0.05)
        with pytest.raises(ValueError, match="candidate count 2.5 is not an integer"):
            ldpc.balanced_decode(small_code, llr, num_candidates=2.5)
        want = ldpc.balanced_decode(small_code, llr, num_candidates=2)
        got = ldpc.balanced_decode(small_code, llr, num_candidates=2.0)
        assert _same_decode(got, want)
        # candidate_inversions reads its count by the same rule
        scores = np.array([0.0, 3.0, 1.0, 2.0, 0.0])
        assert ldpc.candidate_inversions(scores, 2.0) == ldpc.candidate_inversions(scores, 2) == [1, 3]
        with pytest.raises(ValueError, match="candidate count 2.5 is not an integer"):
            ldpc.candidate_inversions(scores, 2.5)

    @pytest.mark.parametrize("num_candidates", [4, None])
    def test_max_iter_read_as_whole_number(self, small_code, num_candidates):
        # 2.5 used to fail as a raw TypeError from range
        llr = ldpc.bsc_llr(np.zeros(small_code.n, dtype=np.uint8), 0.05)
        with pytest.raises(ValueError, match="max_iter 2.5 is not an integer"):
            ldpc.balanced_decode(small_code, llr, num_candidates=num_candidates, max_iter=2.5)
        with pytest.raises(ValueError, match="max_iter 2.5 is not an integer"):
            ldpc.bp_decode(small_code, llr, max_iter=2.5)
        want = ldpc.balanced_decode(small_code, llr, num_candidates=num_candidates, max_iter=3)
        got = ldpc.balanced_decode(small_code, llr, num_candidates=num_candidates, max_iter=3.0)
        assert _same_decode(got, want)
        bp_got, bp_want = (ldpc.bp_decode(small_code, llr, max_iter=m) for m in (3.0, 3))
        assert np.array_equal(bp_got.word, bp_want.word)
        assert (bp_got.satisfied, bp_got.iterations) == (bp_want.satisfied, bp_want.iterations)

    def test_failure_reported(self, full_scale_code):
        # saturate with noise so no candidate satisfies parity
        rng = channel.make_rng(26)
        llr = rng.normal(0, 0.5, full_scale_code.n)
        res = ldpc.balanced_decode(full_scale_code, llr, max_iter=5)
        if not res.ok:
            assert res.u is None and res.z is None


class TestSerialization:
    def test_round_trip(self, mid_code, tmp_path):
        path = tmp_path / "code.mtx"
        ldpc.save_code(mid_code, path)
        loaded = ldpc.load_code(path)
        assert np.array_equal(loaded.H, mid_code.H)
        assert np.array_equal(loaded.G, mid_code.G)
        assert loaded.k == mid_code.k
        assert loaded.seed == mid_code.seed
        path2 = tmp_path / "code2.mtx"
        ldpc.save_code(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(ValueError):
            ldpc.load_code(path)

    @pytest.mark.parametrize("shape", [(28, 4, 7, 1), (70, 4, 7, 2)])
    def test_save_load_round_trip(self, shape, tmp_path):
        n, a, b, seed = shape
        code = ldpc.build_gallager(n, a, b, seed=seed)
        path = tmp_path / "code.mtx"
        ldpc.save_code(code, path)
        loaded = ldpc.load_code(path)
        assert np.array_equal(loaded.H, code.H)
        assert (loaded.n, loaded.k, loaded.a, loaded.b, loaded.seed, loaded.seed_used) == (
            code.n, code.k, code.a, code.b, code.seed, code.seed_used)
        llr = channel.make_rng(31).normal(0, 4, n)
        assert np.array_equal(ldpc.lambda_scores(loaded, llr, 2),
                              ldpc.lambda_scores(code, llr, 2))

    @staticmethod
    def _edit_listing(code, tmp_path, edit):
        path = tmp_path / "code.mtx"
        ldpc.save_code(code, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def test_reject_zero_based_listing(self, mid_code, tmp_path):
        def zero_based(lines):
            body = [" ".join(str(int(x) - 1) for x in ln.split()) for ln in lines[3:]]
            return lines[:3] + body
        path = self._edit_listing(mid_code, tmp_path, zero_based)
        with pytest.raises(ValueError, match=r"code\.mtx:4: '0 \d+'.*1-based"):
            ldpc.load_code(path)

    def test_reject_out_of_range_entry(self, mid_code, tmp_path):
        def past_last_column(lines):
            return lines[:-1] + [f"{mid_code.r} {mid_code.n + 1}"]
        path = self._edit_listing(mid_code, tmp_path, past_last_column)
        with pytest.raises(ValueError, match=rf"code\.mtx:{3 + mid_code.r * mid_code.b}:"):
            ldpc.load_code(path)

    def test_reject_duplicate_entry(self, mid_code, tmp_path):
        path = self._edit_listing(mid_code, tmp_path, lambda lines: lines[:4] + lines[3:-1])
        with pytest.raises(ValueError, match=r"code\.mtx:5: .*duplicate"):
            ldpc.load_code(path)

    @pytest.mark.parametrize("line, token, message", [
        (3, "x", "expected header 'rows cols entries'"),
        (4, "x", "expected an entry 'row col'"),
        (4, "-1", "expected an entry 'row col'"),
        (4, "1.0", "expected an entry 'row col'"),
    ])
    def test_reject_non_integer_token(self, mid_code, tmp_path, line, token, message):
        # tokens that are not non-negative integers used to be dropped, so
        # the entry '1 x 5' was read as (1, 5)
        def insert_token(lines):
            fields = lines[line - 1].split()
            return lines[:line - 1] + [" ".join(fields[:1] + [token] + fields[1:])] + lines[line:]
        path = self._edit_listing(mid_code, tmp_path, insert_token)
        where = rf"code\.mtx:{line}: '\d+ {re.escape(token)} "
        with pytest.raises(ValueError, match=where + ".*" + message):
            ldpc.load_code(path)

    def test_reject_non_integer_parameter(self, mid_code, tmp_path):
        def bad_seed(lines):
            return lines[:1] + [lines[1].replace("seed=3", "seed=x")] + lines[2:]
        path = self._edit_listing(mid_code, tmp_path, bad_seed)
        with pytest.raises(ValueError, match=r"code\.mtx:2: .*non-negative integer values"):
            ldpc.load_code(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.replace("n=56", "n=99"), r"n=99 but the matrix has 56 columns"),
        (lambda line: line + " foo=5", r"keys among \('n', 'a', 'b', 'seed', 'seed_used'\)"),
    ], ids=["n", "unknown key"])
    def test_reject_inconsistent_parameters(self, mid_code, tmp_path, edit, message):
        # both listings loaded as the n = 56 code with no complaint
        path = self._edit_listing(mid_code, tmp_path,
                                  lambda lines: lines[:1] + [edit(lines[1])] + lines[2:])
        with pytest.raises(ValueError, match=r"code\.mtx:2: '%gallager .*" + message):
            ldpc.load_code(path)

    def test_reject_entry_count_mismatch(self, mid_code, tmp_path):
        path = self._edit_listing(mid_code, tmp_path, lambda lines: lines[:-1])
        with pytest.raises(ValueError, match=r"code\.mtx:3: header declares 112 entries"):
            ldpc.load_code(path)

    @given(_small_codes())
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trips(self, code):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "code.mtx"
            ldpc.save_code(code, path)
            loaded = ldpc.load_code(path)
            again = Path(tmp) / "again.mtx"
            ldpc.save_code(loaded, again)
            assert path.read_bytes() == again.read_bytes()
        assert (loaded.n, loaded.k, loaded.a, loaded.b, loaded.seed, loaded.seed_used,
                loaded.rank) == (code.n, code.k, code.a, code.b, code.seed, code.seed_used,
                                 code.rank)
        for name in ("H", "G", "message_positions", "check_nbrs", "var_edge_ids"):
            assert np.array_equal(getattr(loaded, name), getattr(code, name)), name


class TestUniqueShiftRecovery:
    def test_collision_fraction_shrinks_with_block_length(self):
        # fraction of shifts whose prefix syndrome collides with another's;
        # a collision means some shifted codeword is itself a codeword and
        # the inversion cannot be pinned without errors
        fractions = []
        for n in (56, 112, 224):
            total = 0.0
            seeds = 30
            for s in range(seeds):
                code = ldpc.build_gallager(n, 2, 8, seed=500 + s)
                cum = np.concatenate(
                    [np.zeros((code.r, 1), np.uint8),
                     np.cumsum(code.H, axis=1).astype(np.uint8) % 2], axis=1)[:, :n]
                keys = [cum[:, j].tobytes() for j in range(n)]
                counts = collections.Counter(keys)
                total += sum(1 for kk in keys if counts[kk] > 1) / n
            fractions.append(total / seeds)
        assert fractions[0] > fractions[1] > fractions[2]
