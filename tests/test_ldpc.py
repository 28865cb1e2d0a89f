import collections

import numpy as np
import pytest

from balmod import channel, ldpc
from balmod.words import BitWord, find_balancing_index, invert_prefix, weight
from score_oracle import _score_full, lambda_scores_scratch


@pytest.fixture(scope="module")
def small_code():
    return ldpc.build_gallager(28, 2, 7, seed=1)


@pytest.fixture(scope="module")
def mid_code():
    return ldpc.build_gallager(56, 2, 7, seed=3)


@pytest.fixture(scope="module")
def full_scale_code():
    return ldpc.build_gallager(280, 4, 7, seed=1)


class TestConstruction:
    def test_regular_weights(self, small_code):
        assert np.all(small_code.H.sum(axis=0) == 2)
        assert np.all(small_code.H.sum(axis=1) == 7)

    def test_generator_consistency(self, small_code):
        rng = channel.make_rng(10)
        for _ in range(100):
            u = rng.integers(0, 2, small_code.k)
            z = ldpc.encode(small_code, u)
            assert not ldpc.syndrome(small_code, z.to_array()).any()

    def test_paper_scale_shape(self, full_scale_code):
        assert full_scale_code.r == 160
        assert full_scale_code.n == 280
        assert full_scale_code.k == 120

    def test_message_bits_verbatim(self, small_code):
        rng = channel.make_rng(11)
        u = rng.integers(0, 2, small_code.k)
        z = ldpc.encode(small_code, u).to_array()
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


class TestBalancedEncode:
    def test_weight_and_membership(self, mid_code):
        rng = channel.make_rng(12)
        for _ in range(50):
            u = rng.integers(0, 2, mid_code.k)
            x, i = ldpc.balanced_encode(mid_code, u)
            assert x.weight == mid_code.n // 2
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
            z = ldpc.encode(mid_code, u).to_array()
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
        z = ldpc.encode(full_scale_code, u).to_array()
        llr = np.where(z == 0, 1e9, -1e9)
        res = ldpc.bp_decode(full_scale_code, llr)
        assert res.satisfied and res.iterations == 1
        assert np.array_equal(res.word.to_array(), z)

    def test_single_flip_corrected(self, full_scale_code):
        rng = channel.make_rng(15)
        for trial in range(10):
            u = rng.integers(0, 2, full_scale_code.k)
            z = ldpc.encode(full_scale_code, u).to_array()
            y = z.copy()
            y[int(rng.integers(0, full_scale_code.n))] ^= 1
            res = ldpc.bp_decode(full_scale_code, ldpc.bsc_llr(y, 0.01))
            assert res.satisfied
            assert np.array_equal(res.word.to_array(), z)

    def test_bsc_llr_constants(self):
        p = 0.1
        llr = ldpc.bsc_llr([0, 1, 0], p)
        mag = np.log((1 - p) / p)
        assert llr == pytest.approx([mag, -mag, mag])

    def test_bsc_llr_validates_p(self):
        with pytest.raises(ValueError):
            ldpc.bsc_llr([0, 1], 0.6)


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
        code = ldpc.build_gallager(70, 4, 7, seed=2)
        rng = channel.make_rng(17)
        for depth in (1, 2, 3):
            for llr in _mixed_llrs(rng, code.n, 4):
                scores = ldpc.lambda_scores(code, llr, depth)
                assert np.array_equal(scores, lambda_scores_scratch(code, llr, depth)), depth

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
        plain = float(np.sum(_score_full(mid_code, np.clip(llr, -30, 30), 2).prod))
        assert lambda_scores_scratch(mid_code, llr, 2)[0] == plain
        assert ldpc.lambda_scores(mid_code, llr, 2)[0] == plain

    def test_depth_validation(self, mid_code):
        with pytest.raises(ValueError):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n), 4)
        with pytest.raises(ValueError):
            ldpc.lambda_scores(mid_code, np.zeros(mid_code.n - 1), 2)


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


class TestBalancedDecoding:
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
            assert np.array_equal(res.u.to_array(), u)

    def test_noisy_recovery(self, full_scale_code):
        rng = channel.make_rng(22)
        ok = 0
        for trial in range(20):
            u = rng.integers(0, 2, full_scale_code.k)
            x, _ = ldpc.balanced_encode(full_scale_code, u)
            y = channel.apply_bsc(x, 0.03, seed=(23, trial))
            res = ldpc.balanced_decode_bsc(full_scale_code, y, 0.03)
            ok += int(res.ok and np.array_equal(res.u.to_array(), u))
        assert ok >= 18

    def test_exhaustive_never_underperforms_guided(self):
        code = ldpc.build_gallager(70, 4, 7, seed=2)
        rng = channel.make_rng(24)
        guided_ok = exhaustive_ok = 0
        for trial in range(60):
            u = rng.integers(0, 2, code.k)
            x, _ = ldpc.balanced_encode(code, u)
            y = channel.apply_bsc(x, 0.04, seed=(25, trial))
            llr = ldpc.bsc_llr(y.to_array(), 0.04)
            res_g = ldpc.balanced_decode(code, llr, depth=2, num_candidates=4)
            res_e = ldpc.balanced_decode(code, llr, depth=2, num_candidates=None)
            guided_ok += int(res_g.ok and np.array_equal(res_g.u.to_array(), u))
            exhaustive_ok += int(res_e.ok and np.array_equal(res_e.u.to_array(), u))
        assert exhaustive_ok >= guided_ok

    def test_soft_decode_over_drift_channel(self, full_scale_code):
        model = channel.DriftModel(channel.VARIANCE_GROWTH, 0.12)
        for trial in range(8):
            u = channel.make_rng((27, trial)).integers(0, 2, full_scale_code.k)
            x, _ = ldpc.balanced_encode(full_scale_code, u)
            block = channel.sample_levels(x, model, t=0.25, seed=(28, trial))
            res = ldpc.balanced_decode_soft(full_scale_code, block.levels)
            assert res.ok
            assert np.array_equal(res.u.to_array(), u)

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

    def test_reject_entry_count_mismatch(self, mid_code, tmp_path):
        path = self._edit_listing(mid_code, tmp_path, lambda lines: lines[:-1])
        with pytest.raises(ValueError, match=r"code\.mtx:3: header declares 112 entries"):
            ldpc.load_code(path)


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
