import numpy as np
import pytest

from balmod import channel, ldpc
from balmod.partial import (make_partial_scheme, pb_decode, pb_encode, pb_read,
                            rate_fixed_vs_partial)
from balmod.thresholds import balancing_threshold_exact
from balmod.words import BitWord, find_balancing_index, weight


@pytest.fixture(scope="module")
def scheme():
    code = ldpc.build_gallager(280, 4, 7, seed=1)
    return make_partial_scheme(code, k_info=112, layout_seed=42)


def random_message(scheme, seed) -> BitWord:
    bits = channel.make_rng(seed).integers(0, 2, scheme.k_info)
    return BitWord.from_array(bits)


class TestEncode:
    def test_balanced_message_passes_through(self, scheme):
        bits = np.zeros(scheme.k_info, dtype=np.uint8)
        bits[:scheme.k_info // 2] = 1
        u = BitWord.from_array(bits)
        cw = pb_encode(scheme, u)
        assert cw.u_tilde.to_array().tolist() == bits.tolist()
        assert weight(cw.i_bits) == 0

    def test_segment_is_balanced(self, scheme):
        for s in range(10):
            cw = pb_encode(scheme, random_message(scheme, (40, s)))
            assert weight(cw.u_tilde) * 2 == scheme.k_info

    def test_index_width(self, scheme):
        assert scheme.i_bits == 7  # ceil(log2(112))

    def test_layout_reproducible(self, scheme):
        again = make_partial_scheme(scheme.code, scheme.k_info, layout_seed=42)
        assert np.array_equal(again.layout, scheme.layout)

    def test_dimension_mismatch_rejected(self, scheme):
        with pytest.raises(ValueError):
            make_partial_scheme(scheme.code, k_info=150, layout_seed=1)


class TestReadThreshold:
    def _levels(self, scheme, seed, sigma=0.05, t=0.3):
        u = random_message(scheme, seed)
        cw = pb_encode(scheme, u)
        model = channel.DriftModel(channel.MEAN_DRIFT, sigma)
        block = channel.sample_levels(cw.physical, model, t, seed=(seed, 1))
        return u, cw, block.levels

    def test_separable_levels_reconstruct(self, scheme):
        u, cw, levels = self._levels(scheme, 41, sigma=0.01)
        y = pb_read(scheme, levels)
        assert np.array_equal(y, cw.physical)

    def test_threshold_uses_info_cells_only(self, scheme):
        _, cw, levels = self._levels(scheme, 43)
        expected = balancing_threshold_exact(levels[scheme.info_cells]).value
        y = pb_read(scheme, levels)
        assert np.array_equal(y, (levels >= expected).astype(np.uint8))

    def test_parity_cells_do_not_move_threshold(self, scheme):
        _, cw, levels = self._levels(scheme, 44)
        tampered = levels.copy()
        parity_cells = np.setdiff1d(np.arange(scheme.n), scheme.info_cells)
        tampered[parity_cells] += 0.37
        t1 = balancing_threshold_exact(levels[scheme.info_cells]).value
        t2 = balancing_threshold_exact(tampered[scheme.info_cells]).value
        assert t1 == t2


class TestDecode:
    def test_error_free_round_trip(self, scheme):
        for s in range(20):
            u = random_message(scheme, (45, s))
            cw = pb_encode(scheme, u)
            res = pb_decode(scheme, cw.physical)
            assert res.ok
            assert np.array_equal(res.u, u)

    def test_planted_errors_within_capability(self, scheme):
        rng = channel.make_rng(46)
        for s in range(30):
            u = random_message(scheme, (47, s))
            cw = pb_encode(scheme, u)
            y = cw.physical.copy()
            for pos in rng.choice(scheme.n, size=2, replace=False):
                y[pos] ^= 1
            res = pb_decode(scheme, y)
            assert res.ok and np.array_equal(res.u, u)

    def test_heavy_corruption_is_flagged_not_silent(self, scheme):
        rng = channel.make_rng(48)
        u = random_message(scheme, 49)
        cw = pb_encode(scheme, u)
        y = cw.physical.copy()
        y[rng.choice(scheme.n, size=scheme.n // 2, replace=False)] ^= 1
        res = pb_decode(scheme, y)
        if not res.ok:
            assert res.u is None and res.reason != ""

    def test_out_of_range_index_rejected(self, scheme):
        # craft a clean codeword whose index field exceeds the segment length
        message = np.zeros(scheme.code.k, dtype=np.uint8)
        message[:scheme.k_info // 2] = 1
        message[scheme.k_info:scheme.k_info + scheme.i_bits] = 1  # index 127
        cw = ldpc.encode(scheme.code, message)
        physical = np.zeros(scheme.n, dtype=np.uint8)
        physical[scheme.layout] = cw
        res = pb_decode(scheme, physical)
        assert not res.ok
        assert "range" in res.reason

    @pytest.mark.parametrize("length", [100, 284])
    def test_wrong_length_rejected(self, scheme, length):
        # too long used to decode silently from the cells layout picks, too
        # short raised a bare IndexError
        with pytest.raises(ValueError, match=f"^word length {length} != n = 280$"):
            pb_decode(scheme, np.zeros(length, dtype=np.uint8))

    def test_end_to_end_through_drift_channel(self, scheme):
        model = channel.DriftModel(channel.MEAN_DRIFT, 0.05)
        ok = 0
        for s in range(20):
            u = random_message(scheme, (50, s))
            cw = pb_encode(scheme, u)
            block = channel.sample_levels(cw.physical, model, t=0.3, seed=(51, s))
            y = pb_read(scheme, block.levels)
            res = pb_decode(scheme, y)
            ok += int(res.ok and np.array_equal(res.u, u))
        assert ok == 20


class TestRates:
    def test_fixed_threshold_reference(self):
        fixed, _ = rate_fixed_vs_partial(255, 131, 191, 8)
        assert fixed == pytest.approx(0.5137, abs=5e-5)

    def test_partial_balanced_rate(self):
        _, pb = rate_fixed_vs_partial(255, 131, 191, 8)
        assert pb == pytest.approx(0.7176, abs=5e-5)

    def test_zero_index_bits(self):
        _, pb = rate_fixed_vs_partial(255, 131, 191, 0)
        assert pb == pytest.approx(191 / 255)


class TestSegmentThresholdCloseness:
    def test_gap_shrinks_with_block_length(self):
        # threshold from a random half-size segment approaches the full-block
        # balancing threshold as the block grows
        gaps = []
        for n in (64, 256, 1024):
            acc = 0.0
            trials = 40
            for s in range(trials):
                rng = channel.make_rng((52, n, s))
                bits = np.zeros(n, dtype=np.uint8)
                bits[rng.permutation(n)[:n // 2]] = 1
                levels = rng.normal(np.where(bits == 1, 0.7, 0.0), 0.15)
                segment = rng.permutation(n)[:n // 2]
                if segment.size % 2:
                    segment = segment[:-1]
                full = balancing_threshold_exact(levels).value
                seg = balancing_threshold_exact(levels[segment]).value
                acc += abs(full - seg)
            gaps.append(acc / trials)
        assert gaps[0] > gaps[1] > gaps[2]
