import math

import numpy as np
import pytest
from scipy.special import ndtr

from balmod import channel
from balmod.channel import (DriftModel, MEAN_DRIFT, VARIANCE_GROWTH,
                            analytic_ber, analytic_ber_mean_drift,
                            analytic_ber_variance_growth, apply_bec, apply_bsc,
                            model_thresholds, sample_levels)
from balmod.thresholds import balancing_threshold_exact
from balmod.words import BitWord


def phi(x: float) -> float:
    # standard normal CDF through erf, independent of the implementation path
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def make_word(bits: np.ndarray) -> BitWord:
    return BitWord.from_array(bits)


class TestSampling:
    def test_zeros_are_stationary(self):
        n = 100_000
        x = make_word(np.zeros(n, dtype=np.uint8))
        for kind in (MEAN_DRIFT, VARIANCE_GROWTH):
            block = sample_levels(x, DriftModel(kind, 0.1), t=0.37, seed=3)
            assert abs(block.levels.mean()) < 5 * 0.1 / math.sqrt(n)

    def test_ones_drift_to_expected_mean(self):
        n = 100_000
        x = make_word(np.ones(n, dtype=np.uint8))
        block = sample_levels(x, DriftModel(MEAN_DRIFT, 0.1), t=0.4, seed=4)
        assert block.levels.mean() == pytest.approx(0.6, abs=5 * 0.1 / math.sqrt(n))

    def test_variance_growth_spreads_ones(self):
        n = 100_000
        x = make_word(np.ones(n, dtype=np.uint8))
        block = sample_levels(x, DriftModel(VARIANCE_GROWTH, 0.1), t=0.3, seed=5)
        assert block.levels.std() == pytest.approx(0.4, rel=0.05)

    def test_same_seed_same_block(self):
        x = make_word(np.array([0, 1, 1, 0], dtype=np.uint8))
        m = DriftModel(MEAN_DRIFT, 0.2)
        a = sample_levels(x, m, 0.2, seed=9)
        b = sample_levels(x, m, 0.2, seed=9)
        assert np.array_equal(a.levels, b.levels)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DriftModel("other", 0.1)
        with pytest.raises(ValueError):
            DriftModel(MEAN_DRIFT, 0.0)

    @pytest.mark.parametrize("kind", [MEAN_DRIFT, VARIANCE_GROWTH])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, kind, sigma):
        # nan <= 0 is False: a NaN or infinite sigma used to surface later as
        # non-finite cell levels, a NaN error rate or a root-finder failure
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            DriftModel(kind, sigma)

    @pytest.mark.parametrize("kind", [MEAN_DRIFT, VARIANCE_GROWTH])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_age_rejected(self, kind, t):
        # nan < 0 is False: without its own check a NaN age became NaN levels
        with pytest.raises(ValueError, match=f"age t must be finite, got {t}"):
            DriftModel(kind, 0.1).level_params(t)


class TestAnalyticBer:
    def test_mean_drift_midpoint(self):
        v = analytic_ber_mean_drift(0.5, t=0.0, sigma=0.2)
        assert v == pytest.approx(phi(-2.5), rel=1e-12)
        assert v == pytest.approx(6.21e-3, abs=5e-5)

    def test_mean_drift_symmetry(self):
        t, sigma = 0.2, 0.17
        for v in (0.1, 0.33, 0.7):
            assert analytic_ber_mean_drift(v, t, sigma) == pytest.approx(
                analytic_ber_mean_drift(1 - t - v, t, sigma), rel=1e-12)

    def test_mean_drift_vanishes_as_sigma_shrinks(self):
        assert analytic_ber_mean_drift(0.4, t=0.1, sigma=1e-4) < 1e-12

    def test_variance_growth_fresh(self):
        v = analytic_ber_variance_growth(0.5, t=0.0, sigma=0.25)
        assert v == pytest.approx(phi(-2.0), rel=1e-12)
        assert v == pytest.approx(2.275e-2, abs=5e-5)

    def test_variance_growth_aged(self):
        v = analytic_ber_variance_growth(0.5, t=0.25, sigma=0.25)
        assert v == pytest.approx(0.5 * phi(-2.0) + 0.5 * phi(-1.0), rel=1e-12)
        assert v == pytest.approx(9.07e-2, abs=5e-4)

    def test_variance_growth_monotone_in_t(self):
        vals = [analytic_ber_variance_growth(0.5, t, 0.2) for t in np.linspace(0, 1, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", [MEAN_DRIFT, VARIANCE_GROWTH])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_age_rejected(self, kind, t):
        # the mean-drift formula never reads level_params: a NaN age gave NaN
        with pytest.raises(ValueError, match=f"age t must be finite, got {t}"):
            analytic_ber(DriftModel(kind, 0.2), 0.5, t)

    def test_equals_closed_forms_exactly(self):
        # the two closed forms the level-parameter formula replaced
        def mean_drift(v, t, sigma):
            return 0.5 * ndtr(-v / sigma) + 0.5 * ndtr(-(1.0 - t - v) / sigma)

        def variance_growth(v, t, sigma):
            return 0.5 * ndtr(-v / sigma) + 0.5 * ndtr(-(1.0 - v) / (sigma + t))

        v = np.concatenate((np.linspace(-1.0, 2.0, 2001), [0.0, -0.0, 0.5]))
        for sigma in (0.01, 0.07, 0.2, 1.3):
            for t in (0.0, 0.05, 0.33, 1.7):
                for kind, closed, public in ((MEAN_DRIFT, mean_drift, analytic_ber_mean_drift),
                                             (VARIANCE_GROWTH, variance_growth,
                                              analytic_ber_variance_growth)):
                    want = closed(v, t, sigma)
                    assert np.array_equal(analytic_ber(DriftModel(kind, sigma), v, t), want)
                    assert np.array_equal(public(v, t, sigma), want)
                    assert public(0.3, t, sigma) == closed(0.3, t, sigma)

    @pytest.mark.parametrize("fn", [analytic_ber_mean_drift, analytic_ber_variance_growth])
    def test_closed_forms_check_age(self, fn):
        # the mean-drift form took any age: -0.1 gave 0.00378 and nan gave nan
        with pytest.raises(ValueError, match="age t must be nonnegative"):
            fn(0.5, -0.1, 0.2)
        with pytest.raises(ValueError, match="age t must be finite, got nan"):
            fn(0.5, math.nan, 0.2)


class TestModelThresholds:
    def test_mean_drift_closed_form(self):
        mt = model_thresholds(DriftModel(MEAN_DRIFT, 0.2), t=0.3)
        assert (mt.vb, mt.vo, mt.vf) == (pytest.approx(0.35), pytest.approx(0.35), 0.5)

    def test_variance_growth_fresh(self):
        mt = model_thresholds(DriftModel(VARIANCE_GROWTH, 0.2), t=0.0)
        assert mt.vb == pytest.approx(0.5)
        assert mt.vo == pytest.approx(0.5, abs=1e-9)

    def test_variance_growth_aged(self):
        sigma, t = 0.2, 0.2
        mt = model_thresholds(DriftModel(VARIANCE_GROWTH, sigma), t=t)
        assert mt.vb == pytest.approx(1.0 / 3.0, rel=1e-12)
        lhs = math.exp(-mt.vo ** 2 / (2 * sigma ** 2))
        rhs = sigma / (sigma + t) * math.exp(-(1 - mt.vo) ** 2 / (2 * (sigma + t) ** 2))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("kind", [MEAN_DRIFT, VARIANCE_GROWTH])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_age_rejected(self, kind, t):
        # the mean-drift closed form gave vb = vo = nan for a NaN age
        with pytest.raises(ValueError, match=f"age t must be finite, got {t}"):
            model_thresholds(DriftModel(kind, 0.2), t)

    def test_optimal_is_no_worse_than_balancing(self):
        model = DriftModel(VARIANCE_GROWTH, 0.2)
        for t in (0.1, 0.2, 0.4):
            mt = model_thresholds(model, t)
            assert analytic_ber(model, mt.vo, t) <= analytic_ber(model, mt.vb, t) + 1e-15


class TestBitChannels:
    def test_bsc_identity_and_complement(self):
        x = BitWord.from_string("0110101")
        assert apply_bsc(x, 0.0, seed=1) == x
        assert str(apply_bsc(x, 1.0, seed=1)) == "1001010"

    def test_bsc_flip_rate(self):
        n = 1_000_000
        p = 0.3
        x = make_word(np.zeros(n, dtype=np.uint8))
        flipped = apply_bsc(x, p, seed=6).to_array().sum()
        assert abs(flipped / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_bec_identity_and_full_erasure(self):
        x = BitWord.from_string("0110")
        assert np.array_equal(apply_bec(x, 0.0, seed=2), x.to_array())
        assert np.all(apply_bec(x, 1.0, seed=2) == channel.ERASURE)

    def test_bec_erasure_rate(self):
        n = 1_000_000
        p = 0.35
        x = make_word(np.zeros(n, dtype=np.uint8))
        erased = int((apply_bec(x, p, seed=7) == channel.ERASURE).sum())
        assert abs(erased / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_deterministic(self):
        x = make_word(np.zeros(100, dtype=np.uint8))
        assert np.array_equal(apply_bec(x, 0.4, seed=8), apply_bec(x, 0.4, seed=8))


class TestMonteCarloAgreement:
    def test_empirical_ber_at_balancing_threshold_tracks_formula(self):
        n = 20_000
        rng = channel.make_rng(11)
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.permutation(n)[:n // 2]] = 1
        x = make_word(bits)
        for kind_idx, kind in enumerate((MEAN_DRIFT, VARIANCE_GROWTH)):
            model = DriftModel(kind, 0.2)
            for t in (0.1, 0.3):
                block = sample_levels(x, model, t, seed=(12, kind_idx, int(t * 10)))
                vb = balancing_threshold_exact(block.levels).value
                emp = float(np.mean((block.levels >= vb).astype(np.uint8) != bits))
                ana = float(analytic_ber(model, model_thresholds(model, t).vb, t))
                se = math.sqrt(max(ana * (1 - ana), 1e-12) / n)
                assert abs(emp - ana) < 3 * se + 1e-4
