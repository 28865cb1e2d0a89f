import math

import numpy as np
import pytest

from balmod.channel import make_rng
from balmod.em import (ComponentCollapse, MixtureParams, default_init, e_step,
                       fit, log_likelihood, m_step, per_cell_llr)


def two_cluster_sample(seed, n=10_000, u0=0.0, u1=1.0, sigma=0.1):
    rng = make_rng(seed)
    bits = rng.permutation(np.repeat([0, 1], n // 2))
    levels = rng.normal(np.where(bits == 1, u1, u0), sigma)
    return levels, bits


class TestEStep:
    def test_equidistant_cell_splits_evenly(self):
        params = MixtureParams(0.0, 0.1, 1.0, 0.1)
        resp = e_step([0.5, 0.5], params)
        assert resp == pytest.approx(np.full((2, 2), 0.5))

    def test_cell_at_component_mean(self):
        params = MixtureParams(0.0, 0.1, 50.0, 0.1)
        resp = e_step([0.0, 0.1], params)
        assert resp[0, 0] == pytest.approx(1.0)

    def test_matches_density_ratio_oracle(self):
        rng = make_rng(1)
        params = MixtureParams(-0.2, 0.3, 0.9, 0.15)
        cells = rng.uniform(-1, 2, 10)
        resp = e_step(cells, params)
        for c, row in zip(cells, resp):
            f0 = math.exp(-0.5 * ((c - params.u0) / params.sigma0) ** 2) / params.sigma0
            f1 = math.exp(-0.5 * ((c - params.u1) / params.sigma1) ** 2) / params.sigma1
            assert row[0] == pytest.approx(f0 / (f0 + f1), rel=1e-9)

    def test_rows_normalized(self):
        levels, _ = two_cluster_sample(2, n=400)
        resp = e_step(levels, MixtureParams(0.1, 0.2, 0.8, 0.3))
        assert np.max(np.abs(resp.sum(axis=1) - 1.0)) < 1e-12


    def test_rows_sum_to_one_far_from_both_components(self):
        # the log-domain normalisation keeps a cell whose densities both
        # underflow at one exact 1 and one 0
        resp = e_step([-1e3, 1e3], MixtureParams(0.0, 0.1, 1.0, 0.1))
        assert resp.tolist() == [[1.0, 0.0], [0.0, 1.0]]


class TestLogLikelihood:
    def test_matches_mixture_density_oracle(self):
        params = MixtureParams(-0.2, 0.3, 0.9, 0.15)
        cells = make_rng(10).uniform(-1, 2, 50)
        expect = 0.0
        for c in cells:
            f0 = math.exp(-0.5 * ((c - params.u0) / params.sigma0) ** 2) / params.sigma0
            f1 = math.exp(-0.5 * ((c - params.u1) / params.sigma1) ** 2) / params.sigma1
            expect += math.log(0.5 * (f0 + f1) / math.sqrt(2 * math.pi))
        assert log_likelihood(cells, params) == pytest.approx(expect, rel=1e-12)


class TestMStep:
    def test_hard_assignment_gives_cluster_stats(self):
        levels = np.array([0.0, 0.2, 1.0, 1.4])
        resp = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        p = m_step(levels, resp)
        assert p.u0 == pytest.approx(0.1)
        assert p.u1 == pytest.approx(1.2)
        assert p.sigma0 == pytest.approx(np.std([0.0, 0.2]))
        assert p.sigma1 == pytest.approx(np.std([1.0, 1.4]))

    def test_uniform_responsibilities_collapse_means(self):
        levels = np.array([0.0, 0.5, 1.0, 1.5])
        resp = np.full((4, 2), 0.5)
        p = m_step(levels, resp)
        assert p.u0 == pytest.approx(levels.mean())
        assert p.u1 == pytest.approx(levels.mean())

    def test_one_step_improves_likelihood(self):
        levels, _ = two_cluster_sample(3, n=3000)
        start = MixtureParams(0.2, 0.25, 0.7, 0.25)
        stepped = m_step(levels, e_step(levels, start))
        assert log_likelihood(levels, stepped) > log_likelihood(levels, start)

    def test_collapse_detected(self):
        levels = np.array([0.0, 0.1, 0.2])
        resp = np.array([[1.0, 0.0]] * 3)
        with pytest.raises(ComponentCollapse):
            m_step(levels, resp)


class TestFit:
    def test_recovers_generating_parameters(self):
        levels, _ = two_cluster_sample(4)
        p = fit(levels).params
        assert p.u0 == pytest.approx(0.0, abs=0.02)
        assert p.u1 == pytest.approx(1.0, abs=0.02)
        assert p.sigma0 == pytest.approx(0.1, abs=0.02)
        assert p.sigma1 == pytest.approx(0.1, abs=0.02)

    def test_likelihood_never_decreases(self):
        levels, _ = two_cluster_sample(5, n=4000)
        res = fit(levels)
        ll = res.log_likelihood
        assert all(b >= a - 1e-8 for a, b in zip(ll, ll[1:]))

    def test_truth_is_near_fixed_point(self):
        levels, _ = two_cluster_sample(6)
        res = fit(levels, init=MixtureParams(0.0, 0.1, 1.0, 0.1), tol=1e-6)
        assert res.n_iter <= 2
        assert res.params.u0 == pytest.approx(0.0, abs=0.01)
        assert res.params.u1 == pytest.approx(1.0, abs=0.01)

    def test_mirrored_data_gives_mirrored_fit(self):
        levels, _ = two_cluster_sample(7, n=4000)
        p = fit(levels).params
        q = fit(-levels).params
        assert q.u0 == pytest.approx(-p.u1, abs=1e-6)
        assert q.u1 == pytest.approx(-p.u0, abs=1e-6)
        assert q.sigma0 == pytest.approx(p.sigma1, abs=1e-6)

    def test_labels_sorted(self):
        levels, _ = two_cluster_sample(8, n=2000)
        init = MixtureParams(1.2, 0.2, -0.1, 0.2)  # deliberately swapped
        p = fit(levels, init=init).params
        assert p.u0 <= p.u1

    @pytest.mark.parametrize("init", [None, MixtureParams(0.2, 0.3, 0.7, 0.3),
                                      MixtureParams(1.2, 0.2, -0.1, 0.2)])
    def test_trace_ends_are_log_likelihoods(self, init):
        # the fit's one-pass E step gives the same figures as the public one
        levels, _ = two_cluster_sample(11, n=1000)
        res = fit(levels, init=init)
        start = init if init is not None else default_init(levels)
        assert res.log_likelihood[0] == log_likelihood(levels, start)
        assert res.log_likelihood[-1] == log_likelihood(levels, res.params)
        assert len(res.log_likelihood) == res.n_iter + 1

    def test_default_init_brackets_clusters(self):
        levels, _ = two_cluster_sample(9, n=2000)
        p = default_init(levels)
        assert p.u0 < 0.3 < 0.7 < p.u1


class TestPerCellLlr:
    def test_midpoint_is_neutral(self):
        assert per_cell_llr([0.5], MixtureParams(0.0, 0.1, 1.0, 0.1))[0] == pytest.approx(0.0)

    def test_linear_in_level_for_equal_sigmas(self):
        params = MixtureParams(0.1, 0.2, 0.9, 0.2)
        cells = np.linspace(-0.5, 1.5, 7)
        llr = per_cell_llr(cells, params)
        slope = (params.u0 - params.u1) / params.sigma0 ** 2
        expected = slope * (cells - (params.u0 + params.u1) / 2)
        assert llr == pytest.approx(expected, rel=1e-9)

    def test_sign_at_component_one(self):
        llr = per_cell_llr([1.0], MixtureParams(-3.0, 0.1, 1.0, 0.1))
        assert llr[0] < -100


class TestNonFiniteLevels:
    PARAMS = MixtureParams(0.0, 0.1, 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda c: fit(c),
        lambda c: e_step(c, TestNonFiniteLevels.PARAMS),
        lambda c: m_step(c, np.full((len(c), 2), 0.5)),
        lambda c: log_likelihood(c, TestNonFiniteLevels.PARAMS),
        lambda c: per_cell_llr(c, TestNonFiniteLevels.PARAMS),
    ], ids=["fit", "e_step", "m_step", "log_likelihood", "per_cell_llr"])
    def test_rejected(self, call, bad):
        # a NaN would otherwise run every EM iteration and return NaN parameters
        with pytest.raises(ValueError, match="finite"):
            call([0.1, bad, 0.9, 0.2])
