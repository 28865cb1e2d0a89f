"""End-to-end acceptance gate.

Each test exercises one shipped guarantee at its stated tolerance and prints
a single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
The slowest gates assert their own wall-clock budgets.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from balmod import bec, channel, cli, em, harness, ldpc, mlc, thresholds, words
from balmod.words import BitWord
from score_oracle import lambda_scores_scratch


@contextmanager
def gate(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def test_01_knuth_codec_exhaustive():
    with gate("01 knuth-codec-exhaustive"):
        start = time.perf_counter()
        for length in range(2, 17, 2):
            count = 2 ** length
            bits = ((np.arange(count)[:, None] >> np.arange(length - 1, -1, -1)) & 1
                    ).astype(np.uint8)
            # independent minimality oracle: recount ones directly per prefix
            weights = np.empty((count, length + 1), dtype=np.int64)
            for i in range(length + 1):
                weights[:, i] = (1 - bits[:, :i]).sum(axis=1) + bits[:, i:].sum(axis=1)
            balanced_at = weights[:, :length] == length // 2
            oracle_idx = np.argmax(balanced_at, axis=1)
            assert balanced_at[np.arange(count), oracle_idx].all()
            for value in range(count):
                u = BitWord(tuple(int(b) for b in bits[value]))
                assert words.find_balancing_index(u) == int(oracle_idx[value])
                assert words.knuth_decode(words.knuth_encode(u)) == u
        elapsed = time.perf_counter() - start
        print(f"  exhaustive codec sweep: {elapsed:.1f}s", end="")
        assert elapsed < 10.0


def test_02_balancing_threshold_factor_two_bound():
    with gate("02 balancing-error-factor-two"):
        start = time.perf_counter()
        rng = channel.make_rng(2024)
        trials = 100_000
        violations = 0
        inexact = 0
        sizes = np.array([8, 16, 32])
        for trial in range(trials):
            n = int(sizes[trial % 3])
            stored = np.zeros(n, dtype=np.uint8)
            stored[rng.permutation(n)[:n // 2]] = 1
            t = rng.uniform(0.0, 0.5)
            sigma = rng.uniform(0.05, 0.3)
            levels = rng.normal(np.where(stored == 1, 1.0 - t, 0.0), sigma)
            x = BitWord.from_array(stored)
            res = thresholds.balancing_threshold_exact(levels)
            if not res.exact:
                inexact += 1
                continue
            ne_bal = thresholds.error_counts(
                x, thresholds.read_with_threshold(levels, res.value)).total
            _, ne_opt = thresholds.optimal_threshold_oracle(levels, x)
            violations += int(ne_bal > 2 * ne_opt.total)
        elapsed = time.perf_counter() - start
        print(f"  {trials} trials, {violations} violations, "
              f"{inexact} ties, {elapsed:.1f}s", end="")
        assert violations == 0
        assert inexact == 0
        assert elapsed < 60.0


def test_03_drift_model_analytics():
    with gate("03 drift-model-analytics"):
        start = time.perf_counter()
        cells = 10_000
        # variance growth uses sigma 0.1: at the default 0.2 the closed-form
        # balanced and fixed error rates cross inside the age grid
        runs = (
            (channel.MEAN_DRIFT, 0.2, 31),
            (channel.VARIANCE_GROWTH, 0.1, 32),
        )
        for kind, sigma, seed in runs:
            spec = harness.BerCurveSpec(model=kind, sigma=sigma, cells=cells,
                                        trials=1, seed=seed)
            table = harness.run_ber_curve(spec)
            model = channel.DriftModel(kind, sigma)
            for t in spec.t_grid:
                emp = [r for r in table.select("balancing", "ber") if r.x == t][0]
                ana = float(channel.analytic_ber(
                    model, channel.model_thresholds(model, t).vb, t))
                se = math.sqrt(max(ana * (1.0 - ana), 0.0) / cells)
                assert abs(emp.value - ana) <= 3.0 * se + 1e-12, (kind, t)
                fixed = [r for r in table.select("fixed", "ber") if r.x == t][0]
                opt = [r for r in table.select("optimal", "ber") if r.x == t][0]
                if kind == channel.MEAN_DRIFT:
                    if t > 0:
                        assert emp.value <= fixed.value, t
                else:
                    assert opt.value <= emp.value <= fixed.value, t
        elapsed = time.perf_counter() - start
        print(f"  both models, 6 ages each, {elapsed:.1f}s", end="")
        assert elapsed < 120.0


def test_04_em_recovery():
    with gate("04 em-mixture-recovery"):
        n = 10_000
        good = 0
        for run in range(100):
            rng = channel.make_rng((41, run))
            stored = rng.permutation(np.repeat([0, 1], n // 2))
            levels = rng.normal(np.where(stored == 1, 1.0, 0.0), 0.1)
            res = em.fit(levels)
            ll = res.log_likelihood
            assert all(b >= a - 1e-8 for a, b in zip(ll, ll[1:])), run
            p = res.params
            good += int(abs(p.u0) <= 0.02 and abs(p.u1 - 1.0) <= 0.02
                        and abs(p.sigma0 - 0.1) <= 0.02
                        and abs(p.sigma1 - 0.1) <= 0.02)
        print(f"  {good}/100 runs within tolerance", end="")
        assert good >= 95


def test_05_shift_score_incremental_exactness():
    with gate("05 shift-score-incremental-exact"):
        for (n, a, b), seed in (((56, 2, 7), 3), ((280, 4, 7), 1)):
            code = ldpc.build_gallager(n, a, b, seed=seed)
            rng = channel.make_rng((51, n))
            for depth in (1, 2, 3):
                for i in range(20):
                    # constant-magnitude BSC LLRs tie exactly; Gaussian ones do not
                    if i % 2:
                        llr = ldpc.bsc_llr(rng.integers(0, 2, code.n), 0.06)
                    else:
                        llr = rng.normal(0.0, 4.0, code.n)
                    scores = ldpc.lambda_scores(code, llr, depth)
                    scr = lambda_scores_scratch(code, llr, depth)
                    assert np.array_equal(scores, scr), (n, depth)
                    if depth == 1:
                        hard = (llr < 0).astype(np.uint8)
                        for j in range(code.n):
                            yj = hard.copy()
                            yj[:j] ^= 1
                            unsat = int(ldpc.syndrome(code, yj).sum())
                            assert scores[j] == float(code.r - 2 * unsat), (n, j)
        print("  (56,2,7) and (280,4,7), depths 1-3, 20 inputs each "
              "(10 Gaussian, 10 BSC)", end="")


def test_06_balanced_bsc_pipeline_gap():
    with gate("06 balanced-bsc-wer-gap"):
        start = time.perf_counter()
        spec = harness.WerBscSpec(n=280, col_weight=4, row_weight=7,
                                  p_grid=(0.05, 0.055, 0.06, 0.065),
                                  depth=2, num_candidates=4, max_iter=50,
                                  trials=2000, seed=61, code_seed=1)
        table = harness.run_wer_bsc(spec)
        lines = []
        for p in spec.p_grid:
            unbal = [r for r in table.select("unbalanced", "wer") if r.x == p][0]
            bal = [r for r in table.select("balanced", "wer") if r.x == p][0]
            lines.append(f"p={p}: unbal {unbal.value:.4f} bal {bal.value:.4f}")
            assert 1e-3 <= unbal.value <= 1e-1, (p, unbal.value)
            assert bal.value <= 2.0 * unbal.value, (p, bal.value, unbal.value)
        elapsed = time.perf_counter() - start
        print("  " + "; ".join(lines) + f"; {elapsed:.0f}s", end="")
        assert elapsed < 600.0


def test_07_bec_inversion_set_decoder():
    with gate("07 bec-inversion-set"):
        trials = 400
        p = 0.35
        mean_residuals = []
        for n_idx, n in enumerate((64, 128, 256)):
            code = ldpc.build_gallager(n, 3, 4, seed=11)
            genie_ok = unique_ok = 0
            residuals = []
            for trial in range(trials):
                rng = channel.make_rng((71, n_idx, trial))
                u = rng.integers(0, 2, code.k)
                x, i_true = ldpc.balanced_encode(code, u)
                z_true = x.to_array().copy()
                z_true[:i_true] ^= 1
                y = channel.apply_bec(x, p, seed=(71, n_idx, trial, 1))
                g = bec.genie_peel(code, y, i_true)
                genie_success = g is not None and np.array_equal(g, z_true)
                genie_ok += int(genie_success)
                res = bec.bec_decode(code, y, budget=n + 1)
                residuals.append(res.residual_set_size)
                if res.status == bec.UNIQUE:
                    unique_ok += 1
                    if genie_success:
                        assert np.array_equal(res.z, g), (n, trial)
            assert abs(unique_ok / trials - genie_ok / trials) <= 0.05, n
            mean_residuals.append(float(np.mean(residuals)))
        print(f"  mean residual inversion-set sizes at p={p}: "
              + ", ".join(f"n={n}: {m:.2f}" for n, m
                          in zip((64, 128, 256), mean_residuals)), end="")
        assert all(m <= 64.0 for m in mean_residuals)
        assert mean_residuals[0] >= mean_residuals[1] >= mean_residuals[2]


def test_08_rank_codec_bijection():
    with gate("08 rank-codec-bijection"):
        base = tuple(s for s in range(3) for _ in range(3))
        oracle = sorted(set(itertools.permutations(base)))
        assert len(oracle) == 1680
        for r, word in enumerate(oracle):
            assert tuple(mlc.unrank_balanced(r, 3, 3)) == word
            assert mlc.rank_balanced(list(word), q=3) == r
        assert mlc.multinomial(8, (2, 3, 3)) == 560
        x = mlc.unrank_balanced(658, 3, 3)
        assert x[0] == 1
        assert mlc.rank_multiset(x[1:], (3, 2, 3)) == 98
        target = (1, 0, 1, 2, 0, 2, 1, 0, 2)
        oracle_rank = oracle.index(target)
        assert mlc.rank_balanced(list(target), q=3) == oracle_rank
        print(f"  all 1680 words bijective; rank(101202102) = {oracle_rank}", end="")


def test_09_generalized_balancer():
    with gate("09 generalized-knuth-mlc"):
        x, trace = mlc.knuth_q_balance([int(c) for c in "0110230210110003"], 4)
        assert "".join(map(str, x)) == "2332231210110003"
        assert trace.locations == (4, 1, 0)
        back = mlc.knuth_q_unbalance(x, trace, 4)
        assert "".join(map(str, back)) == "0110230210110003"

        rng = channel.make_rng(91)
        for q in (3, 4, 8):
            for _ in range(10_000):
                m = int(rng.integers(1, 5))
                u = rng.integers(0, q, q * m)
                bal, tr = mlc.knuth_q_balance(u, q)
                counts = np.bincount(bal, minlength=q)
                assert np.all(counts == m), (q, m)
                assert np.array_equal(mlc.knuth_q_unbalance(bal, tr, q), u)

        assert mlc.trace_bit_cost(8, 128) == 137
        published = [2.0000, 4.4803, 6.0000, 6.9361, 7.5694,
                     8.0351, 8.4000, 8.6995, 8.9539]
        for q, expected in zip(range(2, 11), published):
            assert abs(mlc.redundancy_factor(q) - expected) < 5e-5, q
        print("  walkthrough pins, 30000 round trips, cost table", end="")


def test_10_partial_balanced_pipeline():
    with gate("10 partial-balanced"):
        from balmod.partial import (make_partial_scheme, pb_decode, pb_encode,
                                    rate_fixed_vs_partial)
        fixed, partial = rate_fixed_vs_partial(255, 131, 191, 8)
        assert round(fixed, 4) == 0.5137
        assert round(partial, 4) == 0.7176

        code = ldpc.build_gallager(280, 4, 7, seed=1)
        scheme = make_partial_scheme(code, k_info=112, layout_seed=101)
        capability = 2   # planted-flip budget the shipped decoder must absorb
        recovered = 0
        for trial in range(1000):
            rng = channel.make_rng((101, trial))
            u = BitWord.from_array(rng.integers(0, 2, scheme.k_info))
            cw = pb_encode(scheme, u)
            y = cw.physical.copy()
            n_err = int(rng.integers(0, capability + 1))
            for pos in rng.choice(scheme.n, size=n_err, replace=False):
                y[pos] ^= 1
            res = pb_decode(scheme, BitWord.from_array(y))
            recovered += int(res.ok and np.array_equal(res.u, u))
        print(f"  rates pinned; {recovered}/1000 planted-error recoveries", end="")
        assert recovered == 1000


def test_11_sim_determinism(tmp_path):
    with gate("11 sim-determinism"):
        commands = {
            "ber": ["sim", "ber", "--t-grid", "0,0.3", "--cells", "1000",
                    "--seed", "111", "--trials", "2"],
            "wer-bec": ["sim", "wer-bec", "--n-list", "32,64", "--p", "0.3",
                        "--trials", "25", "--seed", "112"],
            "wer-bsc": ["sim", "wer-bsc", "--code", "70,4,7", "--p-grid",
                        "0.04,0.05", "--trials", "12", "--seed", "113"],
            "inversion-set": ["sim", "inversion-set", "--n-list", "32",
                              "--p-grid", "0.2,0.4", "--trials", "15",
                              "--seed", "114"],
        }
        for name, argv in commands.items():
            outputs = []
            for run in (1, 2):
                out = tmp_path / f"{name}-{run}.csv"
                assert cli.main(argv + ["--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
        print(f"  {len(commands)} sim subcommands byte-identical twice", end="")
