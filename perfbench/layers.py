"""Pipeline stages timed alone on fixed seeded inputs (ROADMAP aim 1).

Each stage returns {metric name: value}.  A timing is the median of repeated
calls on the same input; a size that does not fit under the memory cap is
reported as absent (None), not as a failure.
"""

from __future__ import annotations

import os
import resource
import statistics
from time import perf_counter

import numpy as np

from balmod import bec, channel, em, ldpc, mlc, thresholds, words
from balmod.words import BitWord

# Extra address space a single stage may map; the depth-2 batch scorer needs
# several GB at n = 4480, which is reported as absent.
MEMORY_CAP_BYTES = 768 << 20


def median_time(fn, min_reps: int = 3, budget_s: float = 0.4, max_reps: int = 200,
                warmup: bool = True) -> float:
    if warmup:
        fn()
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_reps or (perf_counter() - start < budget_s and len(times) < max_reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _vm_bytes() -> int | None:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


def under_memory_cap(fn):
    """fn() with the address space capped at current + MEMORY_CAP_BYTES;
    None when it does not fit (or the cap cannot be set on this platform)."""
    used = _vm_bytes()
    if used is None:
        return None
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = used + MEMORY_CAP_BYTES
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        return fn()
    except MemoryError:
        return None
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _bsc_input(code, seed: int, p: float = 0.06):
    """Noisy balanced codeword's LLRs and the hard word, from the seed."""
    u = channel.make_rng((seed, 7, 0)).integers(0, 2, code.k)
    x, _ = ldpc.balanced_encode(code, u)
    noise = (channel.make_rng((seed, 7, 0, 1)).random(code.n) < p).astype(np.uint8)
    y = x.to_array() ^ noise
    return ldpc.bsc_llr(y, p), y


def _bsc_code(n: int):
    return ldpc.build_gallager(n, 4, 7, 1)


def stage_score(n: int):
    def run(seed):
        code = _bsc_code(n)
        llr, _ = _bsc_input(code, seed)
        return {f"ldpc.score_ms_d{d}_n{n}":
                1e3 * median_time(lambda: ldpc.lambda_scores(code, llr, d))
                for d in (1, 2, 3)}
    return run


def stage_large(n: int):
    """One timed build at n, then the scorer at each depth under the memory cap."""
    def run(seed):
        t0 = perf_counter()
        code = ldpc.build_gallager(n, 4, 7, 1)
        out = {f"ldpc.build_s_n{n}": perf_counter() - t0}
        llr, _ = _bsc_input(code, seed)
        for d in (1, 2, 3):
            t = under_memory_cap(lambda: median_time(
                lambda: ldpc.lambda_scores(code, llr, d), min_reps=1, budget_s=0.0,
                warmup=False))
            out[f"ldpc.score_ms_d{d}_n{n}"] = None if t is None else 1e3 * t
        return out
    return run


def stage_bp(n: int):
    def run(seed):
        code = _bsc_code(n)
        llr, _ = _bsc_input(code, seed)
        return {f"ldpc.bp_iter_ms_n{n}":
                1e3 * median_time(lambda: ldpc.bp_decode(code, llr, max_iter=1))}
    return run


def stage_syndrome(n: int):
    def run(seed):
        code = _bsc_code(n)
        _, y = _bsc_input(code, seed)
        return {f"ldpc.syndrome_us_n{n}": 1e6 * median_time(lambda: ldpc.syndrome(code, y))}
    return run


def stage_build(n: int):
    def run(seed):
        return {f"ldpc.build_s_n{n}": median_time(lambda: ldpc.build_gallager(n, 4, 7, 1),
                                                  budget_s=0.0, warmup=False)}
    return run


def stage_bec(n: int):
    def run(seed):
        code = ldpc.build_gallager(n, 3, 4, 11)
        u = channel.make_rng((seed, 7, 0)).integers(0, 2, code.k)
        x, i = ldpc.balanced_encode(code, u)
        y = channel.apply_bec(x, 0.35, seed=(seed, 7, 0, 1))
        return {f"bec.decode_ms_n{n}":
                1e3 * median_time(lambda: bec.bec_decode(code, y, budget=n + 1)),
                f"bec.genie_peel_ms_n{n}": 1e3 * median_time(lambda: bec.genie_peel(code, y, i))}
    return run


def _balanced_levels(n: int, t: float, seed):
    stored = np.zeros(n, dtype=np.uint8)
    stored[channel.make_rng(seed).permutation(n)[:n // 2]] = 1
    x = BitWord.from_array(stored)
    model = channel.DriftModel(channel.MEAN_DRIFT, 0.2)
    return x, channel.sample_levels(x, model, t, seed=(*seed, 1)).levels


def stage_thresholds(seed):
    x, levels = _balanced_levels(10_000, 0.3, (seed, 7, 0))
    return {"thresholds.exact_us_n10000":
            1e6 * median_time(lambda: thresholds.balancing_threshold_exact(levels)),
            "thresholds.oracle_ms_n10000":
            1e3 * median_time(lambda: thresholds.optimal_threshold_oracle(levels, x))}


def stage_em(seed):
    _, levels = _balanced_levels(4096, 0.0, (seed, 7, 1))
    return {"em.fit_ms_n4096": 1e3 * median_time(lambda: em.fit(levels)),
            "em.fit_iterations_n4096": float(em.fit(levels).n_iter)}


def stage_knuth(seed):
    u = BitWord.from_array(channel.make_rng((seed, 7, 2)).integers(0, 2, 1024))
    cw = words.knuth_encode(u)
    return {"words.knuth_encode_us_k1024": 1e6 * median_time(lambda: words.knuth_encode(u)),
            "words.knuth_decode_us_k1024": 1e6 * median_time(lambda: words.knuth_decode(cw))}


def stage_mlc(seed):
    word = channel.make_rng((seed, 7, 3)).integers(0, 4, 256)
    return {"mlc.q_balance_us_q4_len256": 1e6 * median_time(lambda: mlc.knuth_q_balance(word, 4))}


STAGES = {
    "score_n280": stage_score(280),
    "score_n1120": stage_score(1120),
    "large_n4480": stage_large(4480),
    "bp_n280": stage_bp(280),
    "bp_n1120": stage_bp(1120),
    "syndrome_n280": stage_syndrome(280),
    "syndrome_n1120": stage_syndrome(1120),
    "build_n280": stage_build(280),
    "build_n1120": stage_build(1120),
    "bec_n256": stage_bec(256),
    "bec_n1024": stage_bec(1024),
    "thresholds_n10000": stage_thresholds,
    "em_n4096": stage_em,
    "knuth_k1024": stage_knuth,
    "mlc_q4": stage_mlc,
}
