"""The four benchmark workloads.

Each workload runs the per-trial work of one `balmod sim` runner, with the
runner's own lineage: trial k of point j draws from `make_rng((seed, j, k))`
(noise from `(seed, j, k, 1)`), exactly as `balmod.harness` does, so one
trial can be replayed alone and a prefix of trials can be checked against
the runner itself (`crosscheck`).  Validity checks are computed here from
the returned words and never call the layer being measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from balmod import bec, channel, harness, ldpc, thresholds
from balmod.words import BitWord


def bits(w) -> np.ndarray:
    """uint8 bits of a BitWord or of an array-like."""
    return np.asarray(w.to_array() if hasattr(w, "to_array") else w, dtype=np.uint8)


def fingerprint(*parts) -> str:
    """Short digest of arrays and scalars, exact to the last bit."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def bp_fingerprint(llr, res) -> str:
    return fingerprint(np.asarray(llr), res.iterations, bool(res.satisfied), bits(res.word))


def balanced_fingerprint(llr, res) -> str:
    return fingerprint(np.asarray(llr), bool(res.ok), res.i, res.candidates, res.score,
                       bits(res.z) if res.ok else None)


def meets_parity(code, z: np.ndarray) -> bool:
    return not np.any(code.H @ z % 2)


def min_balancing_index(z: np.ndarray) -> int:
    """Smallest i such that inverting the first i bits leaves weight n/2."""
    n = z.size
    walk = int(z.sum()) + np.concatenate(([0], np.cumsum(1 - 2 * z.astype(np.int64))))
    hits = np.flatnonzero(walk[:n] == n // 2)
    return int(hits[0]) if hits.size else -1


@dataclass
class Outcome:
    """One trial: the decode latency, the quality record, and any validity
    problem (a problem makes the trial a failure; a word error does not)."""

    decode_s: float
    record: dict
    problems: list[str] = field(default_factory=list)


class Workload:
    def __init__(self, name: str, why: str, cells: int, quality_trials: int, block: int,
                 kernel: str, crosscheck_trials: int, layer_stages: tuple[str, ...]):
        self.name = name
        self.why = why
        self.cells = cells                          # stored cells (bits) per trial
        self.quality_trials = quality_trials        # fixed trial count every run completes
        self.block = block                          # trials per throughput block
        self.kernel = kernel                        # calibration.KERNELS entry for the trial's mix
        self.crosscheck_trials = crosscheck_trials  # first trials compared with the runner
        self.layer_stages = layer_stages            # layers.STAGES timed alone in --trace 1

    def setup(self) -> None:
        raise NotImplementedError

    def trial(self, seed: int, k: int) -> Outcome:
        raise NotImplementedError

    def key(self, seed: int, k: int) -> tuple[int, int, int]:
        """(seed, point, trial) lineage of flat trial index k."""
        return (seed, 0, k)

    def quality(self, records: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def crosscheck(self, seed: int, records: list[dict]) -> list[str]:
        """Mismatches between this workload's first trials and the runner."""
        raise NotImplementedError


def _mismatches(expected: dict, table: harness.ResultTable) -> list[str]:
    out = []
    for (strategy, metric), value in expected.items():
        rows = table.select(strategy, metric)
        got = [r.value for r in rows]
        if got != [value] * len(rows) or not rows:
            out.append(f"{strategy}/{metric}: runner {got} != benchmark {value}")
    return out


class BscWorkload(Workload):
    """`sim wer-bsc` at one crossover point on an (n, 4, 7) code."""

    p = 0.06
    depth = 2
    num_candidates = 4
    max_iter = 50
    code_seed = 1

    def __init__(self, n: int, why: str, **kw):
        super().__init__(f"bsc-{n}", why, n, **kw)
        self.n = n

    def setup(self) -> None:
        self.code = ldpc.build_gallager(self.n, 4, 7, self.code_seed)

    def trial(self, seed: int, k: int) -> Outcome:
        code, p = self.code, self.p
        rng = channel.make_rng((seed, 0, k))
        u = rng.integers(0, 2, code.k)
        z = bits(ldpc.encode(code, u))
        i_true = ldpc._balancing_index_arr(z)
        x = z.copy()
        x[:i_true] ^= 1
        noise = (channel.make_rng((seed, 0, k, 1)).random(code.n) < p).astype(np.uint8)

        llr_u = ldpc.bsc_llr(z ^ noise, p)
        res_u = ldpc.bp_decode(code, llr_u, max_iter=self.max_iter)
        word_u = bits(res_u.word)
        unbal_err = not (res_u.satisfied and np.array_equal(word_u, z))

        llr_b = ldpc.bsc_llr(x ^ noise, p)
        t0 = perf_counter()
        res_b = ldpc.balanced_decode(code, llr_b, depth=self.depth,
                                     num_candidates=self.num_candidates,
                                     max_iter=self.max_iter)
        decode_s = perf_counter() - t0
        z_b = bits(res_b.z) if res_b.ok else None
        bal_err = not (res_b.ok and np.array_equal(z_b, z))

        problems = []
        if res_u.satisfied and not meets_parity(code, word_u):
            problems.append("plain BP reports satisfied but fails parity")
        if res_b.ok:
            i = res_b.i
            if not meets_parity(code, z_b):
                problems.append("decoded word fails parity")
            if i != min_balancing_index(z_b):
                problems.append(f"index {i} is not the minimal balancing index")
            x_b = z_b.copy()
            x_b[:i] ^= 1
            if 2 * int(x_b.sum()) != code.n:
                problems.append("decoded word inverted at its index is not balanced")
            if not np.array_equal(bits(res_b.u), z_b[code.message_positions]):
                problems.append("message differs from the codeword's message positions")
        hit = any(abs(int(c) - i_true) <= 1 for c in res_b.candidates)
        calls = [bp_fingerprint(llr_u, res_u), balanced_fingerprint(llr_b, res_b)]
        return Outcome(decode_s, {"unbal_err": unbal_err, "bal_err": bal_err,
                                  "hit": hit, "calls": calls}, problems)

    def quality(self, records):
        n = len(records)
        return {"wer": sum(r["bal_err"] for r in records) / n,
                "wer_unbalanced": sum(r["unbal_err"] for r in records) / n,
                "candidate_hit_ratio": sum(r["hit"] for r in records) / n}

    def crosscheck(self, seed, records):
        """The runner's WER on the same trials, and the input LLRs and the
        results of its two top-level decoder calls in every trial, which
        must equal the benchmark's.  The call check can fail on any trial,
        with or without a word error."""
        k = len(records)
        spec = harness.WerBscSpec(n=self.n, col_weight=4, row_weight=7, p_grid=(self.p,),
                                  depth=self.depth, num_candidates=self.num_candidates,
                                  max_iter=self.max_iter, trials=k, seed=seed,
                                  code_seed=self.code_seed)
        expected = {("unbalanced", "wer"): sum(r["unbal_err"] for r in records) / k,
                    ("balanced", "wer"): sum(r["bal_err"] for r in records) / k}
        seen, depth = [], [0]
        real_bp, real_balanced = ldpc.bp_decode, ldpc.balanced_decode

        def bp_decode(code, llr, *a, **kw):
            depth[0] += 1
            try:
                res = real_bp(code, llr, *a, **kw)
            finally:
                depth[0] -= 1
            if not depth[0]:  # BP calls inside balanced_decode are its own business
                seen.append(bp_fingerprint(llr, res))
            return res

        def balanced_decode(code, llr, *a, **kw):
            depth[0] += 1
            try:
                res = real_balanced(code, llr, *a, **kw)
            finally:
                depth[0] -= 1
            seen.append(balanced_fingerprint(llr, res))
            return res

        ldpc.bp_decode, ldpc.balanced_decode = bp_decode, balanced_decode
        try:
            out = _mismatches(expected, harness.run_wer_bsc(spec))
        finally:
            ldpc.bp_decode, ldpc.balanced_decode = real_bp, real_balanced
        calls = [c for r in records for c in r["calls"]]
        if seen != calls:
            bad = next((j for j, (a, b) in enumerate(zip(seen, calls)) if a != b),
                       min(len(seen), len(calls)))
            out.append(f"decoder call {bad} (trial {bad // 2}): runner {seen[bad:bad + 1]} "
                       f"!= benchmark {calls[bad:bad + 1]} ({len(seen)} vs {len(calls)} calls)")
        return out


class BecWorkload(Workload):
    """`sim wer-bec` at n = 256, (a, b) = (3, 4), erasure p = 0.35, budget n + 1."""

    n = 256
    p = 0.35
    code_seed = 11

    def __init__(self, why: str, **kw):
        super().__init__(f"bec-{self.n}", why, self.n, **kw)

    def setup(self) -> None:
        self.code = ldpc.build_gallager(self.n, 3, 4, self.code_seed)

    def trial(self, seed: int, k: int) -> Outcome:
        code = self.code
        rng = channel.make_rng((seed, 0, k))
        u = rng.integers(0, 2, code.k)
        x, i_true = ldpc.balanced_encode(code, u)
        z_true = bits(x).copy()
        z_true[:i_true] ^= 1
        y = channel.apply_bec(x, self.p, seed=(seed, 0, k, 1))

        g = bec.genie_peel(code, y, i_true)
        genie_ok = g is not None and np.array_equal(g, z_true)

        t0 = perf_counter()
        res = bec.bec_decode(code, y, budget=self.n + 1)
        decode_s = perf_counter() - t0
        unique = res.status == bec.UNIQUE
        z_u = bits(res.z) if unique else None
        unique_ok = unique and np.array_equal(z_u, z_true)

        problems = []
        if unique:
            if not meets_parity(code, z_u):
                problems.append("unique word fails parity")
            seen = y != channel.ERASURE
            stored = z_u ^ (np.arange(code.n) < res.i).astype(np.uint8)
            if not np.array_equal(stored[seen], y[seen]):
                problems.append("unique word disagrees with a received bit")
            if g is not None and not np.array_equal(z_u, g):
                problems.append("unique word differs from the known-index peel")
        return Outcome(decode_s, {"genie_ok": genie_ok, "unique_ok": unique_ok,
                                  "unique": unique,
                                  "residual": res.residual_set_size}, problems)

    def quality(self, records):
        n = len(records)
        return {"wer": 1.0 - sum(r["unique_ok"] for r in records) / n,
                "wer_genie": 1.0 - sum(r["genie_ok"] for r in records) / n,
                "unique_ratio": sum(r["unique"] for r in records) / n,
                "residual_set_mean": float(np.mean([r["residual"] for r in records]))}

    def crosscheck(self, seed, records):
        k = len(records)
        spec = harness.WerBecSpec(block_lengths=(self.n,), col_weight=3, row_weight=4,
                                  erasure_p=self.p, trials=k, seed=seed,
                                  code_seed=self.code_seed)
        genie_ok = sum(r["genie_ok"] for r in records)
        unique_ok = sum(r["unique_ok"] for r in records)
        expected = {("genie", "wer"): 1.0 - genie_ok / k,
                    ("balanced", "wer"): 1.0 - unique_ok / k,
                    ("balanced", "unique_rate"): sum(r["unique"] for r in records) / k,
                    ("genie", "success_rate"): genie_ok / k,
                    ("balanced", "mean_inversion_set"):
                        float(np.mean([r["residual"] for r in records]))}
        return _mismatches(expected, harness.run_wer_bec(spec))


class BerWorkload(Workload):
    """`sim ber`: mean drift, sigma 0.2, 10 000 cells, t = 0 .. 0.5 by 0.1.

    Flat trial k is point k % 6 (the age t), runner trial k // 6, so every
    six consecutive trials cover the whole t-grid once.
    """

    model = channel.MEAN_DRIFT
    sigma = 0.2
    t_grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    strategies = ("fixed", "balancing", "optimal", "mean", "second_order")

    def __init__(self, why: str, **kw):
        super().__init__("ber-10k", why, 10_000, **kw)

    def setup(self) -> None:
        self.drift = channel.DriftModel(self.model, self.sigma)

    def key(self, seed, k):
        return (seed, k % len(self.t_grid), k // len(self.t_grid))

    def trial(self, seed: int, k: int) -> Outcome:
        _, t_idx, trial = self.key(seed, k)
        t = self.t_grid[t_idx]
        rng = channel.make_rng((seed, t_idx, trial))
        stored = np.zeros(self.cells, dtype=np.uint8)
        stored[rng.permutation(self.cells)[:self.cells // 2]] = 1
        x = BitWord.from_array(stored)
        levels = channel.sample_levels(x, self.drift, t, seed=(seed, t_idx, trial, 1)).levels

        # The block's decode is its read with every strategy, genie included,
        # and the error count of each; a lone exact threshold (~0.2 ms) moved
        # 15% between processes with the same code.
        t0 = perf_counter()
        bal = thresholds.balancing_threshold_exact(levels)
        _, opt_counts = thresholds.optimal_threshold_oracle(levels, x)
        chosen = {"fixed": 0.5, "balancing": bal.value,
                  "mean": thresholds.relaxed_threshold_mean(levels),
                  "second_order": thresholds.relaxed_threshold_second_order(levels, 0.0)}
        errs = {name: int(np.sum((levels >= v).astype(np.uint8) != stored))
                for name, v in chosen.items()}
        errs["optimal"] = opt_counts.total
        decode_s = perf_counter() - t0

        problems = []
        if bal.exact and 2 * int(np.sum(levels >= bal.value)) != self.cells:
            problems.append("exact balancing read is not balanced")
        if errs["balancing"] > 2 * errs["optimal"]:
            problems.append("balancing errors exceed twice the oracle's")
        if any(errs[name] < errs["optimal"] for name in chosen):
            problems.append("a strategy beat the genie oracle")
        return Outcome(decode_s, {"t_idx": t_idx, "errs": errs}, problems)

    def quality(self, records):
        total = self.cells * len(records)
        return {f"ber_{name}": sum(r["errs"][name] for r in records) / total
                for name in self.strategies}

    def crosscheck(self, seed, records):
        # one runner trial per age: flat trials 0..5 are runner trial 0 of each t
        points = len(self.t_grid)
        spec = harness.BerCurveSpec(model=self.model, sigma=self.sigma, t_grid=self.t_grid,
                                    cells=self.cells, trials=1, seed=seed)
        table = harness.run_ber_curve(spec)
        out = []
        for rec in records[:points]:
            t = self.t_grid[rec["t_idx"]]
            for name in self.strategies:
                got = [r.value for r in table.select(name, "ber") if r.x == t]
                want = rec["errs"][name] / self.cells
                if got != [want]:
                    out.append(f"t={t} {name}: runner {got} != benchmark {want}")
        return out


WORKLOADS = {w.name: w for w in (
    BscWorkload(
        280,
        "the paper's headline (280,4,7) experiment; scorer ~2/3 and BP ~1/3 of a "
        "trial, so both decoding layers move it",
        quality_trials=400, block=25, kernel="scorer-280", crosscheck_trials=12,
        layer_stages=("score_n280", "bp_n280", "syndrome_n280", "build_n280")),
    BscWorkload(
        1120,
        "same pipeline at 4x the length: the quadratic scorer is ~90% of a trial, "
        "BP ~6%, so it measures scaling in n",
        quality_trials=20, block=2, kernel="scorer-1120", crosscheck_trials=2,
        layer_stages=("score_n1120", "bp_n1120", "syndrome_n1120", "build_n1120",
                      "large_n4480")),
    BecWorkload(
        "the erasure path: peeling, interval narrowing and enumeration, with no "
        "scorer and no BP, so BSC-decoder changes must not move it",
        quality_trials=600, block=50, kernel="peeling", crosscheck_trials=20,
        layer_stages=("bec_n256", "bec_n1024")),
    BerWorkload(
        "the only workload for thresholds and channel.sample_levels, and words at "
        "10 000 bits; the genie oracle dominates",
        quality_trials=300, block=30, kernel="threshold-scan", crosscheck_trials=6,
        layer_stages=("thresholds_n10000", "em_n4096", "knuth_k1024", "mlc_q4")),
)}
