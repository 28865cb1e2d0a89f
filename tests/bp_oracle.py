"""Reference semantics of belief propagation, kept as the tests' oracle.

`bp_decode` is the one-word flooding sum-product loop that `ldpc.bp_decode`
ran before BP moved into a batched kernel, and `balanced_decode` the serial
candidate loop over it.  With top candidates, each candidate still runs to
its own convergence, but only the rows that converge at the smallest
iteration count of any satisfied row compete for the win (the kernel stops
the whole candidate batch there); the exhaustive decoder lets every
satisfied row compete.  `ldpc.bp_decode` and `ldpc.balanced_decode` must
equal them exactly: the same word, `satisfied` and `iterations`, and the
same decoded index, candidates and score.

Where the decoder windows its scores (depth 2 or more, and 2K(2w+1) <= n),
`candidates` scores with the per-shift reference of `score_oracle`: every
shift at depth 1 for the top K maxima, then only the shifts within w of one
of them, every other shift scoring -inf.
"""

import numpy as np

from balmod import ldpc
from balmod.ldpc import (LLR_CLIP, _ATANH_LIMIT, BalancedDecodeResult, BpResult, LdpcCode,
                         candidate_inversions, lambda_scores, syndrome)
from balmod.words import find_balancing_index
from score_oracle import lambda_scores_scratch


def _loo_prod(t: np.ndarray) -> np.ndarray:
    """Leave-one-out products along the last axis via prefix/suffix scans."""
    pre = np.empty_like(t)
    pre[..., 0] = 1.0
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.empty_like(t)
    suf[..., -1] = 1.0
    suf[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    return pre * suf


def bp_decode(code: LdpcCode, llr, max_iter: int = 50) -> BpResult:
    """Flooding sum-product decoding; positive LLR favors bit 0.

    Stops once the hard decision satisfies every check, else after max_iter
    (at least 1) iterations with satisfied = False.  Messages are clipped to +-30 to keep
    tanh / arctanh stable.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    L = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    if L.size != code.n:
        raise ValueError(f"llr length {L.size} != n = {code.n}")
    r, b = code.r, code.b
    vei = code.var_edge_ids
    m_vc = L[code.check_nbrs.ravel()]      # flat check-major edges
    hard = (L < 0).astype(np.uint8)
    for it in range(1, max_iter + 1):
        t = np.tanh(0.5 * m_vc.reshape(r, b))
        m_cv = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))
        inc = m_cv.reshape(-1)[vei]          # (n, a) check messages per variable
        post = L + inc.sum(axis=1)
        m_vc[vei] = np.clip(post[:, None] - inc, -LLR_CLIP, LLR_CLIP)
        hard = (post < 0).astype(np.uint8)
        if not np.any(syndrome(code, hard)):
            return BpResult(word=hard, satisfied=True, iterations=it)
    return BpResult(word=hard, satisfied=False, iterations=max_iter)


def candidates(code: LdpcCode, llr, depth: int, num_candidates: int) -> list[int]:
    """The top num_candidates local maxima of the shift scores, scored inside
    the windows of the module docstring's rule (read from ldpc's K and w)
    where it applies, and at every shift otherwise."""
    base = np.asarray(llr, dtype=np.float64)
    peaks, half = ldpc._WINDOW_PEAKS, ldpc._WINDOW_HALF
    if depth < 2 or 2 * peaks * (2 * half + 1) > code.n:
        return candidate_inversions(lambda_scores(code, base, depth), num_candidates)
    inside = np.zeros(code.n, dtype=bool)
    for peak in candidate_inversions(lambda_scores_scratch(code, base, 1), peaks):
        inside[max(peak - half, 0):peak + half + 1] = True
    scores = lambda_scores_scratch(code, base, depth, shifts=np.flatnonzero(inside))
    return candidate_inversions(scores, num_candidates)


def candidate_decodes(code: LdpcCode, llr, depth: int = 2, num_candidates: int | None = 4,
                      max_iter: int = 50) -> tuple[list[int], list[BpResult]]:
    """The candidate shifts, and one oracle BP decode per shift in their order."""
    base = np.asarray(llr, dtype=np.float64)
    if num_candidates is None:
        cands = list(range(code.n))
    else:
        cands = candidates(code, base, depth, num_candidates)
    results = []
    for j in cands:
        lj = base.copy()
        lj[:j] = -lj[:j]
        results.append(bp_decode(code, lj, max_iter=max_iter))
    return cands, results


def pick_winner(code: LdpcCode, llr, cands: list[int],
                results: list[BpResult]) -> BalancedDecodeResult:
    """Going through the results in candidate order, the first satisfied
    copy of each word is scored; the best score wins, the earlier on a tie."""
    clipped = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    best_score = None
    best = None
    seen: set[bytes] = set()
    for res in results:
        if not res.satisfied:
            continue
        z = res.word
        key = z.tobytes()
        if key in seen:
            continue
        seen.add(key)
        i_min = find_balancing_index(z)
        x_hat = z.copy()
        x_hat[:i_min] ^= 1
        corr = float(np.sum((1.0 - 2.0 * x_hat.astype(np.float64)) * clipped))
        if best_score is None or corr > best_score:
            best_score = corr
            best = (i_min, z)
    if best is None:
        return BalancedDecodeResult(ok=False, u=None, z=None, i=None,
                                    candidates=tuple(cands), score=None)
    i_min, z = best
    return BalancedDecodeResult(ok=True, u=z[code.message_positions], z=z, i=i_min,
                                candidates=tuple(cands), score=best_score)


def balanced_decode(code: LdpcCode, llr, depth: int = 2, num_candidates: int | None = 4,
                    max_iter: int = 50) -> BalancedDecodeResult:
    """One oracle BP decode per candidate shift, then pick_winner; with top
    candidates only the rows satisfied at the smallest iteration count of any
    satisfied row compete."""
    cands, results = candidate_decodes(code, llr, depth, num_candidates, max_iter)
    if num_candidates is not None:
        first = min((res.iterations for res in results if res.satisfied), default=None)
        results = [res for res in results if res.satisfied and res.iterations == first]
    return pick_winner(code, llr, cands, results)
