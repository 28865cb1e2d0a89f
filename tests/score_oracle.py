"""Reference semantics of the shift score, kept as the tests' oracle.

For shift j the clipped channel LLRs of variables 0..j-1 are negated, then
`depth` - 1 BP rounds (`flooding_round`, which `bp_oracle` iterates too)
run over the whole graph, and the score is the exact sum over checks of the
product entering each check (`exact_sum`), whatever the checks' order.

The shifts are batched, a block of them at a time: each round is one
whole-array step over a (shift, edge) block, in the arithmetic order of one
node at a time (a check's leave-one-out product along its b slots, a
variable's sum along its a edges, left to right).  Each shift is still
computed from scratch: nothing is shared between shifts, and there is no
score plan, no segment reuse and no int64 sum.  `ldpc.lambda_scores` must
equal `lambda_scores_scratch` bit for bit.
"""

import functools
import math

import numpy as np

from balmod.ldpc import LLR_CLIP, _ATANH_LIMIT, LdpcCode, _validate_depth

# shifts scored per block: at n = 1120 a depth-3 call peaks near 45 MB
_BLOCK = 128


def _loo_prod(t: np.ndarray) -> np.ndarray:
    """Leave-one-out products along the last axis via prefix/suffix scans."""
    pre = np.empty_like(t)
    pre[..., 0] = 1.0
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.empty_like(t)
    suf[..., -1] = 1.0
    suf[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    return pre * suf


def flooding_round(code: LdpcCode, words: np.ndarray, m: np.ndarray) -> tuple:
    """One BP round on (rows, n) clipped LLR words and their (rows, r * b)
    check-major variable-to-check messages m: the posteriors (rows, n), and
    the next messages, clip(posterior - incoming message)."""
    t = np.tanh(0.5 * m.reshape(len(words), code.r, code.b))
    rc = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))
    inc = rc.reshape(len(words), -1)[:, code.var_edge_ids]     # (rows, n, a)
    # own LLR + incoming added left to right (np.sum adds 8 or more pairwise)
    post = words + functools.reduce(np.add, np.moveaxis(inc, -1, 0))
    out = np.empty_like(m)
    out[:, code.var_edge_ids] = np.clip(post[..., None] - inc, -LLR_CLIP, LLR_CLIP)
    return post, out


def check_products(code: LdpcCode, words: np.ndarray, depth: int) -> np.ndarray:
    """The (rows, r) products entering each check after `depth` - 1 rounds,
    for a (rows, n) block of clipped LLR words: signs at depth 1, tanh(m/2)
    of the messages otherwise."""
    m = words[:, code.check_nbrs.ravel()]         # before round 1: each variable's own LLR
    for _ in range(1, depth):
        m = flooding_round(code, words, m)[1]
    m = m.reshape(-1, code.r, code.b)
    return np.prod(np.where(m >= 0, 1.0, -1.0) if depth == 1 else np.tanh(0.5 * m), axis=-1)


def exact_sum(products) -> float:
    """The score's sum of check products, each rounded to the nearest multiple
    of 2^-50 (ties to even): integers below 2^53 in those units, which math.fsum
    adds exactly and rounds once."""
    return math.fsum(np.rint(np.asarray(products) * 2.0 ** 50).tolist()) * 2.0 ** -50


def lambda_scores_scratch(code: LdpcCode, llr, depth: int, shifts=None) -> np.ndarray:
    """Reference scorer: recompute every prefix shift from scratch, or only
    the given shifts, every other shift scoring -inf."""
    depth = _validate_depth(depth)
    base = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    shifts = np.arange(code.n) if shifts is None else np.asarray(shifts, dtype=np.int64)
    out = np.full(code.n, -np.inf)
    for lo in range(0, shifts.size, _BLOCK):
        js = shifts[lo:lo + _BLOCK]
        words = np.where(np.arange(code.n) < js[:, None], -base, base)
        for j, prods in zip(js.tolist(), check_products(code, words, depth)):
            out[j] = exact_sum(prods)
    return out
