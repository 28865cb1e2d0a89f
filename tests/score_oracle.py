"""Reference semantics of the shift score, kept as the tests' oracle.

For shift j the clipped channel LLRs of variables 0..j-1 are negated, then
`depth` rounds of flooding message passing run over the whole graph, and the
score is the sum over checks of the product entering each check.  That sum
is exact: each product is rounded to a multiple of 2^-50, the rounded
products are added as Python ints, and the total is rounded to a float once
(`exact_sum`), so it does not depend on the order of the checks.

The shifts are batched, a block of them at a time: each round is one
whole-array step over a (shift, edge) block, in the arithmetic order of one
node at a time (a check's leave-one-out product along its b slots, a
variable's cumulative sum along its a edges).  Each shift is still computed
from scratch, from its own sign-flipped LLRs: nothing is shared between
shifts, and there is no score plan, no segment reuse and no int64 sum.
`ldpc.lambda_scores` must equal `lambda_scores_scratch` bit for bit.
"""

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


def check_products(code: LdpcCode, words: np.ndarray, depth: int) -> np.ndarray:
    """The (rows, r) products entering each check after `depth` rounds, for
    a (rows, n) block of clipped LLR words: signs at depth 1, tanh(m/2) of
    the messages of round `depth` otherwise."""
    r, b = code.r, code.b
    vei = code.var_edge_ids
    m = words[:, code.check_nbrs.ravel()]         # round 1: each variable's own LLR
    for _ in range(1, depth):
        t = np.tanh(0.5 * m.reshape(-1, r, b))
        rc = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))
        csum = np.cumsum(rc.reshape(len(words), -1)[:, vei], axis=-1)
        pre = np.concatenate((np.zeros_like(csum[..., :1]), csum[..., :-1]), axis=-1)
        suf = csum[..., -1:] - csum
        m[:, vei] = np.clip(words[:, :, None] + pre + suf, -LLR_CLIP, LLR_CLIP)
    m = m.reshape(-1, r, b)
    if depth == 1:
        return np.prod(np.where(m >= 0, 1.0, -1.0), axis=-1)
    return np.prod(np.tanh(0.5 * m), axis=-1)


def exact_sum(products) -> float:
    """The score's sum of check products: each rounded to the nearest
    multiple of 2^-50 (ties to even), added exactly, rounded once."""
    return sum(int(v) for v in np.rint(np.asarray(products) * 2.0 ** 50).tolist()) * 2.0 ** -50


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
