"""Reference semantics of the shift score, kept as the tests' oracle.

For shift j the clipped channel LLRs of variables 0..j-1 are negated, then
`depth` rounds of message passing run over the whole graph, one node at a
time, and the score is the sum over checks of the product entering each
check.  That sum is exact: each product is rounded to a multiple of 2^-50,
the rounded products are added as Python ints, and the total is rounded to
a float once (`exact_sum`), so it does not depend on the order of the
checks.  Nothing here is fast: every shift is recomputed from scratch.
`ldpc.lambda_scores` must equal `lambda_scores_scratch` bit for bit.
"""

import numpy as np

from balmod.ldpc import LLR_CLIP, _ATANH_LIMIT, LdpcCode, _validate_depth


def _loo_prod(t: np.ndarray) -> np.ndarray:
    """Leave-one-out products along the last axis via prefix/suffix scans."""
    pre = np.empty_like(t)
    pre[..., 0] = 1.0
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.empty_like(t)
    suf[..., -1] = 1.0
    suf[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    return pre * suf


class _ScoreState:
    """Message arrays for the shift score: m[l] are variable-to-check messages
    of round l, rc[l] the check replies computed from them, prod the per-check
    products entering the score."""

    __slots__ = ("mv", "m", "rc", "prod")

    def __init__(self, code: LdpcCode, mv: np.ndarray, depth: int):
        edges = code.r * code.b
        self.mv = mv
        self.m = {l: np.empty(edges) for l in range(1, depth + 1)}
        self.rc = {l: np.empty(edges) for l in range(1, depth)}
        self.prod = np.empty(code.r)


def _var_kernel(code: LdpcCode, st: _ScoreState, l: int, v: int) -> None:
    ids = code.var_edge_ids[v]
    if l == 1:
        st.m[1][ids] = st.mv[v]
        return
    inc = st.rc[l - 1][ids]
    csum = np.cumsum(inc)
    pre = np.concatenate(([0.0], csum[:-1]))
    suf = csum[-1] - csum
    st.m[l][ids] = np.clip(st.mv[v] + pre + suf, -LLR_CLIP, LLR_CLIP)


def _check_kernel(code: LdpcCode, st: _ScoreState, l: int, c: int) -> None:
    sl = slice(c * code.b, (c + 1) * code.b)
    t = np.tanh(0.5 * st.m[l][sl])
    st.rc[l][sl] = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))


def _prod_kernel(code: LdpcCode, st: _ScoreState, depth: int, c: int) -> None:
    sl = slice(c * code.b, (c + 1) * code.b)
    m = st.m[depth][sl]
    if depth == 1:
        st.prod[c] = np.prod(np.where(m >= 0, 1.0, -1.0))
    else:
        st.prod[c] = np.prod(np.tanh(0.5 * m))


def _score_full(code: LdpcCode, mv: np.ndarray, depth: int) -> _ScoreState:
    st = _ScoreState(code, mv, depth)
    for v in range(code.n):
        _var_kernel(code, st, 1, v)
    for l in range(1, depth):
        for c in range(code.r):
            _check_kernel(code, st, l, c)
        for v in range(code.n):
            _var_kernel(code, st, l + 1, v)
    for c in range(code.r):
        _prod_kernel(code, st, depth, c)
    return st


def exact_sum(products) -> float:
    """The score's sum of check products: each rounded to the nearest
    multiple of 2^-50 (ties to even), added exactly, rounded once."""
    return sum(int(v) for v in np.rint(np.asarray(products) * 2.0 ** 50).tolist()) * 2.0 ** -50


def lambda_scores_scratch(code: LdpcCode, llr, depth: int, shifts=None) -> np.ndarray:
    """Reference scorer: recompute every prefix shift from scratch, or only
    the given shifts, every other shift scoring -inf."""
    _validate_depth(depth)
    base = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    out = np.full(code.n, -np.inf)
    for j in range(code.n) if shifts is None else shifts:
        mv = base.copy()
        mv[:j] = -mv[:j]
        out[j] = exact_sum(_score_full(code, mv, depth).prod)
    return out
