"""Reference semantics of erasure decoding, kept as the tests' oracle.

These are loop versions that walk single checks in index order: `genie_peel`
sweeps the checks with one unknown neighbor, and `bec_decode` alternates a
sweep that intersects the inversion set with each fully observed check's
interval class and a sweep that fills lone unknowns, then enumerates the
residual set one index at a time.  Nothing here is fast.  `balmod.bec` must
return equal results, as `same_result` and `same_word` compare them.
"""

import numpy as np

from balmod.bec import (AMBIGUOUS, FAILURE, UNIQUE, BecResult,
                        check_interval_sets)
from balmod.channel import ERASURE
from balmod.intervals import IntervalSet
from balmod.ldpc import LdpcCode, syndrome
from balmod.words import find_balancing_index


def same_word(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Equal words of one dtype, or both None."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def same_result(a: BecResult, b: BecResult) -> bool:
    """Every field of two BecResults equal: the scalars exactly, z and each
    candidate word by same_word (a dataclass == on array fields is ambiguous)."""
    def scalars(r):
        return r.status, r.i, r.residual_set_size, r.erasures_left, r.budget_exceeded
    return (scalars(a) == scalars(b) and same_word(a.z, b.z)
            and len(a.candidates) == len(b.candidates)
            and all(ia == ib and same_word(za, zb)
                    for (za, ia), (zb, ib) in zip(a.candidates, b.candidates)))


def _prefix_flip(y: np.ndarray, i: int) -> np.ndarray:
    out = y.copy()
    head = out[:i]
    known = head != ERASURE
    head[known] ^= 1
    return out


def genie_peel(code: LdpcCode, y: np.ndarray, i: int) -> np.ndarray | None:
    """Standard peeling with the inversion index known; returns the codeword
    bits or None if a stopping set remains."""
    z = _prefix_flip(np.asarray(y, dtype=np.int8), i)
    unknown_per_check = np.array([(z[nbrs] == ERASURE).sum() for nbrs in code.check_nbrs])
    progress = True
    while progress and (z == ERASURE).any():
        progress = False
        for c in np.nonzero(unknown_per_check == 1)[0]:
            if unknown_per_check[c] != 1:
                continue  # an earlier fill in this sweep resolved it
            nbrs = code.check_nbrs[c]
            vals = z[nbrs]
            missing = nbrs[vals == ERASURE][0]
            z[missing] = np.sum(vals[vals != ERASURE]) % 2
            unknown_per_check[code.var_edge_ids[missing] // code.b] -= 1
            progress = True
    if (z == ERASURE).any():
        return None
    return z.astype(np.uint8)


def _feasible_from_word(code: LdpcCode, x: np.ndarray, i: int) -> tuple[np.ndarray, int] | None:
    """Feasibility of index i once every position of x is known."""
    if 2 * int(x.sum()) != x.size:
        return None
    z = x.copy()
    z[:i] ^= 1
    if np.any(syndrome(code, z)):
        return None
    if find_balancing_index(z) != i:
        return None
    return z, i


def _feasible_from_peel(code: LdpcCode, y: np.ndarray, i: int) -> tuple[np.ndarray, int] | None:
    """Feasibility of index i via a fresh known-i peel of the raw word."""
    z = genie_peel(code, y, i)
    if z is None:
        return None
    x = z.copy()
    x[:i] ^= 1
    if 2 * int(x.sum()) != x.size:
        return None
    if np.any(syndrome(code, z)):
        return None
    if find_balancing_index(z) != i:
        return None
    return z, i


def bec_decode(code: LdpcCode, y, budget: int = 64) -> BecResult:
    """Joint peeling / interval narrowing, one check at a time, then one
    feasibility test per residual index."""
    y = np.asarray(y, dtype=np.int8)
    if y.size != code.n:
        raise ValueError(f"received word length {y.size} != n = {code.n}")
    n = code.n
    x = y.copy()
    inv = IntervalSet.full(n)
    active = np.ones(code.r, dtype=bool)
    class_cache: dict[int, tuple[IntervalSet, IntervalSet]] = {}

    def classes(c: int) -> tuple[IntervalSet, IntervalSet]:
        if c not in class_cache:
            nbrs = code.check_nbrs[c]
            s0 = check_interval_sets(nbrs, np.zeros(code.b, dtype=np.int8), n)
            s1 = check_interval_sets(nbrs, np.concatenate(([1], np.zeros(code.b - 1, dtype=np.int8))), n)
            class_cache[c] = (s0, s1)
        return class_cache[c]

    progress = True
    while progress:
        progress = False
        # Fully observed checks pin down the alternation class of i.
        for c in np.nonzero(active)[0]:
            vals = x[code.check_nbrs[c]]
            if np.all(vals != ERASURE):
                inv = inv.intersect(check_interval_sets(code.check_nbrs[c], vals, n))
                active[c] = False
                progress = True
        # Checks missing one neighbor can fill it once the class is certain.
        for c in np.nonzero(active)[0]:
            nbrs = code.check_nbrs[c]
            vals = x[nbrs]
            unknown = nbrs[vals == ERASURE]
            if unknown.size != 1:
                continue
            s0, s1 = classes(int(c))
            known_xor = int(np.sum(vals[vals != ERASURE]) % 2)
            if inv.issubset(s0):
                fill = known_xor
            elif inv.issubset(s1):
                fill = known_xor ^ 1
            else:
                continue
            x[unknown[0]] = fill
            active[c] = False
            progress = True

    residual = inv.size
    erasures_left = int((x == ERASURE).sum())

    if inv.size == 0:
        return BecResult(status=FAILURE, z=None, i=None, candidates=(),
                         residual_set_size=residual, erasures_left=erasures_left,
                         budget_exceeded=False)
    if inv.size > budget:
        return BecResult(status=AMBIGUOUS, z=None, i=None, candidates=(),
                         residual_set_size=residual, erasures_left=erasures_left,
                         budget_exceeded=True)

    feasible: list[tuple[np.ndarray, int]] = []
    for i in inv.values():
        if i > n - 1:
            continue  # encoders only produce i < n
        if erasures_left == 0:
            hit = _feasible_from_word(code, x.astype(np.uint8), i)
        else:
            hit = _feasible_from_peel(code, y, i)
        if hit is not None:
            feasible.append(hit)

    if not feasible:
        return BecResult(status=FAILURE, z=None, i=None, candidates=(),
                         residual_set_size=residual, erasures_left=erasures_left,
                         budget_exceeded=False)
    candidates = tuple(feasible)
    distinct = {cw.tobytes() for cw, _ in candidates}
    if len(distinct) == 1:
        z, i = feasible[0]
        return BecResult(status=UNIQUE, z=z, i=i,
                         candidates=candidates, residual_set_size=residual,
                         erasures_left=erasures_left, budget_exceeded=False)
    return BecResult(status=AMBIGUOUS, z=None, i=None, candidates=candidates,
                     residual_set_size=residual, erasures_left=erasures_left,
                     budget_exceeded=False)
