"""Erasure decoding of balanced LDPC codewords.

The received word is a prefix-inverted codeword with erasures, and the
inversion index i is unknown.  Inverting the first i bits flips the
neighbors p < i of a check, so the check's flip parity F[c, i] (the parity of
#{p in nbrs(c) : p < i}) splits {0..n} into the two alternation classes of
check_interval_sets, and a fully observed check's parity says which class i
lies in.  F is an r x (n + 1) bool table built once per code.

The decoder keeps the inversion set I of indices consistent with every fully
observed check as a mask over {0..n} and works in waves.  In each wave every
newly fully observed check narrows I at once, then every check with one
unknown neighbor fills it if F is constant on I (of checks sharing that
unknown, the lowest fills it).  I only shrinks and known bits only grow, so
every fill is forced and the order of the fills does not change the result.
A wave with no newly full check leaves I as it was and skips the narrowing;
one with no certain fill skips the fill step, and a wave with neither ends
the loop.

If peeling stalls, all residual indices i < n are enumerated together, each
by a known-i peel of the propagated word x rather than of the raw word.  A
fill is made only with I inside one class of its check, and I only shrinks,
so for every i left in I the fill is the value that check gives in the
known-i peel: each fill is forced.  The peels of x and of the raw word then
fill the same positions, and where either completes to a codeword every fill
of both agrees with it, so they yield the same feasible (z, i) pairs; x just
leaves fewer waves to run.  The residual indices share one erasure pattern,
so one wave schedule peels a block of prefix-flipped words, and parity,
balance and index minimality are tested on all rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ERASURE
from .intervals import IntervalSet
from .ldpc import LdpcCode, syndrome
from .words import as_whole_number, as_whole_numbers, find_balancing_index, weight

UNIQUE = "unique"
AMBIGUOUS = "ambiguous"
FAILURE = "failure"

_ENUM_ROWS = 256    # candidate words peeled and tested together

# the benchmark (perfbench/) traces the balancing index under this name too
_balancing_index_arr = find_balancing_index


def check_interval_sets(positions, values, n: int) -> IntervalSet:
    """Inversion indices consistent with one fully observed check.

    positions are the check's variable indices (0-based, ascending); the
    boundary between "flipped" and "not flipped" for position p is at index
    p + 1.  Returns the alternation class matching the observed parity, a
    subset of {0, .., n}.
    """
    positions = as_whole_numbers(positions, "position")
    n = as_whole_number(n, "block length")
    if sorted(positions) != positions:
        raise ValueError("positions must be ascending")
    parity = weight(values) % 2
    bounds = [0] + [p + 1 for p in positions] + [n + 1]
    pairs = [(bounds[t], bounds[t + 1])
             for t in range(len(bounds) - 1) if t % 2 == parity]
    return IntervalSet.from_pairs(pairs)


def _flip_parity(code: LdpcCode) -> np.ndarray:
    """F[c, i]: parity of the neighbors of check c below i; row c is False on
    check_interval_sets' even-parity class and True on its odd one."""
    table = code._plans.get("flip_parity")
    if table is None:
        marks = np.zeros((code.r, code.n + 1), dtype=np.uint8)
        marks[np.arange(code.r)[:, None], code.check_nbrs + 1] = 1
        table = np.cumsum(marks, axis=1, dtype=np.uint8) % 2 == 1
        code._plans["flip_parity"] = table
    return table


def _received(code: LdpcCode, y) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.size != code.n:
        raise ValueError(f"received word shape {y.shape} != ({code.n},)")
    if not ((y == 0) | (y == 1) | (y == ERASURE)).all():
        raise ValueError(f"received entries must be 0, 1 or ERASURE ({ERASURE})")
    return y.astype(np.int8)


def _prefix_flipped(y: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row k: y with its known bits before idx[k] inverted."""
    return y ^ ((np.arange(y.shape[-1]) < idx[:, None]) & (y != ERASURE))


def _peel(code: LdpcCode, z: np.ndarray) -> bool:
    """Known-index peeling of a (rows, n) block in place, all rows erased at
    the same positions; False if a stopping set remains.

    One wave per sweep of the check-order loop: the checks with one unknown
    neighbor at the start of the sweep fill it with the parity of their known
    bits, and of checks sharing an unknown the lowest fills it.
    """
    erased = z[0] == ERASURE
    while erased.any():
        unknown = erased[code.check_nbrs]
        one = np.nonzero(unknown.sum(axis=1) == 1)[0]
        if one.size == 0:
            return False
        missing, first = np.unique(code.check_nbrs[one, unknown[one].argmax(axis=1)],
                                   return_index=True)
        # the one erased neighbor adds ERASURE to the sum
        z[:, missing] = (z[:, code.check_nbrs[one[first]]].sum(axis=2) - ERASURE) % 2
        erased[missing] = False
    return True


def genie_peel(code: LdpcCode, y: np.ndarray, i: int) -> np.ndarray | None:
    """Standard peeling with the inversion index known; returns the codeword
    bits or None if a stopping set remains."""
    y = _received(code, y)
    i = as_whole_number(i, "inversion index")
    if not 0 <= i <= code.n:
        raise ValueError(f"inversion index {i} outside [0, {code.n}]")
    z = _prefix_flipped(y, np.array([i]))
    return z[0].astype(np.uint8) if _peel(code, z) else None


@dataclass(frozen=True)
class BecResult:
    status: str
    z: np.ndarray | None        # uint8 codeword, like genie_peel's
    i: int | None
    candidates: tuple[tuple[np.ndarray, int], ...]
    residual_set_size: int      # |I| when propagation stopped
    erasures_left: int          # unfilled positions when propagation stopped
    budget_exceeded: bool


def _feasible(code: LdpcCode, src: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (z, i), i in idx, whose known-i peel of src completes to a
    codeword z that inverting its first i bits balances, i being the minimal
    such index of z; the z rows are uint8."""
    z = _prefix_flipped(src, idx)
    if not _peel(code, z):
        return z[:0], idx[:0]
    stored = _prefix_flipped(z, idx)
    z = z.view(np.uint8)    # peeled: every entry is a bit
    ok = 2 * stored.sum(axis=1) == code.n
    ok[ok] = ~syndrome(code, z[ok]).any(axis=1)
    ok[ok] = find_balancing_index(z[ok]) == idx[ok]
    return z[ok], idx[ok]


def bec_decode(code: LdpcCode, y, budget: int = 64) -> BecResult:
    """Decode an erased prefix-inverted codeword without knowing the index.

    Alternates peeling with narrowing of the inversion set I, a mask over
    {0..n} that each fully observed check cuts to one flip-parity class; when
    neither makes progress, the indices left in I are tested for feasibility
    (peel completion, balance, and index minimality).  Returns UNIQUE only
    when enumeration was complete and exactly one codeword survives.
    """
    y = _received(code, y)
    budget = as_whole_number(budget, "enumeration budget")
    if budget < 0:
        raise ValueError(f"enumeration budget {budget} is negative")
    n = code.n
    flip = _flip_parity(code)
    x = y.copy()
    inv = np.ones(n + 1, dtype=bool)
    active = np.ones(code.r, dtype=bool)
    while True:
        vals = x[code.check_nbrs]
        unknown = vals == ERASURE
        count = unknown.sum(axis=1)
        # Fully observed checks pin down the alternation class of i.
        full = np.nonzero(active & (count == 0))[0]
        if full.size:
            parity = vals[full].sum(axis=1) % 2 == 1
            inv &= ~(flip[full] != parity[:, None]).any(axis=0)
            active[full] = False
        # Checks missing one neighbor can fill it once the class is certain;
        # with I empty both classes hold and the even one is taken.
        one = np.nonzero(active & (count == 1))[0]
        if one.size:
            on_inv = flip[one][:, inv]
            even = ~on_inv.any(axis=1)
            certain = even | on_inv.all(axis=1)
            one, odd = one[certain], ~even[certain]
        if one.size:
            missing, first = np.unique(code.check_nbrs[one, unknown[one].argmax(axis=1)],
                                       return_index=True)
            one = one[first]
            x[missing] = (vals[one].sum(axis=1) - ERASURE) % 2 ^ odd[first]
            active[one] = False
        elif full.size == 0:
            break

    residual = int(inv.sum())
    erasures_left = int((x == ERASURE).sum())
    candidates = ()
    if 0 < residual <= budget:
        # encoders only produce i < n; every fill in x is forced for each
        # i in I, so the known-i peel starts from x
        idx = np.nonzero(inv[:n])[0]
        candidates = tuple(
            (z, int(i))
            for start in range(0, idx.size, _ENUM_ROWS)
            for z, i in zip(*_feasible(code, x, idx[start:start + _ENUM_ROWS])))
    distinct = len({cw.tobytes() for cw, _ in candidates})
    status = (AMBIGUOUS if residual > budget or distinct > 1
              else UNIQUE if distinct else FAILURE)
    z, i = candidates[0] if status == UNIQUE else (None, None)
    return BecResult(status=status, z=z, i=i, candidates=candidates,
                     residual_set_size=residual, erasures_left=erasures_left,
                     budget_exceeded=residual > budget)
