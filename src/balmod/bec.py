"""Erasure decoding of balanced LDPC codewords.

The received word is a prefix-inverted codeword with erasures, and the
inversion index i is unknown.  Inverting the first i bits flips the
neighbors p < i of a check, so the check's flip parity F[c, i] (the parity of
#{p in nbrs(c) : p < i}) splits {0..n} into the two alternation classes of
check_interval_sets, and a fully observed check's parity says which class i
lies in.  F is an r x (n + 1) bool table built once per code.

Peeling runs on running per-check state, as in the linear-time peeling
decoder (_Erasures): for each check the count of its erased neighbors and
the XOR of their indices, which is the lone unknown itself when the count is
1, and, while i is unknown, the parity of its known bits.  Filling a
variable changes only its own a checks: each count drops by one, the index
leaves each XOR and the value joins each parity.  So a wave updates just the
filled variables' checks (ufunc.at, a check losing two erasures at once
taking both), and every wave starts with each check's state equal to what
gathering its neighbors from the current word would give: the full and lone
checks, the unknowns and the fill values are the ones such a gather finds,
wave for wave.  No wave gathers every check's neighbors.

The decoder keeps the inversion set I of indices consistent with every fully
observed check as a mask over {0..n} and works in waves.  In each wave every
newly fully observed check narrows I at once, then every check with one
unknown neighbor fills it if F is constant on I (of checks sharing that
unknown, the lowest fills it).  I only shrinks and known bits only grow, so
every fill is forced and the order of the fills does not change the result.
Whether F is constant on I changes only with I, so it is kept per check and
recomputed on the waves that narrow.  On I = {0..n} it holds for no check,
as F[c, 0] is 0 and F[c, p + 1] is 1 at the check's first neighbor p, so no
fill precedes the first narrowing.  A check that has narrowed I or made a
fill takes no further part: its count is set to _USED, which reads neither
as full nor as lone.  A wave with no newly full check leaves I as it was and
skips the narrowing; one with no certain fill skips the fill step, and a
wave with neither ends the loop.

If peeling stalls, all residual indices i < n are enumerated together, each
by a known-i peel of the propagated word x rather than of the raw word.  A
fill is made only with I inside one class of its check, and I only shrinks,
so for every i left in I the fill is the value that check gives in the
known-i peel: each fill is forced.  The peels of x and of the raw word then
fill the same positions, and where either completes to a codeword every fill
of both agrees with it, so they yield the same feasible (z, i) pairs; x just
leaves fewer waves to run.  The residual indices share x's erasure pattern,
so a copy of the propagation's counts and XORs drives one wave schedule for
a block of prefix-flipped words (a _USED check has no unknown left, so it
would never fill there either), and parity, balance and index minimality are
tested on all rows at once.
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
_USED = -1          # erasure count of a check that has narrowed I or filled

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


def _peel_graph(code: LdpcCode) -> tuple[np.ndarray, np.ndarray]:
    """The (b, r) neighbors of each check, slot-major so that per-check
    reductions run along axis 0, and the (n, a) checks of each variable."""
    graph = code._plans.get("peel_graph")
    if graph is None:
        graph = code._plans["peel_graph"] = (np.ascontiguousarray(code.check_nbrs.T),
                                             code.var_edge_ids // code.b)
    return graph


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


@dataclass
class _Erasures:
    """Running per-check view of one erasure pattern."""
    count: np.ndarray   # (r,) erased neighbors of each check, or _USED
    xor: np.ndarray     # (r,) XOR of their indices: the lone unknown at count 1
    left: int           # erased positions

    @classmethod
    def of(cls, code: LdpcCode, vals: np.ndarray) -> _Erasures:
        """The view of vals, a word gathered at _peel_graph's (b, r)
        neighbors; each erased position counts at its a checks."""
        unknown = vals == ERASURE
        count = unknown.sum(axis=0)
        return cls(count, np.bitwise_xor.reduce(_peel_graph(code)[0] * unknown, axis=0),
                   int(count.sum()) // code.a)

    def copy(self) -> _Erasures:
        return _Erasures(self.count.copy(), self.xor.copy(), self.left)

    def fill(self, code: LdpcCode, lone: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fill from the ascending lone checks, the lowest per unknown: the
        state moves past those fills, and the filling checks, their unknowns
        and the (unknowns, a) checks of the unknowns are returned."""
        missing, first = np.unique(self.xor[lone], return_index=True)
        checks = _peel_graph(code)[1][missing]
        np.subtract.at(self.count, checks, 1)
        np.bitwise_xor.at(self.xor, checks, missing[:, None])
        self.left -= missing.size
        return lone[first], missing, checks


def _peel(code: LdpcCode, z: np.ndarray, state: _Erasures) -> bool:
    """Known-index peeling of a (rows, n) block in place, every row erased
    as state says; advances state, and is False if a stopping set remains.

    One wave per sweep of the check-order loop: the checks with one unknown
    neighbor at the start of the sweep fill it with the parity of their known
    bits, gathered for the filling checks alone, and of checks sharing an
    unknown the lowest fills it.
    """
    nbrs = _peel_graph(code)[0]
    while state.left:
        lone = np.flatnonzero(state.count == 1)
        if lone.size == 0:
            return False
        lone, missing, _ = state.fill(code, lone)
        # the one erased neighbor adds ERASURE to the sum
        z[:, missing] = (z[:, nbrs[:, lone]].sum(axis=1) - ERASURE) % 2
    return True


def genie_peel(code: LdpcCode, y: np.ndarray, i: int) -> np.ndarray | None:
    """Standard peeling with the inversion index known; returns the codeword
    bits or None if a stopping set remains."""
    y = _received(code, y)
    i = as_whole_number(i, "inversion index")
    if not 0 <= i <= code.n:
        raise ValueError(f"inversion index {i} outside [0, {code.n}]")
    z = _prefix_flipped(y, np.array([i]))
    state = _Erasures.of(code, y[_peel_graph(code)[0]])
    return z[0].astype(np.uint8) if _peel(code, z, state) else None


@dataclass(frozen=True)
class BecResult:
    status: str
    z: np.ndarray | None        # uint8 codeword, like genie_peel's
    i: int | None
    candidates: tuple[tuple[np.ndarray, int], ...]
    residual_set_size: int      # |I| when propagation stopped
    erasures_left: int          # unfilled positions when propagation stopped
    budget_exceeded: bool


def _feasible(code: LdpcCode, src: np.ndarray, state: _Erasures,
              idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (z, i), i in idx, whose known-i peel of src (erased as state
    says) completes to a codeword z that inverting its first i bits
    balances, i being the minimal such index of z; the z rows are uint8."""
    z = _prefix_flipped(src, idx)
    if not _peel(code, z, state.copy()):
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
    vals = x[_peel_graph(code)[0]]
    state = _Erasures.of(code, vals)
    count = state.count
    # the parity of each check's known bits: with the class of i its fill
    # value at count 1, its narrowing parity at count 0
    parity = (vals.sum(axis=0) - ERASURE * count) % 2 == 1
    inv = np.ones(n + 1, dtype=bool)
    certain = odd = np.zeros(code.r, dtype=bool)     # F constant on I, and its value
    while True:
        # Fully observed checks pin down the alternation class of i.
        full = np.flatnonzero(count == 0)
        if full.size:
            inv &= (flip[full] == parity[full, None]).all(axis=0)
            count[full] = _USED
            # with I empty both classes hold and the even one is taken
            on_inv = flip[:, inv]
            odd = on_inv.any(axis=1)
            certain = ~odd | on_inv.all(axis=1)
        # Checks missing one neighbor can fill it once the class is certain.
        lone = np.flatnonzero(certain & (count == 1))
        if lone.size:
            lone, missing, checks = state.fill(code, lone)
            fill = parity[lone] ^ odd[lone]
            x[missing] = fill
            count[lone] = _USED
            np.bitwise_xor.at(parity, checks, fill[:, None])
        elif full.size == 0:
            break

    residual = int(inv.sum())
    erasures_left = state.left
    candidates = ()
    if 0 < residual <= budget:
        # encoders only produce i < n; every fill in x is forced for each
        # i in I, so the known-i peel starts from x
        idx = np.nonzero(inv[:n])[0]
        candidates = tuple(
            (z, int(i))
            for start in range(0, idx.size, _ENUM_ROWS)
            for z, i in zip(*_feasible(code, x, state, idx[start:start + _ENUM_ROWS])))
    distinct = len({cw.tobytes() for cw, _ in candidates})
    status = (AMBIGUOUS if residual > budget or distinct > 1
              else UNIQUE if distinct else FAILURE)
    z, i = candidates[0] if status == UNIQUE else (None, None)
    return BecResult(status=status, z=z, i=i, candidates=candidates,
                     residual_set_size=residual, erasures_left=erasures_left,
                     budget_exceeded=residual > budget)
