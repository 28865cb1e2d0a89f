"""Regular LDPC codes and balanced-codeword encoding/decoding.

Codes come from the regular (n, a, b) ensemble: the parity-check matrix is a
stack of a submatrices, each a random column permutation of a base matrix
with one 1 per column and b per row.  Encoding balances each codeword by a
minimal prefix inversion whose index i is NOT stored; decoders recover it
from the code's redundancy.

For symmetric channels, candidate inversion indices are ranked by a shift
score: the exact sum over checks of the product of tanh(m/2) over the check's
incoming variable messages, each product rounded to a multiple of 2^-50.  The
messages of a depth-l score at shift j are those bp_decode holds after l - 1
iterations on the j-shifted LLRs, bit for bit, as both run _check_step and
_posterior.  At depth 1 the product is of the LLRs' signs, so the score is
exactly (number of checks) - 2 * (unsatisfied checks).  A message or product
changes with the shift only where it passes a variable in its
depth-neighborhood, so the scorer evaluates each once per segment between
such steps, every level ordered by start shift: a window of shifts is each
node's segment at its first shift plus one contiguous run, and every shift
is one window.  At depth 2 or more the balanced decoder scores only the
merged +-w windows (w = 16) around the K = 16 best depth-1 maxima, on codes
where those can cover at most half of the shifts (2K(2w + 1) <= n, so
n >= 1056); shorter codes score every shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import make_rng
from .words import (BalancedWord, _bit_array, as_bits, as_whole_number, balance,
                    find_balancing_index)

LLR_CLIP = 30.0
_ATANH_LIMIT = 1.0 - 1e-15
_MAX_DRAWS = 32     # Gallager draws tried before giving up on a seed
_BP_BLOCK = 32      # BP rows per kernel call of the exhaustive decoder; bounds its memory
_SCORE_BITS = 50    # check products are summed as exact multiples of 2**-_SCORE_BITS
_WINDOW_PEAKS = 16  # K: depth-1 maxima whose windows the decoder scores at depth >= 2
_WINDOW_HALF = 16   # w: a window spans its maximum +- w shifts
_LISTING_KEYS = ("n", "a", "b", "seed", "seed_used")    # of a code listing's %gallager line
_BYTE_PARITY = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8) % 2     # parity of each byte value

# the benchmark (perfbench/) calls and traces the balancing index by this name
_balancing_index_arr = find_balancing_index


# ---------------------------------------------------------------------------
# GF(2) elimination


def gf2_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    red = (np.asarray(m, dtype=np.uint8) % 2).copy()
    rows, cols = red.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        hits = np.nonzero(red[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + int(hits[0])
        if pivot != row:
            red[[row, pivot]] = red[[pivot, row]]
        others = np.nonzero(red[:, col])[0]
        others = others[others != row]
        red[others] ^= red[row]
        pivots.append(col)
        row += 1
    return red, pivots


def _nullspace_basis(rref: np.ndarray, pivots: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the null space, one column per free column of the rref."""
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((n, free.size), dtype=np.uint8)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = rref[:len(pivots)][:, free]
    return basis, free


# ---------------------------------------------------------------------------
# Code construction


@dataclass(frozen=True, eq=False)
class LdpcCode:
    """Sparse parity-check matrix with its systematic generator and graph maps.

    k is the nominal dimension n - r; the Gallager construction always leaves
    at least a - 1 dependent rows, so the null space has a few more free
    columns than k and the extras are pinned to zero by the generator.
    Codewords stay in the original column order.  Codes compare and hash by
    identity, as their per-code tables do: a copy builds its own.
    """

    n: int
    k: int
    a: int
    b: int
    seed: int
    seed_used: int
    rank: int
    H: np.ndarray                # (r, n) uint8
    G: np.ndarray                # (n, k) uint8, H @ G = 0
    message_positions: np.ndarray  # (k,) columns where message bits sit verbatim
    check_nbrs: np.ndarray       # (r, b) variable indices per check, ascending
    var_edge_ids: np.ndarray     # (n, a) check-major edge ids per variable
    # per-code tables built on first use: ("score", depth) -> _ScorePlan,
    # ("bp", rows) -> _BpPlan, "encode" -> G's columns packed along k,
    # "flip_parity" and "peel_graph" -> the erasure decoder's flip-parity
    # table and its peeling adjacency.  The score and BP plans hold the
    # tables their calls write (a BP plan one check-slot scratch table for
    # its tanh inputs, then its gathered posteriors): one call per code at a
    # time
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def r(self) -> int:
        return self.H.shape[0]


def _assemble(H: np.ndarray, a: int, b: int, seed: int, seed_used: int) -> LdpcCode:
    r, n = H.shape
    if n * a != r * b:
        raise ValueError("shape violates n * a = r * b")
    col_w = H.sum(axis=0)
    row_w = H.sum(axis=1)
    if not (np.all(col_w == a) and np.all(row_w == b)):
        raise ValueError("matrix is not (a, b)-regular")
    k = n - r
    if k <= 0:
        raise ValueError("code has no message bits: need a < b")

    rref, pivots = gf2_rref(H)
    basis, free = _nullspace_basis(rref, pivots, n)
    if len(free) < k:
        raise ValueError("rank too high for nominal dimension")
    G = basis[:, :k].copy()
    message_positions = free[:k]

    # nonzero lists the ones row by row, columns ascending: b per check
    edge_var = np.nonzero(H)[1]
    check_nbrs = edge_var.reshape(r, b)
    var_edge_ids = np.argsort(edge_var, kind="stable").reshape(n, a)

    return LdpcCode(n=n, k=k, a=a, b=b, seed=seed, seed_used=seed_used,
                    rank=len(pivots), H=H, G=G,
                    message_positions=message_positions,
                    check_nbrs=check_nbrs, var_edge_ids=var_edge_ids)


def build_gallager(n: int, a: int, b: int, seed: int) -> LdpcCode:
    """Draw an (n, a, b) code: a stacked random column permutations of the
    base matrix.  The construction forces at least a - 1 dependent rows;
    draws with any further rank deficiency are rejected and redrawn with the
    next seed (bounded retries)."""
    n = as_whole_number(n, "code length n")
    a = as_whole_number(a, "column weight a")
    b = as_whole_number(b, "row weight b")
    seed = as_whole_number(seed, "seed")
    if a < 2:
        raise ValueError("column weight a must be at least 2")
    if b < 2 or n <= 0 or n % b:
        raise ValueError("n must be a positive multiple of the row weight b")
    rows_per = n // b
    base = np.repeat(np.eye(rows_per, dtype=np.uint8), b, axis=1)
    for attempt in range(_MAX_DRAWS):
        seed_used = seed + attempt
        rng = make_rng(seed_used)
        parts = [base] + [base[:, rng.permutation(n)] for _ in range(a - 1)]
        H = np.vstack(parts)
        code = _assemble(H, a, b, seed, seed_used)
        if (a * rows_per) - code.rank == a - 1:
            return code
    raise RuntimeError(
        f"no ({n},{a},{b}) draw with minimal rank deficit in {_MAX_DRAWS} tries from seed {seed}")


def syndrome(code: LdpcCode, bits) -> np.ndarray:
    """Parity of each check, per row for a 2-D array of words; uint8 sums
    wrap mod 256, which keeps parity."""
    word = _bit_array(bits)
    if word.ndim not in (1, 2) or word.shape[-1] != code.n:
        raise ValueError(f"need one word of length {code.n} or a 2-D block of them, "
                         f"got shape {word.shape}")
    return word[..., code.check_nbrs].sum(axis=-1, dtype=np.uint8) % 2


def encode(code: LdpcCode, u) -> np.ndarray:
    """Codeword G @ u mod 2 as a fresh uint8 array, message bits verbatim at
    message_positions.  G's columns are cached bit-packed along k, as a
    (bytes, n) table, so each codeword bit is the parity of its bytes ANDed
    with the packed message: the xor of those bytes, looked up per value."""
    msg = as_bits(u)
    if msg.shape != (code.k,):
        raise ValueError(f"message shape {msg.shape} != ({code.k},)")
    packed = code._plans.get("encode")
    if packed is None:     # C-ordered, so the xor below runs along contiguous rows
        packed = code._plans["encode"] = np.packbits(np.ascontiguousarray(code.G.T), axis=0)
    masked = packed & np.packbits(msg)[:, None]
    return _BYTE_PARITY[np.bitwise_xor.reduce(masked, axis=0)]


def balanced_encode(code: LdpcCode, u) -> tuple[BalancedWord, int]:
    """Encode then invert the minimal prefix that balances the codeword.

    The index i is returned for instrumentation but is not part of the
    stored word.
    """
    x, i = balance(encode(code, u))
    return BalancedWord.from_array(x), i


# ---------------------------------------------------------------------------
# Belief propagation


@dataclass(frozen=True)
class BpResult:
    word: np.ndarray            # uint8 hard decision
    satisfied: bool
    iterations: int


def _clip(x: np.ndarray, limit: float) -> np.ndarray:
    """np.clip(x, -limit, limit, out=x) without np.clip's Python wrapper; NaN
    stays NaN as it does there."""
    np.maximum(x, -limit, out=x)
    return np.minimum(x, limit, out=x)


def _check_views(t: np.ndarray, loo: np.ndarray, suf: np.ndarray) -> tuple:
    """The per-slot views _check_step reads and writes, made once per plan
    table: indexing a table anew in every step costs more than the step's
    arithmetic on short slots."""
    return tuple(t), tuple(loo), tuple(suf), loo[1:-1], suf[1:-1]


def _check_step(loo: np.ndarray, views: tuple) -> np.ndarray:
    """Check-to-variable messages 2 atanh(loo) from the tanh'd incoming
    messages t, slot axis first: the leave-one-out product of a slot is its
    prefix product times its suffix product, each a scan away from the slot,
    so any batch of checks computes exactly what each check computes alone.
    views are _check_views(t, loo, suf) of t and two t-shaped scratch
    tables; the messages are written into loo, which is returned."""
    ts, loos, sufs, loo_mid, suf_mid = views  # loo: prefix products, then the messages
    np.copyto(loos[1], ts[0])
    np.copyto(sufs[-2], ts[-1])                 # suffix products; the last slot unused
    for s in range(2, len(ts)):
        np.multiply(loos[s - 1], ts[s - 1], out=loos[s])
        np.multiply(sufs[-s], ts[-s], out=sufs[-s - 1])
    np.multiply(loo_mid, suf_mid, out=loo_mid)
    np.copyto(loos[0], sufs[0])
    _clip(loo, _ATANH_LIMIT)
    return np.multiply(2.0, np.arctanh(loo, out=loo), out=loo)


def _posterior(incoming, own: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Posterior LLRs, written into out and returned: the incoming rows
    (one per edge, in check order) added left to right, then the own LLRs.
    BP and the scorer form every posterior here, and each variable-to-check
    message as its posterior less the edge's incoming message, clipped."""
    np.copyto(out, incoming[0])
    for row in incoming[1:]:
        np.add(out, row, out=out)
    return np.add(out, own, out=out)


# the crossover a decoder's BSC LLRs assume where none is given
DESIGN_P = 0.02


def bsc_llr(y, p: float) -> np.ndarray:
    """Per-bit LLR log((1-p)/p) with sign set by the observation."""
    if not 0.0 < p < 0.5:
        raise ValueError("crossover probability must be in (0, 0.5)")
    mag = np.log((1.0 - p) / p)
    return np.where(as_bits(y) == 0, mag, -mag)


def _clipped_llr(code: LdpcCode, llr, out: np.ndarray | None = None) -> np.ndarray:
    """The clipped float64 LLRs of one word, copied into out (a fresh array
    by default) and clipped there; any shape but (n,) is rejected, and so is
    a NaN, which no decision can be read from (+-inf clip)."""
    L = np.asarray(llr)
    if L.shape != (code.n,):
        raise ValueError(f"llr shape {L.shape} != ({code.n},)")
    if out is None:
        out = np.empty(code.n)
    out[:] = L
    _clip(out, LLR_CLIP)
    nan = np.flatnonzero(np.isnan(out))
    if nan.size:
        raise ValueError(f"llr holds {nan.size} NaN value(s), the first at index {nan[0]}")
    return out


@dataclass(frozen=True)
class _BpPlan:
    """Gather indices and reused tables of the BP kernel for batches of
    `rows` rows of one code.

    The check-side tables are (b, rows, r): slot s of check c in row q at
    [s, q, c].  The variable-side table is (a, rows, n): the k-th edge (in
    check order) of variable v at [k, q, v].  Slots lead, so every per-slot
    step is one contiguous whole-batch operation.  Every table a call writes
    is held here, so calls on one code must not overlap (one call per code
    runs at a time).  One check-slot scratch table, chk, holds both
    check-side inputs of an iteration, which are never live together:
    tanh(m / 2), read only inside _check_step, then the posteriors gathered
    per check slot, written only after it returns.
    """

    to_var: np.ndarray       # (a, rows, n) into the flat check-side table
    to_check: np.ndarray     # (b, rows, r) into a flat (rows, n) table
    chk: np.ndarray          # (b, rows, r): tanh(m / 2), then the posteriors per check slot
    loo: np.ndarray          # (b, rows, r): check-to-variable messages (_check_step's output)
    suf: np.ndarray          # (b, rows, r): _check_step's suffix products
    views: tuple             # _check_views of chk, loo and suf
    inc: np.ndarray          # (a, rows, n): check-to-variable messages per variable
    incs: tuple              # inc's per-edge views
    post: np.ndarray         # (rows, n): posterior LLRs
    m: np.ndarray            # (b, rows, r): variable-to-check messages
    neg: np.ndarray          # (b, rows, r) bool: the gathered posteriors < 0
    parity: np.ndarray       # (rows, r) bool: each check's parity
    unsat: np.ndarray        # (rows,) bool: any check unsatisfied


def _build_bp_plan(code: LdpcCode, rows: int) -> _BpPlan:
    n, r, a, b = code.n, code.r, code.a, code.b
    # C-ordered maps, so that the gathered tables are C-ordered too and each
    # slot of them is one contiguous block
    check, slot = divmod(np.ascontiguousarray(code.var_edge_ids.T), b)
    q = np.arange(rows)[:, None]
    to_var = (slot * (rows * r) + check)[:, None, :] + q * r
    to_check = np.ascontiguousarray(code.check_nbrs.T)[:, None, :] + q * n
    chk, loo, suf, m = (np.empty((b, rows, r)) for _ in range(4))
    inc = np.empty((a, rows, n))
    return _BpPlan(to_var=to_var, to_check=to_check, chk=chk, loo=loo, suf=suf,
                   views=_check_views(chk, loo, suf), inc=inc, incs=tuple(inc),
                   post=np.empty((rows, n)), m=m, neg=np.empty((b, rows, r), dtype=bool),
                   parity=np.empty((rows, r), dtype=bool), unsat=np.empty(rows, dtype=bool))


def _bp_rows(code: LdpcCode, L: np.ndarray, max_iter: int, first_stop: bool = False):
    """Flooding sum-product on every row of the (rows, n) clipped LLRs L.

    Returns the uint8 hard decisions, `satisfied` and `iterations` per row,
    fresh arrays.  The batch stays whole until every row is recorded; a row
    is recorded once, at the iteration its hard decision clears the
    syndrome (or at max_iter), and iterates on unread after that, so its
    results are those of a one-row decode.  With first_stop, every row is
    recorded at the first iteration that clears any row's syndrome, and the
    rows satisfied then are those a one-row decode clears at that
    iteration.  Each step is elementwise along the rows: the checks run
    _check_step, a variable forms its posterior by _posterior, and an
    outgoing message is the posterior less the edge's own incoming message.
    So every row is bit-equal to decoding it alone.
    Every intermediate table is one of the (code, batch size) plan's,
    written in place; gathers clip their (in-range) indices, as numpy's
    default mode would buffer the output instead of writing it in place.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    plan = code._plans.get(("bp", len(L)))
    if plan is None:
        plan = code._plans["bp", len(L)] = _build_bp_plan(code, len(L))
    words = np.empty(L.shape, dtype=np.uint8)   # every row is written once, when recorded
    satisfied = np.empty(len(L), dtype=bool)
    iterations = np.zeros(len(L), dtype=int)    # 0 until the row is recorded
    inc, post, m = plan.inc, plan.post, plan.m
    flat_loo, flat_post = plan.loo.ravel(), post.ravel()
    L.ravel().take(plan.to_check, out=m, mode="clip")
    for it in range(1, max_iter + 1):
        np.tanh(np.multiply(0.5, m, out=plan.chk), out=plan.chk)
        m_cv = _check_step(plan.loo, plan.views)
        flat_loo.take(plan.to_var, out=inc, mode="clip")
        _posterior(plan.incs, L, post)
        post_chk = flat_post.take(plan.to_check, out=plan.chk, mode="clip")
        # a check is unsatisfied when an odd number of its slots are negative
        parity = np.bitwise_xor.reduce(np.less(post_chk, 0, out=plan.neg), axis=0,
                                       out=plan.parity)
        unsat = np.logical_or.reduce(parity, axis=1, out=plan.unsat)
        if it == max_iter or not unsat.all():
            done = (iterations == 0) & (~unsat | (it == max_iter) | first_stop)
            np.less(post, 0, out=words.view(bool), where=done[:, None])
            np.logical_not(unsat, out=satisfied, where=done)
            iterations[done] = it
            if iterations.all():
                break
        # the next iteration's messages, made only when one follows
        _clip(np.subtract(post_chk, m_cv, out=m), LLR_CLIP)
    return words, satisfied, iterations


def bp_decode(code: LdpcCode, llr, max_iter: int = 50) -> BpResult:
    """Flooding sum-product decoding of one word; positive LLR favors bit 0.

    Stops once the hard decision satisfies every check, else after max_iter
    (at least 1) iterations with satisfied = False.  Messages are clipped to
    +-30 to keep tanh / arctanh stable.  This is the one-row call of the
    batched kernel that balanced_decode runs on all its candidates at once.
    """
    max_iter = as_whole_number(max_iter, "max_iter")
    words, satisfied, iterations = _bp_rows(code, _clipped_llr(code, llr)[None], max_iter)
    return BpResult(word=words[0], satisfied=bool(satisfied[0]),
                    iterations=int(iterations[0]))


# ---------------------------------------------------------------------------
# Shift scores


def _validate_depth(depth) -> int:
    depth = as_whole_number(depth, "score depth")
    if not 1 <= depth <= 3:
        raise ValueError("score depth must be 1, 2, or 3 (cost grows exponentially)")
    return depth


@dataclass(frozen=True)
class _ScoreRound:
    """One message-passing round of the scorer: its levels' seg_ptr and gather
    indices (see _ScorePlan), and the tables an all-shift call writes."""

    check_ptr: np.ndarray    # (n + 1,) the check level's seg_ptr
    var_ptr: np.ndarray      # (n + 1,) the variable level's seg_ptr
    check_idx: np.ndarray    # (b, check segments) into the tanh'd messages of the level below
    var_idx: np.ndarray      # (1 + a, variable segments): the channel table, then loo's
    t: np.ndarray            # (b, check segments): the tanh gathered per check slot
    loo: np.ndarray          # check messages (_check_step's output)
    suf: np.ndarray          # _check_step's suffix products
    views: tuple             # _check_views of t, loo and suf
    own: np.ndarray          # (variable segments,): the own channel LLRs
    post: np.ndarray         # (variable segments,): the posteriors
    m: np.ndarray            # (a, variable segments): incoming, then tanh(m / 2) of outgoing


@dataclass(frozen=True)
class _ScorePlan:
    """Gather indices and reused tables of the scorer; the indices depend
    only on the graph.

    A message of round l depends only on the variables within l hops of it,
    so as a function of the shift j it steps only where j passes one of
    them: a node with k such variables has k + 1 segments, segment s (the s
    lowest flipped) starting at shift 0 or one past its s-th dependency.
    Every level orders its segments shift-major, by start shift, ties by
    node: each node's segment 0 comes first, in node order, and the shifts
    [lo, hi] need each node's segment at lo and the positions
    seg_ptr[lo + 1]:seg_ptr[hi + 1].  Segments starting at shift n cover no
    shift and are cut (K remain).  Tables are slot-major like the BP
    kernel's, (slots, K): a check segment's b edges and a variable
    segment's a edges in check order, and the channel table (2, n) each LLR
    unflipped, then flipped.  Index arrays are (inputs, K), at slot * K_child
    + position of a flattened child table; a node's segment at lo is what its
    reader (row, node) reads at lo.  Every table a call writes is held here
    too, so calls on one code must not overlap.
    """

    rounds: tuple            # a _ScoreRound per round before the last product
    keys: np.ndarray         # last checks: sorted check * n + dependency
    pos: np.ndarray          # last checks: position of check c's s-th segment, at ptr[c] + c + s
    seg_ptr: np.ndarray      # (n + 1,) last checks: first position starting at each shift
    readers: tuple           # a reader (rows, nodes) of each variable, then of each check
    prod_idx: np.ndarray     # (b, K): last messages per check segment
    prev: np.ndarray         # (K,) position of each segment's previous one, read past r
    chan: np.ndarray         # (2, n) channel table: the LLRs unflipped, then flipped
    tanh: np.ndarray         # (2n,) tanh(chan / 2), round 1's input
    prod: np.ndarray         # (K,) check products
    tmp: np.ndarray          # (K,) one slot's gathered messages, then the scaled products
    q: np.ndarray            # (K,) int64: prod in units of 2**-_SCORE_BITS, then the terms
    steps: np.ndarray        # (K - r,) int64: q at each later segment's previous one


def _join(n: int, groups) -> tuple[tuple, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The level (ptr, keys, pos, K) of parent nodes whose input k reads
    slot slots[x, k] of child ids[x, k], per group (child level, ids,
    slots), in shift-major order (see _ScorePlan); its seg_ptr; its
    node-major segment at each position; and per group the (inputs, K)
    indices its segments read."""
    def keys(ptr, deps, child):     # parent * n + dep for every dep of child[parent]
        lens = ptr[child + 1] - ptr[child]
        first = np.cumsum(lens) - lens
        elem = deps[np.repeat(ptr[child] - first, lens) + np.arange(first[-1] + lens[-1])]
        return np.repeat(np.arange(child.size) * n, lens) + elem

    # a sort, not np.unique, whose hashing is many times slower on these keys
    uniq = np.sort(np.concatenate([keys(level[0], level[1] % n, child)
                                   for level, ids, _ in groups for child in ids.T]))
    uniq = uniq[np.insert(uniq[1:] != uniq[:-1], 0, True)]
    ptr = np.searchsorted(uniq, np.arange(len(groups[0][1]) + 1) * n)
    seg_start = ptr[:-1] + np.arange(ptr.size - 1)
    nseg = np.diff(ptr) + 1
    # the start shifts node-major, in the smallest type that holds n: numpy's
    # stable sort is a radix sort on 16 bits or fewer
    start = np.insert(uniq % n + 1, ptr[:-1], 0).astype(np.min_scalar_type(n))
    order = np.argsort(start, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    seg_ptr = np.searchsorted(start[order], np.arange(n + 1))
    order = order[:seg_ptr[n]]
    out = []
    for (cptr, ckeys, cpos, width), ids, slots in groups:
        first_seg = cptr[:-1] + np.arange(cptr.size - 1)
        idx = np.empty((ids.shape[1], order.size), dtype=np.intp)
        for k, (child, slot) in enumerate(zip(ids.T, slots.T)):
            key = keys(cptr, ckeys % n, child)
            # the child's segment advances at the parent segment that flips one
            # more of the child's own dependencies
            steps = np.bincount(np.searchsorted(uniq, key) + key // n + 1, minlength=nseg.sum())
            count = np.cumsum(steps, out=steps)
            seg = count + np.repeat(first_seg[child] - count[seg_start], nseg)
            idx[k] = (cpos[seg] + np.repeat(slot * width, nseg)).take(order)
        out.append(idx)
    return (ptr, uniq, pos, order.size), seg_ptr, order, out


def _build_score_plan(code: LdpcCode, depth: int) -> _ScorePlan:
    n, r, a, b = code.n, code.r, code.a, code.b
    if r << _SCORE_BITS >= 1 << 63:     # shift totals fit int64; steps may wrap (sums mod 2**64)
        raise ValueError(f"exact scores need r < {1 << 63 - _SCORE_BITS} checks, got r = {r}")
    # variable v depends on itself; its segment s sits at s * n + v of the one-slot table
    chan = (np.arange(n + 1), np.arange(n) * (n + 1), np.arange(2 * n).reshape(2, n).T.ravel(), 0)
    # slot of each check-major edge among its variable's edges
    var_slot = np.empty(r * b, dtype=np.intp)
    var_slot[code.var_edge_ids] = np.arange(a)
    check_of_var, slot_in_check = divmod(code.var_edge_ids, b)
    var_level, slots = chan, np.zeros((r, b), dtype=np.intp)
    rounds = []
    for _ in range(1, depth):
        checks, check_ptr, _, (check_idx,) = _join(n, [(var_level, code.check_nbrs, slots)])
        var_level, var_ptr, _, var_idx = _join(n, [
            (chan, np.arange(n)[:, None], np.zeros((n, 1), dtype=np.intp)),
            (checks, check_of_var, slot_in_check)])
        var_idx = np.concatenate(var_idx)
        t, loo, suf = (np.empty(check_idx.shape) for _ in range(3))
        rounds.append(_ScoreRound(
            check_ptr=check_ptr, var_ptr=var_ptr, check_idx=check_idx, var_idx=var_idx, t=t,
            loo=loo, suf=suf, views=_check_views(t, loo, suf), own=np.empty(var_idx.shape[1]),
            post=np.empty(var_idx.shape[1]), m=np.empty(var_idx[1:].shape)))
        slots = var_slot.reshape(r, b)
    (_, keys, pos, K), seg_ptr, order, (prod_idx,) = _join(
        n, [(var_level, code.check_nbrs, slots)])
    return _ScorePlan(rounds=tuple(rounds), keys=keys, pos=pos, seg_ptr=seg_ptr,
                      readers=((slot_in_check[:, 0], check_of_var[:, 0]),
                               (1 + var_slot[::b], code.check_nbrs[:, 0])),
                      prod_idx=prod_idx, prev=pos.take(order - 1), chan=np.empty((2, n)),
                      tanh=np.empty(2 * n), prod=np.empty(K), tmp=np.empty(K),
                      q=np.empty(K, np.int64), steps=np.empty(K - r, np.int64))


def _var_step(rc: np.ndarray, chan: np.ndarray, idx: np.ndarray, own: np.ndarray,
              post: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Outgoing messages of the variable segments idx indexes (row 0 into the
    channel table chan, the rest into the flat check messages rc), written
    into m and returned: BP's, the posterior (_posterior) less each incoming
    message, clipped; own and post are scratch."""
    m = rc.take(idx[1:], out=m, mode="clip")
    post = _posterior(m, chan.take(idx[0], out=own, mode="clip"), post)
    return _clip(np.subtract(post, m, out=m), LLR_CLIP)


def _window_bounds(n: int, windows) -> tuple[np.ndarray, np.ndarray]:
    """The lo and hi shifts of lambda_scores' windows, which are checked."""
    w = np.asarray(windows)
    if (w.ndim != 2 or w.shape[1] != 2 or not len(w) or w.dtype.kind not in "iu"
            or w[0, 0] < 0 or w[-1, 1] >= n or np.any(w[:, 1] < w[:, 0])
            or np.any(w[1:, 0] <= w[:-1, 1])):
        raise ValueError("windows must be a non-empty list of sorted, disjoint [lo, hi] "
                         f"shift ranges within 0..{n - 1}")
    return w[:, 0].astype(np.intp), w[:, 1].astype(np.intp)


def _active(plan: _ScorePlan, lo: np.ndarray, hi: np.ndarray) -> list[list]:
    """Per level, bottom-up, the segments covering the windows [lo, hi] (None
    for all): per window, each node's segment at lo, by one search on the
    last checks and through readers below, and the range [first, end) of
    those starting inside it."""
    n, nodes = plan.chan.shape[1], np.arange(plan.seg_ptr[1])
    if lo.size == 1 and lo[0] == 0 and hi[0] == n - 1:
        return [None] * (2 * len(plan.rounds) + 1)
    at = plan.pos[nodes + np.searchsorted(plan.keys, nodes * n + lo[:, None])]
    (vrows, vars_), (crows, checks) = plan.readers
    levels, idx = [(at, plan.seg_ptr)], plan.prod_idx
    for rd in reversed(plan.rounds):
        var_at = idx[vrows, at[:, vars_]] % rd.m.shape[1]
        at, idx = rd.var_idx[crows, var_at[:, checks]] % rd.loo.shape[1], rd.check_idx
        levels += [(var_at, rd.var_ptr), (at, rd.check_ptr)]
    return [list(zip(at, ptr[lo + 1].tolist(), ptr[hi + 1].tolist())) for at, ptr in levels[::-1]]


def _level(active: list | None, idx: np.ndarray, *tables: np.ndarray) -> tuple:
    """idx's columns at a level's active segments (per window one gather at lo, then a
    slice) and a fresh table that wide per table given; with active None, all as is."""
    if active is None:
        return (idx, *tables)
    cols = np.concatenate([part for at, first, end in active
                           for part in (idx.take(at, axis=-1), idx[..., first:end])], axis=-1)
    return (cols, *(np.empty(table.shape[:-1] + cols.shape[-1:], table.dtype) for table in tables))


def _put(active: list | None, table: np.ndarray, values: np.ndarray) -> None:
    """Write a level's active columns into the plan's table, for the level above."""
    col = 0
    for at, first, end in active or ():
        table[..., at] = values[..., col:col + at.size]
        col += at.size + end - first
        table[..., first:end] = values[..., col - end + first:col]


def lambda_scores(code: LdpcCode, llr, depth: int, windows=None) -> np.ndarray:
    """Scores of the n prefix shifts; shift j negates the first j LLRs.

    Each message is evaluated once per segment of its dependency set (see
    _ScorePlan) with the per-node arithmetic of the per-shift reference: the
    checks run BP's _check_step, a variable BP's _posterior, and a check's
    product scans its inputs in order.  A score is the exact int64 sum of its r
    check products in units of 2**-_SCORE_BITS, rounded to float64 once, so
    shift j's is shift j - 1's plus the steps of the segments starting at
    j: the bits of summing each shift from scratch.

    windows, a list of sorted, disjoint inclusive [lo, hi] shift ranges,
    scores only the shifts inside them, each bit-equal to the all-shift
    call, and every other shift -inf: each level runs only on the segments
    covering a window shift (see _active), in call-sized tables written
    back into the plan's for the level above.  The all-shift call is the
    window [0, n - 1], run on the plan's whole tables in place; only the
    scores are fresh.
    """
    depth, n = _validate_depth(depth), code.n
    lo, hi = (np.array([0]), np.array([n - 1])) if windows is None else _window_bounds(n, windows)
    plan = code._plans.get(("score", depth))
    if plan is None:
        plan = code._plans["score", depth] = _build_score_plan(code, depth)
    active = _active(plan, lo, hi)
    # the LLRs are copied, clipped and checked in the channel table itself
    np.negative(_clipped_llr(code, llr, out=plan.chan[0]), out=plan.chan[1])
    chan = plan.chan.ravel()
    # tanh, like every step here, is elementwise, so it runs once per distinct
    # message, before the gather that fans messages out to segments.  Every
    # gather clips its (in-range) indices: numpy's default mode would
    # buffer the output instead of writing it in place
    t = (np.where(chan >= 0, 1.0, -1.0) if not plan.rounds
         else np.tanh(np.multiply(0.5, chan, out=plan.tanh), out=plan.tanh))
    for rd, at, var_at in zip(plan.rounds, active[::2], active[1::2]):
        idx, tt, loo, suf = _level(at, rd.check_idx, rd.t, rd.loo, rd.suf)
        t.take(idx, out=tt, mode="clip")
        _put(at, rd.loo, _check_step(loo, rd.views if at is None else _check_views(tt, loo, suf)))
        idx, own, post, m = _level(var_at, rd.var_idx, rd.own, rd.post, rd.m)
        m = _var_step(rd.loo.ravel(), chan, idx, own, post, m)
        _put(var_at, rd.m, np.tanh(np.multiply(0.5, m, out=m), out=m))
        t = rd.m.ravel()
    # each check product: its slots multiplied in one at a time, in order, as
    # np.prod multiplies rows over the slot axis
    at = active[-1]
    idx, prod, tmp, q = _level(at, plan.prod_idx, plan.prod, plan.tmp, plan.q)
    t.take(idx[0], out=prod, mode="clip")
    for row in idx[1:]:
        np.multiply(prod, t.take(row, out=tmp, mode="clip"), out=prod)
    np.rint(np.multiply(prod, 2.0 ** _SCORE_BITS, out=tmp), out=q, casting="unsafe")
    _put(at, plan.q, q)
    # per window, the terms are q at lo, then each later segment's step (its q less
    # its previous segment's); a shift's total adds the run starting at it, never
    # empty, as every shift j > 0 starts a segment of each check of variable j - 1
    r, seg_ptr, block, scores = plan.seg_ptr[1], plan.seg_ptr, 0, np.full(n, -np.inf)
    for l, h in zip(lo.tolist(), hi.tolist()):
        first, end = seg_ptr[l + 1], seg_ptr[h + 1]
        terms = q[block:block + r + end - first]
        steps = plan.q.take(plan.prev[first:end], out=plan.steps if at is None else None,
                            mode="clip")
        np.subtract(terms[r:], steps, out=terms[r:])
        starts = seg_ptr[l:h + 1] - (first - r)
        starts[0] = 0
        total = np.add.reduceat(terms, starts)
        np.multiply(np.add.accumulate(total, out=total), 2.0 ** -_SCORE_BITS, out=scores[l:h + 1])
        block += terms.size
    return scores


def candidate_inversions(scores, c: int) -> list[int]:
    """Up to c local maxima of the shift scores, best first.

    j is a local maximum when strictly above its left neighbor and at least
    its right neighbor, a shift beyond either end scoring -inf: so a -inf
    shift (one outside lambda_scores' windows) is never a candidate.  Ties
    rank the smaller shift first.  c is read as a whole number.
    """
    c = as_whole_number(c, "candidate count")
    if c < 1:
        raise ValueError("need at least one candidate")
    lam = np.asarray(scores, dtype=np.float64)
    pad = np.concatenate([[-np.inf], lam, [-np.inf]])
    maxima = np.flatnonzero((lam > pad[:-2]) & (lam >= pad[2:]))
    # a stable sort of the ascending maxima by -score ranks ties by shift
    order = np.argsort(-lam[maxima], kind="stable")
    return maxima[order[:c]].tolist()


# ---------------------------------------------------------------------------
# Balanced decoding for symmetric channels


def _score_windows(code: LdpcCode, clipped: np.ndarray, depth: int) -> np.ndarray | None:
    """The decoder's score windows at depth >= 2: the merged +-_WINDOW_HALF
    ranges around the top _WINDOW_PEAKS depth-1 maxima of the clipped LLRs.
    None, scoring every shift, at depth 1 and wherever the windows could
    cover more than half of the n shifts."""
    if depth < 2 or 2 * _WINDOW_PEAKS * (2 * _WINDOW_HALF + 1) > code.n:
        return None
    peaks = np.sort(candidate_inversions(lambda_scores(code, clipped, 1), _WINDOW_PEAKS))
    lo = np.maximum(peaks - _WINDOW_HALF, 0)
    hi = np.minimum(peaks + _WINDOW_HALF, code.n - 1)     # ascending, as the peaks are
    cut = np.flatnonzero(lo[1:] > hi[:-1] + 1)      # gaps between merged windows
    return np.stack([lo[np.r_[0, cut + 1]], hi[np.r_[cut, -1]]], axis=1)


@dataclass(frozen=True)
class BalancedDecodeResult:
    ok: bool
    u: np.ndarray | None        # uint8 message bits of z
    z: np.ndarray | None        # uint8 decoded codeword
    i: int | None
    candidates: tuple[int, ...]
    score: float | None


def balanced_decode(code: LdpcCode, llr, depth: int = 2, num_candidates: int | None = 4,
                    max_iter: int = 50) -> BalancedDecodeResult:
    """Decode a balanced codeword observation given per-bit LLRs.

    Candidate inversion indices come from the shift scores (or all n shifts
    when num_candidates is None), which on long codes are scored only inside
    _score_windows, every other shift scoring -inf.  Each candidate j flips
    the sign of the first j clipped LLRs, and BP runs on all candidates
    together, one row each.  The top candidates form one batch that stops at
    the first iteration where any row clears its syndrome: the rows satisfied then
    are the ones bp_decode clears at that iteration, and only they compete,
    so wrong shifts, which rarely converge, do not run to max_iter.  The
    exhaustive decoder runs its shifts in blocks of _BP_BLOCK rows with no
    shared stop, every row decoding exactly as bp_decode would decode it
    alone.  A parity-satisfying output z is re-paired with its own minimal
    balancing index fbi(z) rather than the shift that found it: a channel
    error at the prefix boundary makes the adjacent shift the better BP
    input, yet both decode to the same codeword.  All satisfied rows, in
    candidate order, are balanced at once and each (z, fbi(z)) pair is
    scored by the correlation of its balanced form with the clipped LLRs,
    which orders the pairs exactly by observation likelihood on a symmetric
    channel; the first best row wins, so the earlier candidate wins a tie
    (copies of one word score alike).  depth, num_candidates and max_iter
    are checked first on either path, each read as a whole number.
    """
    depth = _validate_depth(depth)
    if num_candidates is not None:
        num_candidates = as_whole_number(num_candidates, "candidate count")
    max_iter = as_whole_number(max_iter, "max_iter")
    clipped = _clipped_llr(code, llr)
    if num_candidates is None:
        cands, block = list(range(code.n)), _BP_BLOCK
    else:
        windows = _score_windows(code, clipped, depth)
        cands = candidate_inversions(lambda_scores(code, clipped, depth, windows),
                                     num_candidates)
        block = len(cands)
    pos = np.arange(code.n)
    found = []
    for start in range(0, len(cands), block):
        shifts = np.array(cands[start:start + block])
        rows = np.where(pos < shifts[:, None], -clipped, clipped)
        words, satisfied, _ = _bp_rows(code, rows, max_iter,
                                       first_stop=num_candidates is not None)
        found.append(words[satisfied])
    z = np.concatenate(found)
    if not len(z):
        return BalancedDecodeResult(ok=False, u=None, z=None, i=None,
                                    candidates=tuple(cands), score=None)
    x_hat, i_min = balance(z)
    # numpy sums each C-ordered row by the pairwise tree of a 1-D sum, so every
    # score equals that of its row scored alone
    scores = ((1.0 - 2.0 * x_hat) * clipped).sum(axis=1)
    best = int(np.argmax(scores))
    return BalancedDecodeResult(ok=True, u=z[best, code.message_positions], z=z[best],
                                i=int(i_min[best]), candidates=tuple(cands),
                                score=float(scores[best]))


def balanced_decode_bsc(code: LdpcCode, y, p: float = DESIGN_P, depth: int = 2,
                        num_candidates: int | None = 4, max_iter: int = 50) -> BalancedDecodeResult:
    """Hard-decision front end: constant-magnitude LLRs from the crossover p
    (DESIGN_P unless given)."""
    return balanced_decode(code, bsc_llr(y, p), depth=depth,
                           num_candidates=num_candidates, max_iter=max_iter)


def balanced_decode_soft(code: LdpcCode, levels, params=None, depth: int = 2,
                         num_candidates: int | None = 4, max_iter: int = 50) -> BalancedDecodeResult:
    """Soft-decision front end: per-cell LLRs from a two-Gaussian mixture.

    Balanced codewords put equal mass on both levels, so the mixture can be
    fitted to the raw cell levels themselves when params is None.
    """
    from . import em
    if params is None:
        params = em.fit(levels).params
    return balanced_decode(code, em.per_cell_llr(levels, params), depth=depth,
                           num_candidates=num_candidates, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Serialization


def save_code(code: LdpcCode, path) -> None:
    """Plain-text sparse listing of H (coordinate format, 1-based) with the
    ensemble parameters in the header so experiments can be replayed."""
    lines = [
        "%%MatrixMarket matrix coordinate pattern general",
        "%gallager " + " ".join(f"{key}={getattr(code, key)}" for key in _LISTING_KEYS),
        f"{code.r} {code.n} {code.r * code.b}",
    ]
    for c in range(code.r):
        for v in code.check_nbrs[c]:
            lines.append(f"{c + 1} {int(v) + 1}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_code(path) -> LdpcCode:
    """Read a save_code listing; malformed input raises ValueError naming
    the offending line."""
    meta = {}
    header = H = None
    entries = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            where = f"{path}:{lineno}: {line!r}"
            if line.startswith("%gallager"):
                gallager = where
                for item in line.split()[1:]:
                    key, _, val = item.partition("=")
                    if key not in _LISTING_KEYS or not val.isdigit():
                        raise ValueError(f"{where}: expected key=value pairs, keys among "
                                         f"{_LISTING_KEYS}, non-negative integer values")
                    meta[key] = int(val)
            if not line or line.startswith("%"):
                continue
            # every token must be a non-negative integer (the file is ASCII)
            fields = line.split()
            nums = [int(f) for f in fields] if all(f.isdigit() for f in fields) else []
            if header is None:
                if len(nums) != 3:
                    raise ValueError(f"{where}: expected header 'rows cols entries'")
                header = (lineno, nums[2])
                H = np.zeros(nums[:2], dtype=np.uint8)
                continue
            if len(nums) != 2 or not (1 <= nums[0] <= H.shape[0] and 1 <= nums[1] <= H.shape[1]):
                raise ValueError(f"{where}: expected an entry 'row col' within "
                                 f"1..{H.shape[0]} x 1..{H.shape[1]} (indices are 1-based)")
            if H[nums[0] - 1, nums[1] - 1]:
                raise ValueError(f"{where}: duplicate entry")
            H[nums[0] - 1, nums[1] - 1] = 1
            entries += 1
    if header is None or meta.keys() != set(_LISTING_KEYS):
        raise ValueError(f"{path} is not a saved code listing")
    if meta["n"] != H.shape[1]:
        raise ValueError(f"{gallager}: n={meta['n']} but the matrix has {H.shape[1]} columns")
    if entries != header[1]:
        raise ValueError(f"{path}:{header[0]}: header declares {header[1]} entries, "
                         f"the body lists {entries}")
    return _assemble(H, meta["a"], meta["b"], meta["seed"], meta["seed_used"])
