"""Regular LDPC codes and balanced-codeword encoding/decoding.

Codes come from the regular (n, a, b) ensemble: the parity-check matrix is a
stack of a submatrices, each a random column permutation of a base matrix
with one 1 per column and b per row.  Encoding balances each codeword by a
minimal prefix inversion whose index i is NOT stored; decoders recover it
from the code's redundancy.

For symmetric channels, candidate inversion indices are ranked by a
shift score: the sum over checks of the product of tanh(m/2) over the
check's incoming variable messages after a fixed small number of
message-passing rounds.  At depth 1 the messages are the channel LLRs and
the score reduces exactly to (number of checks) - 2 * (unsatisfied checks).
All n prefix shifts are scored at once: a message changes with the shift
only where the shift passes a variable in its depth-neighborhood, so each
message is evaluated once per such step rather than once per shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import make_rng
from .words import BalancedWord, BitWord, find_balancing_index

LLR_CLIP = 30.0
_ATANH_LIMIT = 1.0 - 1e-15
_MAX_DRAWS = 32     # Gallager draws tried before giving up on a seed

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


def _nullspace_basis(rref: np.ndarray, pivots: list[int], n: int) -> tuple[np.ndarray, list[int]]:
    """Basis of the null space, one column per free column of the rref."""
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((n, len(free)), dtype=np.uint8)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
        for t, pc in enumerate(pivots):
            basis[pc, idx] = rref[t, f]
    return basis, free


# ---------------------------------------------------------------------------
# Code construction


@dataclass(frozen=True)
class LdpcCode:
    """Sparse parity-check matrix with its systematic generator and graph maps.

    k is the nominal dimension n - r; the Gallager construction always leaves
    at least a - 1 dependent rows, so the null space has a few more free
    columns than k and the extras are pinned to zero by the generator.
    Codewords stay in the original column order.
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
    var_nbrs: np.ndarray         # (n, a) check indices per variable, ascending
    edge_var: np.ndarray         # (r*b,) variable of each check-major edge
    var_edge_ids: np.ndarray     # (n, a) check-major edge ids per variable
    # per-code tables built on first use: ("score", depth) -> _ScorePlan,
    # "flip_parity" -> the erasure decoder's flip-parity table
    _plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    message_positions = np.array(free[:k], dtype=np.int64)

    # nonzero lists the ones row by row, columns ascending: b per check
    edge_var = np.nonzero(H)[1]
    check_nbrs = edge_var.reshape(r, b)
    var_edge_ids = np.argsort(edge_var, kind="stable").reshape(n, a)
    var_nbrs = var_edge_ids // b

    return LdpcCode(n=n, k=k, a=a, b=b, seed=seed, seed_used=seed_used,
                    rank=len(pivots), H=H, G=G,
                    message_positions=message_positions,
                    check_nbrs=check_nbrs, var_nbrs=var_nbrs,
                    edge_var=edge_var, var_edge_ids=var_edge_ids)


def build_gallager(n: int, a: int, b: int, seed: int) -> LdpcCode:
    """Draw an (n, a, b) code: a stacked random column permutations of the
    base matrix.  The construction forces at least a - 1 dependent rows;
    draws with any further rank deficiency are rejected and redrawn with the
    next seed (bounded retries)."""
    if a < 2:
        raise ValueError("column weight a must be at least 2")
    if b < 2 or n % b:
        raise ValueError("n must be a positive multiple of the row weight b")
    rows_per = n // b
    base = np.zeros((rows_per, n), dtype=np.uint8)
    for i in range(rows_per):
        base[i, i * b:(i + 1) * b] = 1
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
    word = np.asarray(bits, dtype=np.uint8)
    if word.ndim not in (1, 2) or word.shape[-1] != code.n:
        raise ValueError(f"word shape {word.shape} != ({code.n},)")
    # a plain gather for one word: `...` indexing costs ~2 us per BP iteration
    nbr_bits = word[code.check_nbrs] if word.ndim == 1 else word[:, code.check_nbrs]
    return nbr_bits.sum(axis=-1, dtype=np.uint8) % 2


def encode(code: LdpcCode, u) -> BitWord:
    """Codeword G @ u with message bits verbatim at message_positions."""
    msg = np.asarray(u, dtype=np.uint8)
    if msg.shape != (code.k,):
        raise ValueError(f"message shape {msg.shape} != ({code.k},)")
    z = code.G @ msg % 2
    return BitWord.from_array(z)


def balanced_encode(code: LdpcCode, u) -> tuple[BalancedWord, int]:
    """Encode then invert the minimal prefix that balances the codeword.

    The index i is returned for instrumentation but is not part of the
    stored word.
    """
    if code.n % 2:
        raise ValueError("balancing needs even block length")
    z = encode(code, u).to_array()
    i = find_balancing_index(z)
    x = z.copy()
    x[:i] ^= 1
    return BalancedWord.from_array(x), i


# ---------------------------------------------------------------------------
# Belief propagation


@dataclass(frozen=True)
class BpResult:
    word: BitWord
    satisfied: bool
    iterations: int


def _loo_prod(t: np.ndarray) -> np.ndarray:
    """Leave-one-out products along the last axis via prefix/suffix scans."""
    pre = np.empty_like(t)
    pre[..., 0] = 1.0
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.empty_like(t)
    suf[..., -1] = 1.0
    suf[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    return pre * suf


def bsc_llr(y, p: float) -> np.ndarray:
    """Per-bit LLR log((1-p)/p) with sign set by the observation."""
    if not 0.0 < p < 0.5:
        raise ValueError("crossover probability must be in (0, 0.5)")
    mag = np.log((1.0 - p) / p)
    return np.where(np.asarray(y, dtype=np.uint8) == 0, mag, -mag)


def bp_decode(code: LdpcCode, llr, max_iter: int = 50) -> BpResult:
    """Flooding sum-product decoding; positive LLR favors bit 0.

    Stops once the hard decision satisfies every check, else after max_iter
    iterations with satisfied = False.  Messages are clipped to +-30 to keep
    tanh / arctanh stable.
    """
    L = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    if L.size != code.n:
        raise ValueError(f"llr length {L.size} != n = {code.n}")
    r, b = code.r, code.b
    vei = code.var_edge_ids
    m_vc = L[code.edge_var].copy()          # flat check-major edges
    hard = (L < 0).astype(np.uint8)
    for it in range(1, max_iter + 1):
        t = np.tanh(0.5 * m_vc.reshape(r, b))
        m_cv = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))
        inc = m_cv.reshape(-1)[vei]          # (n, a) check messages per variable
        post = L + inc.sum(axis=1)
        m_vc[vei] = np.clip(post[:, None] - inc, -LLR_CLIP, LLR_CLIP)
        hard = (post < 0).astype(np.uint8)
        if not np.any(syndrome(code, hard)):
            return BpResult(word=BitWord.from_array(hard), satisfied=True, iterations=it)
    return BpResult(word=BitWord.from_array(hard), satisfied=False, iterations=max_iter)


# ---------------------------------------------------------------------------
# Shift scores


def _validate_depth(depth: int) -> None:
    if not 1 <= depth <= 3:
        raise ValueError("score depth must be 1, 2, or 3 (cost grows exponentially)")


@dataclass(frozen=True)
class _ScorePlan:
    """Gather indices of the all-shift scorer; they depend only on the graph.

    A message of round l depends only on the variables within l hops of it,
    so as a function of the shift j it steps only where j passes one of them.
    A node with k such variables has k + 1 segments (segment s: the s lowest
    flipped), and each level's table has one row per (node, segment): rows
    2v / 2v + 1 hold the unflipped / flipped channel LLR of v, a check row its
    b edges in check order, a variable row its a edges in check order.  Each
    index array is (parent segments, inputs) into a flattened child table.
    """

    rounds: tuple            # per round: (check_idx, own_idx, inc_idx)
    prod_idx: np.ndarray     # last round's variable messages per check segment
    runs: np.ndarray         # shifts covered by each check segment, check-major


def _join(n: int, groups) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Sorted dependency sets (CSR ptr, deps) of parent nodes, and per group
    ((ptr, deps), ids, width, cols) of child levels the flat child-table index
    that parent x's segments read for input k: column cols[x, k] of child
    ids[x, k], in a table `width` columns wide."""
    keys, cols = [], []
    for (ptr, deps), ids, _, _ in groups:
        flat = ids.ravel()
        lens = ptr[flat + 1] - ptr[flat]
        first = np.cumsum(lens) - lens
        slot = np.repeat(np.arange(flat.size), lens)
        elem = deps[np.repeat(ptr[flat] - first, lens) + np.arange(first[-1] + lens[-1])]
        keys.append(slot // ids.shape[1] * n + elem)
        cols.append(slot % ids.shape[1])
    uniq, inv = np.unique(np.concatenate(keys), return_inverse=True)
    num = groups[0][1].shape[0]
    ptr = np.searchsorted(uniq, np.arange(num + 1) * n)
    seg_start = ptr[:-1] + np.arange(num)
    nseg = np.diff(ptr) + 1
    out = []
    done = 0
    for ((cptr, _), ids, width, col), key, k in zip(groups, keys, cols):
        pos = inv[done:done + key.size]
        done += key.size
        # the child's segment advances at the parent segment that flips one
        # more of the child's own dependencies
        marks = np.zeros((ptr[-1] + num, ids.shape[1]), dtype=np.intp)
        marks[pos + key // n + 1, k] = 1
        count = np.cumsum(marks, axis=0)
        child_row = (cptr[:-1] + np.arange(cptr.size - 1))[ids]
        out.append(width * count + np.repeat(
            width * (child_row - count[seg_start]) + col, nseg, axis=0))
    return ptr, uniq % n, out


def _build_score_plan(code: LdpcCode, depth: int) -> _ScorePlan:
    n, r, a, b = code.n, code.r, code.a, code.b
    chan = (np.arange(n + 1), np.arange(n))     # variable v depends on itself
    # column of each check-major edge among its variable's edges
    var_slot = np.empty(r * b, dtype=np.intp)
    var_slot[code.var_edge_ids] = np.arange(a)
    check_of_var, slot_in_check = divmod(code.var_edge_ids, b)
    var_level, width, cols = chan, 1, np.zeros((r, b), dtype=np.intp)
    rounds = []
    for _ in range(1, depth):
        *check_level, (check_idx,) = _join(n, [(var_level, code.check_nbrs, width, cols)])
        *var_level, (own_idx, inc_idx) = _join(n, [
            (chan, np.arange(n)[:, None], 1, np.zeros((n, 1), dtype=np.intp)),
            (check_level, check_of_var, b, slot_in_check)])
        rounds.append((check_idx, own_idx, inc_idx))
        width, cols = a, var_slot.reshape(r, b)
    ptr, deps, (prod_idx,) = _join(n, [(var_level, code.check_nbrs, width, cols)])
    # segment s of a check covers the shifts j with exactly s dependencies < j
    runs = np.insert(deps, ptr[1:], n - 1) - np.insert(deps, ptr[:-1], -1)
    return _ScorePlan(rounds=tuple(rounds), prod_idx=prod_idx, runs=runs)


def lambda_scores(code: LdpcCode, llr, depth: int) -> np.ndarray:
    """Scores of all n prefix shifts; shift j negates the first j LLRs.

    Each message is evaluated once per segment of its dependency set (see
    _ScorePlan) with the per-node arithmetic of the per-shift reference, and
    each shift's score sums one contiguous row of check products in check
    order, so the result is bit-equal to recomputing every shift from scratch.
    """
    _validate_depth(depth)
    base = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLIP, LLR_CLIP)
    if base.size != code.n:
        raise ValueError(f"llr length {base.size} != n = {code.n}")
    plan = code._plans.get(("score", depth))
    if plan is None:
        plan = code._plans["score", depth] = _build_score_plan(code, depth)
    m = chan = np.stack((base, -base), axis=1).ravel()
    # tanh, like every step here, is elementwise, so it runs once per distinct
    # message, before the gather that fans messages out to segments
    for check_idx, own_idx, inc_idx in plan.rounds:
        t = np.tanh(0.5 * m)[check_idx]
        rc = 2.0 * np.arctanh(np.clip(_loo_prod(t), -_ATANH_LIMIT, _ATANH_LIMIT))
        csum = np.cumsum(rc.ravel()[inc_idx], axis=1)
        pre = np.zeros_like(csum)
        pre[:, 1:] = csum[:, :-1]
        suf = csum[:, -1:] - csum
        m = np.clip(chan[own_idx] + pre + suf, -LLR_CLIP, LLR_CLIP).ravel()
    if depth == 1:
        prod = np.prod(np.where(m >= 0, 1.0, -1.0)[plan.prod_idx], axis=1)
    else:
        prod = np.prod(np.tanh(0.5 * m)[plan.prod_idx], axis=1)
    per_check = np.repeat(prod, plan.runs).reshape(code.r, code.n)
    return np.ascontiguousarray(per_check.T).sum(axis=1)


def candidate_inversions(scores, c: int) -> list[int]:
    """Up to c local maxima of the shift scores, best first.

    j is a local maximum when strictly above its left neighbor and at least
    its right neighbor; boundary shifts use only their existing neighbor.
    Ties rank the smaller shift first.
    """
    if c < 1:
        raise ValueError("need at least one candidate")
    lam = np.asarray(scores, dtype=np.float64)
    n = lam.size
    maxima = [j for j in range(n)
              if (j == 0 or lam[j] > lam[j - 1])
              and (j == n - 1 or lam[j] >= lam[j + 1])]
    maxima.sort(key=lambda j: (-lam[j], j))
    return maxima[:c]


# ---------------------------------------------------------------------------
# Balanced decoding for symmetric channels


@dataclass(frozen=True)
class BalancedDecodeResult:
    ok: bool
    u: BitWord | None
    z: BitWord | None
    i: int | None
    candidates: tuple[int, ...]
    score: float | None


def balanced_decode(code: LdpcCode, llr, depth: int = 2, num_candidates: int | None = 4,
                    max_iter: int = 50) -> BalancedDecodeResult:
    """Decode a balanced codeword observation given per-bit LLRs.

    Candidate inversion indices come from the shift scores (or all n shifts
    when num_candidates is None).  Each candidate j flips the sign of the
    first j LLRs and runs BP.  A parity-satisfying output z is re-paired with
    its own minimal balancing index fbi(z) rather than the shift that found
    it: a channel error at the prefix boundary makes the adjacent shift the
    better BP input, yet both decode to the same codeword.  Each surviving
    (z, fbi(z)) pair is scored by the correlation of its balanced form with
    the raw LLRs, which orders the pairs exactly by observation likelihood on
    a symmetric channel; the best pair wins.
    """
    base = np.asarray(llr, dtype=np.float64)
    if num_candidates is None:
        cands = list(range(code.n))
    else:
        cands = candidate_inversions(lambda_scores(code, base, depth), num_candidates)
    clipped = np.clip(base, -LLR_CLIP, LLR_CLIP)
    best_score = None
    best = None
    seen: set[bytes] = set()
    for j in cands:
        lj = base.copy()
        lj[:j] = -lj[:j]
        res = bp_decode(code, lj, max_iter=max_iter)
        if not res.satisfied:
            continue
        z = res.word.to_array()
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
    return BalancedDecodeResult(
        ok=True,
        u=BitWord.from_array(z[code.message_positions]),
        z=BitWord.from_array(z),
        i=i_min,
        candidates=tuple(cands),
        score=best_score,
    )


def balanced_decode_bsc(code: LdpcCode, y: BitWord, p: float, depth: int = 2,
                        num_candidates: int | None = 4, max_iter: int = 50) -> BalancedDecodeResult:
    """Hard-decision front end: constant-magnitude LLRs from the crossover p."""
    return balanced_decode(code, bsc_llr(y.to_array(), p), depth=depth,
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
        f"%gallager n={code.n} a={code.a} b={code.b} seed={code.seed} seed_used={code.seed_used}",
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
            if line.startswith("%gallager"):
                for item in line.split()[1:]:
                    key, val = item.split("=")
                    meta[key] = int(val)
            if not line or line.startswith("%"):
                continue
            where = f"{path}:{lineno}: {line!r}"
            nums = [int(f) for f in line.split() if f.isdigit()]
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
    if header is None or not {"a", "b", "seed", "seed_used"} <= meta.keys():
        raise ValueError(f"{path} is not a saved code listing")
    if entries != header[1]:
        raise ValueError(f"{path}:{header[0]}: header declares {header[1]} entries, "
                         f"the body lists {entries}")
    return _assemble(H, meta["a"], meta["b"], meta["seed"], meta["seed_used"])
