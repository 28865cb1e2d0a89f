"""Balanced codes over q-ary alphabets.

Two codecs for words in which every symbol of {0, .., q-1} appears equally
often: an enumerative codec that maps integers to balanced words by
lexicographic rank, and a recursive prefix-operation balancer that converts an
arbitrary q-ary word into a balanced one while recording the operation
locations needed to invert it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import words

QaryWord = np.ndarray


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / (parts[0]! * parts[1]! * ...)."""
    parts = words.as_whole_numbers(parts, "part")
    if any(p < 0 for p in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts must sum to n={n}, got {sum(parts)}")
    out = 1
    rem = n
    for p in parts:
        out *= math.comb(rem, p)
        rem -= p
    return out


def _as_symbols(word, q: int | None = None) -> list[int]:
    """The one check of a q-ary word: its entries as Python ints by
    words.as_whole_numbers; given q, the first outside {0, .., q-1} is named."""
    syms = words.as_whole_numbers(word, "symbol")
    if q is not None:
        for s in syms:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} outside alphabet of size {q}")
    return syms


def unrank_multiset(r: int, counts: Sequence[int]) -> QaryWord:
    """Return the r-th word (lexicographic) among all arrangements of a
    multiset with counts[s] copies of symbol s."""
    counts = words.as_whole_numbers(counts, "count")
    r = words.as_whole_number(r, "rank")
    n = sum(counts)
    total = multinomial(n, counts)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} outside [0, {total})")
    out = np.empty(n, dtype=np.int64)
    for pos in range(n):
        rem = n - pos
        for s, c in enumerate(counts):
            if c == 0:
                continue
            # words continuing with symbol s: total * c / rem, exact division
            cnt = total * c // rem
            if r < cnt:
                out[pos] = s
                counts[s] -= 1
                total = cnt
                break
            r -= cnt
    return out


def rank_multiset(word, counts: Sequence[int]) -> int:
    """Lexicographic rank of a multiset arrangement; inverse of unrank_multiset."""
    counts = words.as_whole_numbers(counts, "count")
    syms = _as_symbols(word, len(counts))
    n = sum(counts)
    if n != len(syms):
        raise ValueError("counts do not match word length")
    total = multinomial(n, counts)
    r = 0
    for pos, s in enumerate(syms):
        rem = n - pos
        if counts[s] == 0:
            raise ValueError(f"symbol {s} at position {pos} exceeds its count")
        for t in range(s):
            if counts[t]:
                r += total * counts[t] // rem
        total = total * counts[s] // rem
        counts[s] -= 1
    return r


def symbol_counts(word, q: int) -> list[int]:
    counts = [0] * words.as_whole_number(q, "alphabet size")
    for s in _as_symbols(word, q):
        counts[s] += 1
    return counts


def is_balanced(word, q: int) -> bool:
    counts = symbol_counts(word, q)
    return len(set(counts)) == 1


def _check_alphabet(q) -> int:
    """The alphabet size q, read as a whole number and at least 2."""
    q = words.as_whole_number(q, "alphabet size")
    if q < 2:
        raise ValueError("alphabet size must be at least 2")
    return q


def unrank_balanced(r: int, q: int, m: int) -> QaryWord:
    """r-th balanced word of length q*m over {0,..,q-1}, lexicographic order."""
    q = _check_alphabet(q)
    return unrank_multiset(r, [m] * q)


def rank_balanced(word, q: int | None = None) -> int:
    """Lexicographic rank of a balanced word; raises on unbalanced input."""
    syms = _as_symbols(word)
    if q is None:
        q = max(syms) + 1 if syms else 1
    else:
        q = _check_alphabet(q)
    counts = symbol_counts(syms, q)
    if len(set(counts)) != 1:
        raise ValueError(f"word is not balanced: counts {counts}")
    return rank_multiset(syms, counts)


def min_balanced_length(k: int, q: int) -> tuple[int, int]:
    """Smallest (n, m) with n = q*m such that the number of balanced words
    covers all 2**k messages."""
    k, q = words.as_whole_number(k, "message length k"), words.as_whole_number(q, "alphabet size")
    if k < 1 or q < 2:
        raise ValueError("need k >= 1 and q >= 2")
    m = 1
    while multinomial(q * m, [m] * q) < 2 ** k:
        m += 1
    return q * m, m


def bits_to_balanced(bits, q: int) -> QaryWord:
    """Encode a binary message as a balanced q-ary word via its integer rank."""
    bits = words.as_bits(bits)
    _, m = min_balanced_length(bits.size, q)
    return unrank_balanced(words.bits_to_int(bits), q, m)


def balanced_to_bits(word, q: int, k: int) -> np.ndarray:
    """Recover the k-bit message from a balanced q-ary word."""
    k, r = words.as_whole_number(k, "message length k"), rank_balanced(word, q)
    if r >= 2 ** k:
        raise ValueError(f"rank {r} does not fit in {k} bits")
    return words.int_to_bits(r, k)


# ---------------------------------------------------------------------------
# Generalized prefix-operation balancing


@dataclass(frozen=True)
class BalancingTrace:
    """Operation locations recorded while balancing, one per recursive split.

    ``groups[t]`` identifies which of the first beta-1 level groups reached its
    exact share at split t.  It is always 0 when the split is binary (any
    q = 2**a), and is needed to invert the construction when a split has more
    than two groups (odd prime factors).
    """

    locations: tuple[int, ...]
    groups: tuple[int, ...]

    def __post_init__(self):
        if len(self.locations) != len(self.groups):
            raise ValueError("locations and groups must have equal length")

    def __len__(self) -> int:
        return len(self.locations)


def _smallest_prime_factor(x: int) -> int:
    return next((d for d in range(2, math.isqrt(x) + 1) if x % d == 0), x)


def _on_groups(values: list[int], alphabet: list[int], j_star: int, alpha: int,
               recurse) -> list:
    """Split values by level group: group j_star (alpha symbols) and the rest.
    Runs recurse(subsequence, its alphabet) on each, that group first, writes
    each subsequence back in place, and returns the two results."""
    fixed_syms = alphabet[j_star * alpha:(j_star + 1) * alpha]
    rest_syms = alphabet[:j_star * alpha] + alphabet[(j_star + 1) * alpha:]
    fixed_set = set(fixed_syms)
    groups = [(fixed_syms, [p for p, v in enumerate(values) if v in fixed_set]),
              (rest_syms, [p for p, v in enumerate(values) if v not in fixed_set])]
    out = []
    for syms, pos in groups:
        sub = [values[p] for p in pos]
        out.append(recurse(sub, syms))
        for p, v in zip(pos, sub):
            values[p] = v
    return out


def _balance_rec(values: list[int], alphabet: list[int]) -> list[tuple[int, int]]:
    """Balance ``values`` (in place) over ``alphabet``; return (location, group)
    records in pre-order: this split, then the fixed group's subtree, then the
    rest."""
    qq = len(alphabet)
    if qq == 1:
        return []
    beta = _smallest_prime_factor(qq)
    alpha = qq // beta
    index_of = {sym: idx for idx, sym in enumerate(alphabet)}
    length = len(values)
    if length % qq:
        raise ValueError("subsequence length must divide the alphabet size")
    target = length // beta

    counts = [0] * beta
    for v in values:
        counts[index_of[v] // alpha] += 1

    # Walk: applying the group-shift to one more element moves exactly one
    # symbol to the next group, so each group's count changes by at most 1.
    i_star = j_star = -1
    for i in range(length + 1):
        hit = [j for j in range(beta - 1) if counts[j] == target]
        if hit:
            i_star, j_star = i, hit[0]
            break
        if i == length:
            raise AssertionError("no balancing index found; walk argument violated")
        g = index_of[values[i]] // alpha
        counts[g] -= 1
        counts[(g + 1) % beta] += 1

    for pos in range(i_star):
        values[pos] = alphabet[(index_of[values[pos]] + alpha) % qq]

    rec_fixed, rec_rest = _on_groups(values, alphabet, j_star, alpha, _balance_rec)
    return [(i_star, j_star)] + rec_fixed + rec_rest


def knuth_q_balance(word, q: int) -> tuple[QaryWord, BalancingTrace]:
    """Convert a q-ary word into a balanced one by recursive prefix operations.

    Levels are split into beta contiguous groups of size alpha (beta the
    smallest prime factor); a prefix of the sequence is shifted one group up
    (symbol s -> s + alpha mod q) until one group holds exactly its share,
    then each side is balanced recursively.  For q = 4 the shift is the map
    0->2, 1->3, 2->0, 3->1 applied to the word prefix.
    """
    q = _check_alphabet(q)
    values = _as_symbols(word, q)
    if len(values) % q:
        raise ValueError(f"length {len(values)} not divisible by q={q}")
    records = _balance_rec(values, list(range(q)))
    locs = tuple(r[0] for r in records)
    grps = tuple(r[1] for r in records)
    return np.array(values, dtype=np.int64), BalancingTrace(locs, grps)


class MalformedTrace(ValueError):
    pass


def _unbalance_rec(values: list[int], alphabet: list[int],
                   records: Iterator[tuple[int, int]]) -> None:
    qq = len(alphabet)
    if qq == 1:
        return
    try:
        i_op, j_star = next(records)
    except StopIteration:
        raise MalformedTrace("trace has too few entries") from None
    beta = _smallest_prime_factor(qq)
    alpha = qq // beta
    if not 0 <= j_star < beta - 1:
        raise MalformedTrace(f"group index {j_star} outside [0, {beta - 1})")
    if not 0 <= i_op <= len(values):
        raise MalformedTrace(f"location {i_op} outside [0, {len(values)}]")
    index_of = {sym: idx for idx, sym in enumerate(alphabet)}

    # Children operated after the top-level shift, so undo them first.
    _on_groups(values, alphabet, j_star, alpha,
               lambda sub, syms: _unbalance_rec(sub, syms, records))
    for pos in range(i_op):
        values[pos] = alphabet[(index_of[values[pos]] - alpha) % qq]


def knuth_q_unbalance(word, trace: BalancingTrace, q: int) -> QaryWord:
    """Invert knuth_q_balance using the recorded trace."""
    q = _check_alphabet(q)
    values = _as_symbols(word, q)
    if len(values) % q:
        raise ValueError(f"length {len(values)} not divisible by q={q}")
    records = iter(zip(trace.locations, trace.groups))
    _unbalance_rec(values, list(range(q)), records)
    leftover = sum(1 for _ in records)
    if leftover:
        raise MalformedTrace(f"trace has {leftover} unused entries")
    return np.array(values, dtype=np.int64)


def trace_bit_cost(q: int, m: int) -> int:
    """Published bit budget (q-1)ab - q(a-2) - 2 for storing the operation
    locations when q = 2**a and m = 2**b."""
    q, m = _check_alphabet(q), words.as_whole_number(m, "symbol count m")
    a = q.bit_length() - 1
    b = m.bit_length() - 1
    if 2 ** a != q or 2 ** b != m:
        raise ValueError("cost formula applies to q = 2**a, m = 2**b only")
    return (q - 1) * a * b - q * (a - 2) - 2


def redundancy_factor(q: int) -> float:
    """Redundancy of the prefix-operation construction relative to codes using
    full sets of balanced words: 2(q-1)log2(q) / (q - log2(q))."""
    q = _check_alphabet(q)
    lq = math.log2(q)
    return 2.0 * (q - 1) * lq / (q - lq)
