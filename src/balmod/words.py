"""Binary words, prefix inversion, and the Knuth balancing codec.

Words are written most-significant-bit first; "the first i bits" always means
the leftmost i as printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import mlc


@dataclass(frozen=True)
class BitWord:
    """Immutable fixed-length binary word.

    `bits` always holds the Python ints 0 and 1.  Integer-like entries (bools,
    NumPy integers) are normalised to them; any other entry, a float included,
    raises ValueError.  `from_array` also takes float arrays whose entries are
    exactly 0 or 1.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        # bytes() takes only integer-like entries in 0..255, and tuple(bytes)
        # gives Python ints; tuple() first, so that a bare int raises instead
        # of becoming that many zero bytes
        try:
            raw = bytes(tuple(self.bits))
        except (TypeError, ValueError):
            raise ValueError("bits must be 0 or 1") from None
        if raw.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(raw))

    @classmethod
    def from_string(cls, s: str) -> "BitWord":
        return cls(tuple(int(ch) for ch in s))

    @classmethod
    def from_array(cls, arr) -> "BitWord":
        a = np.asarray(arr)
        if a.ndim != 1:
            raise ValueError("a word must be one-dimensional")
        if a.dtype.kind == "f":
            # checked before the cast, which would truncate 0.5 to 0
            if not np.all((a == 0) | (a == 1)):
                raise ValueError("bits must be 0 or 1")
            a = a.astype(np.uint8)
        return cls(tuple(a.tolist()))

    def to_array(self) -> np.ndarray:
        """A fresh, writable uint8 copy of the bits."""
        return np.frombuffer(bytearray(self.bits), dtype=np.uint8)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, idx):
        return self.bits[idx]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class BalancedWord(BitWord):
    """BitWord whose weight is exactly half its (even) length."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.bits) % 2:
            raise ValueError("balanced words must have even length")
        if 2 * sum(self.bits) != len(self.bits):
            raise ValueError(
                f"weight {sum(self.bits)} != {len(self.bits) // 2}: not balanced")


@dataclass(frozen=True)
class KnuthCodeword:
    """Balanced payload plus a balanced prefix encoding the inversion index."""

    payload: BalancedWord
    prefix: BalancedWord


def weight(w: BitWord | Sequence[int]) -> int:
    """Number of 1 bits."""
    return int(sum(int(b) for b in w))


def invert_prefix(w: BitWord, i: int) -> BitWord:
    """Complement the first i bits; involution in i."""
    n = len(w)
    if not 0 <= i <= n:
        raise ValueError(f"prefix length {i} outside [0, {n}]")
    return BitWord(tuple(1 - b for b in w[:i]) + tuple(w[i:]))


def find_balancing_index(w: BitWord) -> int:
    """Minimal i in [0, n) such that inverting the first i bits yields weight
    n/2.  Exists for every even-length word: the running weight moves by
    exactly one per step and spans both endpoints."""
    n = len(w)
    if n % 2:
        raise ValueError("balancing requires even length")
    target = n // 2
    wt = weight(w)
    for i in range(n):
        if wt == target:
            return i
        wt += 1 if w[i] == 0 else -1
    if wt == target:
        # Reachable only at i = n, which the minimal-index contract excludes;
        # cannot happen because the walk from weight(w) to n - weight(w)
        # crosses n/2 strictly before inverting everything.
        raise AssertionError("balancing index walk ended at n")
    raise AssertionError("no balancing index; weight walk violated")


def prefix_length(k: int) -> int:
    """Smallest even p whose balanced words can index all i in [0, k)."""
    if k < 2 or k % 2:
        raise ValueError("message length must be even and at least 2")
    p = 2
    while mlc.multinomial(p, (p // 2, p // 2)) < k:
        p += 2
    return p


def encode_prefix(i: int, p: int) -> BalancedWord:
    """Lexicographically i-th balanced word of length p."""
    word = mlc.unrank_multiset(i, (p // 2, p // 2))
    return BalancedWord(tuple(int(b) for b in word))


def decode_prefix(prefix: BitWord) -> int:
    return mlc.rank_multiset(tuple(prefix), (len(prefix) // 2, len(prefix) // 2))


def knuth_encode(u: BitWord) -> KnuthCodeword:
    """Balance u by minimal prefix inversion; the inversion index is carried
    in a balanced prefix, so the whole codeword is balanced."""
    i = find_balancing_index(u)
    payload = BalancedWord(invert_prefix(u, i).bits)
    p = prefix_length(len(u))
    return KnuthCodeword(payload=payload, prefix=encode_prefix(i, p))


def knuth_decode(cw: KnuthCodeword) -> BitWord:
    """Recover the message by undoing the recorded prefix inversion."""
    i = decode_prefix(cw.prefix)
    k = len(cw.payload)
    if i >= k:
        raise ValueError(f"prefix decodes to {i}, outside [0, {k})")
    return invert_prefix(cw.payload, i)
