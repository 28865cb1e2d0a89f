"""Binary words, prefix inversion, and the Knuth balancing codec.

Words are written most-significant-bit first; "the first i bits" always means
the leftmost i as printed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import mlc


@dataclass(frozen=True)
class BitWord:
    """Immutable fixed-length binary word: `bits` holds one byte, 0 or 1, per
    bit, the buffer of the uint8 array that as_bits views and to_array copies.
    A bytes argument is kept as is; anything else goes through
    bytes(tuple(...)), so integer-like entries (bools, NumPy integers) pass
    and a float or any other entry raises ValueError, as does any value but 0
    and 1.  `from_array` reads through as_bits, so float arrays of exact 0s
    and 1s pass too."""

    bits: bytes

    def __post_init__(self):
        # bytes() takes only integer-like entries in 0..255; tuple() first,
        # so that a bare int raises instead of becoming that many zero bytes
        try:
            raw = self.bits if type(self.bits) is bytes else bytes(tuple(self.bits))
        except (TypeError, ValueError):
            raw = None
        if raw is None or raw.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", raw)

    @classmethod
    def from_string(cls, s: str) -> "BitWord":
        return cls(tuple(int(ch) for ch in s))

    @classmethod
    def from_array(cls, arr) -> "BitWord":
        return cls(as_bits(arr).tobytes())

    def to_array(self) -> np.ndarray:
        """A fresh, writable uint8 copy of the bits."""
        return np.frombuffer(self.bits, dtype=np.uint8).copy()

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
        n, ones = len(self.bits), self.bits.count(1)
        if n % 2:
            raise ValueError("balanced words must have even length")
        if 2 * ones != n:
            raise ValueError(f"weight {ones} != {n // 2}: not balanced")


@dataclass(frozen=True)
class KnuthCodeword:
    """Balanced payload plus a balanced prefix encoding the inversion index."""

    payload: BalancedWord
    prefix: BalancedWord


def _bit_array(w) -> np.ndarray:
    """w as a uint8 array of 0s and 1s, of any shape: the one rule of what a
    bit is.  A BitWord's bytes are viewed read-only, its type guaranteeing
    them; other input goes through np.asarray, its first entry other than 0
    and 1 named by value and index.  A uint8 array of bits is not copied."""
    if isinstance(w, BitWord):
        return np.frombuffer(w.bits, dtype=np.uint8)
    a = np.asarray(w)
    if a.dtype == np.uint8 and a.max(initial=0) <= 1:
        return a
    bad = np.flatnonzero((a != 0) & (a != 1))
    if bad.size:
        k = int(bad[0])
        at = k if a.ndim == 1 else tuple(int(j) for j in np.unravel_index(k, a.shape))
        raise ValueError(f"bits must be 0 or 1, got {a.ravel().tolist()[k]!r} at index {at}")
    return a.astype(np.uint8)


def as_whole_number(value, what: str, index: int | None = None) -> int:
    """value as a Python int: the one rule of what a whole number is.
    Integer-like values and floats such as 2.0 are read as ints; any other
    value is named as `what` by value, and by index when given one."""
    if type(value) is int:
        return value
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        at = "" if index is None else f" at index {index}"
        raise ValueError(f"{what} {value!r}{at} is not an integer")
    return int(value)


def as_whole_numbers(values, what: str) -> list[int]:
    """values as a list of Python ints by the rule of as_whole_number; the
    first other entry is named by value and index."""
    out = values.tolist() if isinstance(values, np.ndarray) else list(values)
    for i, v in enumerate(out):
        if type(v) is not int:
            out[i] = as_whole_number(v, what, i)
    return out


def as_bits(w) -> np.ndarray:
    """A word as a 1-D uint8 array of 0s and 1s, by the rule of _bit_array;
    every function that takes one word reads it through here."""
    a = _bit_array(w)
    if a.ndim != 1:
        raise ValueError(f"a word must be one-dimensional, got shape {a.shape}")
    return a


def weight(w) -> int:
    """Number of 1 bits."""
    return int(np.count_nonzero(as_bits(w)))


def invert_prefix(w: BitWord, i: int) -> BitWord:
    """Complement the first i bits; involution in i."""
    i, n = as_whole_number(i, "prefix length"), len(w)
    if not 0 <= i <= n:
        raise ValueError(f"prefix length {i} outside [0, {n}]")
    return BitWord(bytes(1 - b for b in w.bits[:i]) + w.bits[i:])


def find_balancing_index(w: BitWord | np.ndarray) -> int | np.ndarray:
    """Minimal i in [0, n) such that inverting the first i bits of the word
    (a BitWord or a 0/1 array) yields weight n/2; for a 2-D array of words,
    an index array with one entry per row.

    Exists for every even, nonempty length n: the running weight moves by
    exactly one per step from weight(w) to n - weight(w), so it meets n/2
    strictly before i = n.
    """
    bits = _bit_array(w)
    if bits.ndim not in (1, 2) or bits.shape[-1] == 0 or bits.shape[-1] % 2:
        raise ValueError(f"balancing requires one or more words of even, nonempty "
                         f"length, got shape {bits.shape}")
    bits = bits.astype(np.int64)
    n = bits.shape[-1]
    steps = np.empty_like(bits)
    steps[..., 0] = bits.sum(axis=-1)
    steps[..., 1:] = 1 - 2 * bits[..., :-1]
    # column i: the weight once the first i bits are inverted
    first = (np.cumsum(steps, axis=-1) == n // 2).argmax(axis=-1)
    return int(first) if bits.ndim == 1 else first


def balance(w: BitWord | np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """The word with its minimal balancing prefix inverted, as a fresh uint8
    array, and that index (find_balancing_index); a 2-D array has each row
    balanced by its own index."""
    x = _bit_array(w).copy()
    i = find_balancing_index(x)
    x ^= np.arange(x.shape[-1]) < np.asarray(i)[..., None]
    return x, i


def prefix_length(k: int) -> int:
    """Smallest even p whose balanced words can index all i in [0, k)."""
    if k < 2 or k % 2:
        raise ValueError("message length must be even and at least 2")
    p = 2
    while math.comb(p, p // 2) < k:
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
    payload, i = balance(as_bits(u))
    p = prefix_length(len(u))
    return KnuthCodeword(payload=BalancedWord.from_array(payload), prefix=encode_prefix(i, p))


def knuth_decode(cw: KnuthCodeword) -> BitWord:
    """Recover the message by undoing the recorded prefix inversion."""
    i = decode_prefix(cw.prefix)
    k = len(cw.payload)
    if i >= k:
        raise ValueError(f"prefix decodes to {i}, outside [0, {k})")
    return invert_prefix(cw.payload, i)
