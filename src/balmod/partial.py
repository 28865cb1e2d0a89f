"""Partial-balanced modulation.

Only the information segment of each codeword is balanced: the message u is
prefix-inverted to a balanced u~, the inversion index goes in as plain binary
(no balanced prefix), and an LDPC code, systematic at its message_positions,
adds parity over [u~, i].  The physical cell order is scrambled by a seeded
permutation so the segment's cells are spread across the block; reads pick
the threshold that balances the u~ cells only and then apply it to the whole
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import as_levels, make_rng
from .ldpc import LdpcCode, bp_decode, bsc_llr, encode
from .thresholds import balancing_threshold_exact, read_with_threshold
from .words import BalancedWord, as_bits, as_whole_number, balance


# crossover probability the inner decoder's constant-magnitude LLRs assume
DESIGN_P = 0.02


@dataclass(frozen=True)
class PartialScheme:
    """Fixed wiring of one partial-balanced code instance.

    layout[j] is the physical cell holding logical codeword bit j; the info
    segment u~ occupies the first k_info systematic positions.
    """

    code: LdpcCode
    k_info: int
    i_bits: int
    layout: np.ndarray

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def info_cells(self) -> np.ndarray:
        """Physical cells of the balanced segment, used for thresholding."""
        return self.layout[self.code.message_positions[:self.k_info]]


def make_partial_scheme(code: LdpcCode, k_info: int, layout_seed: int) -> PartialScheme:
    """Wire a scheme: u~ plus the binary index must fit the code dimension;
    any remaining message bits are zero padding."""
    k_info = as_whole_number(k_info, "info segment length")
    layout_seed = as_whole_number(layout_seed, "layout seed")
    if k_info < 2 or k_info % 2:
        raise ValueError("info segment length must be even and at least 2")
    i_bits = math.ceil(math.log2(k_info))
    if k_info + i_bits > code.k:
        raise ValueError(
            f"ecc dimension mismatch: k_info={k_info} plus {i_bits} index bits "
            f"exceeds code dimension {code.k}")
    layout = make_rng(layout_seed).permutation(code.n)
    return PartialScheme(code=code, k_info=k_info, i_bits=i_bits, layout=layout)


@dataclass(frozen=True)
class PartialCodeword:
    u_tilde: BalancedWord
    i_bits: np.ndarray
    parity: np.ndarray
    physical: np.ndarray    # bits in cell order, ready to program


@dataclass(frozen=True)
class PbDecodeResult:
    ok: bool
    u: np.ndarray | None
    reason: str


def pb_encode(scheme: PartialScheme, u) -> PartialCodeword:
    """Balance the message, append its index in plain binary, add parity,
    and scatter the bits into physical cell order."""
    bits = as_bits(u)
    if bits.size != scheme.k_info:
        raise ValueError(f"message length {bits.size} != {scheme.k_info}")
    u_tilde, i = balance(bits)
    idx = np.array([(i >> (scheme.i_bits - 1 - t)) & 1 for t in range(scheme.i_bits)],
                   dtype=np.uint8)
    message = np.zeros(scheme.code.k, dtype=np.uint8)
    message[:scheme.k_info] = u_tilde
    message[scheme.k_info:scheme.k_info + scheme.i_bits] = idx
    codeword = encode(scheme.code, message)
    physical = np.zeros(scheme.n, dtype=np.uint8)
    physical[scheme.layout] = codeword
    parity_positions = np.setdiff1d(np.arange(scheme.n), scheme.code.message_positions)
    return PartialCodeword(
        u_tilde=BalancedWord.from_array(u_tilde),
        i_bits=idx,
        parity=codeword[parity_positions],
        physical=physical,
    )


def pb_read(scheme: PartialScheme, levels) -> np.ndarray:
    """Threshold chosen from the info-segment cells alone, applied to all n."""
    levels = as_levels(levels)
    if levels.size != scheme.n:
        raise ValueError(f"levels length {levels.size} != n = {scheme.n}")
    thr = balancing_threshold_exact(levels[scheme.info_cells])
    return read_with_threshold(levels, thr.value)


def pb_decode(scheme: PartialScheme, y) -> PbDecodeResult:
    """Error-correct, extract the index, and undo the prefix inversion.

    Failures from the inner code or an out-of-range index are reported, never
    silently decoded; a word whose length is not n is rejected.
    """
    bits = as_bits(y)
    if bits.size != scheme.n:
        raise ValueError(f"word length {bits.size} != n = {scheme.n}")
    logical = bits[scheme.layout]
    res = bp_decode(scheme.code, bsc_llr(logical, DESIGN_P))
    if not res.satisfied:
        return PbDecodeResult(ok=False, u=None, reason="ecc decode failure")
    message = res.word[scheme.code.message_positions]
    u = message[:scheme.k_info]
    idx_bits = message[scheme.k_info:scheme.k_info + scheme.i_bits]
    i = 0
    for b in idx_bits:
        i = (i << 1) | int(b)
    if i >= scheme.k_info:
        return PbDecodeResult(ok=False, u=None, reason=f"index {i} out of range")
    u[:i] ^= 1
    return PbDecodeResult(ok=True, u=u, reason="")


def rate_fixed_vs_partial(n: int, k_fixed: int, k_pb: int, i_bits: int) -> tuple[float, float]:
    """Data rates of a fixed-threshold code versus a partial-balanced code
    that spends i_bits of its dimension on the inversion index."""
    if min(n, k_fixed, k_pb) <= 0 or i_bits < 0:
        raise ValueError("block and dimension arguments must be positive")
    return k_fixed / n, (k_pb - i_bits) / n
