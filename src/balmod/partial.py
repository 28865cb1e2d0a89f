"""Partial-balanced modulation.

Only the information segment of each codeword is balanced: the message u is
prefix-inverted to a balanced u~, the inversion index goes in as plain binary
(no balanced prefix), and a systematic code adds parity over [u~, i].  The
physical cell order is scrambled by a seeded permutation so the segment's
cells are spread across the block; reads pick the threshold that balances
the u~ cells only and then apply it to the whole block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import make_rng
from .ldpc import LdpcCode, bp_decode, bsc_llr, encode
from .thresholds import balancing_threshold_exact, read_with_threshold
from .words import BalancedWord, BitWord, find_balancing_index, invert_prefix


@dataclass(frozen=True)
class LdpcSystematicCode:
    """Systematic code (message bits verbatim at message_positions): an LDPC
    code decoded with constant-magnitude LLRs of the given design crossover
    probability."""

    code: LdpcCode
    design_p: float = 0.02
    max_iter: int = 50

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def message_positions(self) -> np.ndarray:
        return self.code.message_positions

    def encode(self, message: np.ndarray) -> np.ndarray:
        return encode(self.code, message).to_array()

    def decode(self, word: np.ndarray) -> tuple[np.ndarray | None, bool]:
        res = bp_decode(self.code, bsc_llr(word, self.design_p), max_iter=self.max_iter)
        if not res.satisfied:
            return None, False
        return res.word.to_array(), True


@dataclass(frozen=True)
class PartialScheme:
    """Fixed wiring of one partial-balanced code instance.

    layout[j] is the physical cell holding logical codeword bit j; the info
    segment u~ occupies the first k_info systematic positions.
    """

    ecc: LdpcSystematicCode
    k_info: int
    i_bits: int
    layout: np.ndarray

    @property
    def n(self) -> int:
        return self.ecc.n

    @property
    def info_cells(self) -> np.ndarray:
        """Physical cells of the balanced segment, used for thresholding."""
        return self.layout[self.ecc.message_positions[:self.k_info]]


def make_partial_scheme(ecc: LdpcSystematicCode, k_info: int, layout_seed: int) -> PartialScheme:
    """Wire a scheme: u~ plus the binary index must fit the code dimension;
    any remaining message bits are zero padding."""
    if k_info < 2 or k_info % 2:
        raise ValueError("info segment length must be even and at least 2")
    i_bits = math.ceil(math.log2(k_info))
    if k_info + i_bits > ecc.k:
        raise ValueError(
            f"ecc dimension mismatch: k_info={k_info} plus {i_bits} index bits "
            f"exceeds code dimension {ecc.k}")
    layout = make_rng(layout_seed).permutation(ecc.n)
    return PartialScheme(ecc=ecc, k_info=k_info, i_bits=i_bits, layout=layout)


@dataclass(frozen=True)
class PartialCodeword:
    u_tilde: BalancedWord
    i_bits: BitWord
    parity: BitWord
    physical: BitWord       # bits in cell order, ready to program


@dataclass(frozen=True)
class PbDecodeResult:
    ok: bool
    u: BitWord | None
    reason: str


def pb_encode(scheme: PartialScheme, u: BitWord) -> PartialCodeword:
    """Balance the message, append its index in plain binary, add parity,
    and scatter the bits into physical cell order."""
    if len(u) != scheme.k_info:
        raise ValueError(f"message length {len(u)} != {scheme.k_info}")
    i = find_balancing_index(u.to_array())
    u_tilde = BalancedWord(invert_prefix(u, i).bits)
    idx = np.array([(i >> (scheme.i_bits - 1 - t)) & 1 for t in range(scheme.i_bits)],
                   dtype=np.uint8)
    message = np.zeros(scheme.ecc.k, dtype=np.uint8)
    message[:scheme.k_info] = u_tilde.to_array()
    message[scheme.k_info:scheme.k_info + scheme.i_bits] = idx
    codeword = scheme.ecc.encode(message)
    physical = np.zeros(scheme.n, dtype=np.uint8)
    physical[scheme.layout] = codeword
    parity_positions = np.setdiff1d(np.arange(scheme.n), scheme.ecc.message_positions)
    return PartialCodeword(
        u_tilde=u_tilde,
        i_bits=BitWord.from_array(idx),
        parity=BitWord.from_array(codeword[parity_positions]),
        physical=BitWord.from_array(physical),
    )


def pb_read(scheme: PartialScheme, levels) -> BitWord:
    """Threshold chosen from the info-segment cells alone, applied to all n."""
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size != scheme.n:
        raise ValueError(f"levels length {levels.size} != n = {scheme.n}")
    thr = balancing_threshold_exact(levels[scheme.info_cells])
    return read_with_threshold(levels, thr.value)


def pb_decode(scheme: PartialScheme, y: BitWord) -> PbDecodeResult:
    """Error-correct, extract the index, and undo the prefix inversion.

    Failures from the inner code or an out-of-range index are reported, never
    silently decoded.
    """
    phys = y.to_array()
    logical = phys[scheme.layout]
    codeword, ok = scheme.ecc.decode(logical)
    if not ok:
        return PbDecodeResult(ok=False, u=None, reason="ecc decode failure")
    message = codeword[scheme.ecc.message_positions]
    u_tilde = message[:scheme.k_info]
    idx_bits = message[scheme.k_info:scheme.k_info + scheme.i_bits]
    i = 0
    for b in idx_bits:
        i = (i << 1) | int(b)
    if i >= scheme.k_info:
        return PbDecodeResult(ok=False, u=None, reason=f"index {i} out of range")
    u = invert_prefix(BitWord.from_array(u_tilde), i)
    return PbDecodeResult(ok=True, u=u, reason="")


def rate_fixed_vs_partial(n: int, k_fixed: int, k_pb: int, i_bits: int) -> tuple[float, float]:
    """Data rates of a fixed-threshold code versus a partial-balanced code
    that spends i_bits of its dimension on the inversion index."""
    if min(n, k_fixed, k_pb) <= 0 or i_bits < 0:
        raise ValueError("block and dimension arguments must be positive")
    return k_fixed / n, (k_pb - i_bits) / n
