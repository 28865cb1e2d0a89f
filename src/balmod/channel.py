"""Drift channel models, analytic bit-error-rate formulas, and bit channels.

Two Gaussian level models are supported.  Cells storing 0 always draw from
N(0, sigma).  Under mean drift, cells storing 1 draw from N(1 - t, sigma);
under variance growth they draw from N(1, sigma + t).  Sigma values are
standard deviations.

Both models' thresholds come from level_params alone.  The balancing cut
vb = mean0 + (mean1 - mean0) * sd0 / (sd0 + sd1) leaves equal tail mass;
the optimal cut vo is whichever errs least of -inf, +inf and the real roots
of the density equality g_t(v) = h_t(v), a quadratic in v.  The error rates
are sums of standard normal CDFs, Phi(x) = erfc(-x / sqrt(2)) / 2 with the
standard library's math.erfc, so the module needs numpy alone.

All sampling uses the counter-based Philox generator keyed by an explicit
seed, so outputs are reproducible across platforms and safe to parallelize
with disjoint seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import as_bits

MEAN_DRIFT = "mean_drift"
VARIANCE_GROWTH = "variance_growth"

ERASURE = -1


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or a sequence of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class DriftModel:
    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in (MEAN_DRIFT, VARIANCE_GROWTH):
            raise ValueError(f"unknown drift model {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def level_params(self, t: float) -> tuple[float, float, float, float]:
        """(mean0, sd0, mean1, sd1) of the level distributions at time t."""
        if not np.isfinite(t):
            raise ValueError(f"age t must be finite, got {t}")
        if t < 0:
            raise ValueError("age t must be nonnegative")
        if self.kind == MEAN_DRIFT:
            return 0.0, self.sigma, 1.0 - t, self.sigma
        return 0.0, self.sigma, 1.0, self.sigma + t


def as_levels(c, min_size: int = 0) -> np.ndarray:
    """Cell levels as a 1-D float64 array of at least min_size cells, every
    one finite: the one check of a block of levels read back.  A float64
    vector comes back as is, not copied."""
    levels = np.asarray(c, dtype=np.float64)
    if levels.ndim != 1:
        raise ValueError(f"cell levels must be one-dimensional, got shape {levels.shape}")
    if levels.size < min_size:
        need = "one cell" if min_size == 1 else f"{min_size} cells"
        raise ValueError(f"need at least {need}, got {levels.size}")
    if not np.isfinite(levels).all():
        k = int(np.flatnonzero(~np.isfinite(levels))[0])
        raise ValueError(f"cell levels must be finite, got {levels[k]} at index {k}")
    return levels


@dataclass(frozen=True)
class AgedBlock:
    """Stored word (uint8 bits) and its cell levels after aging for time t;
    `truth` is as_bits' result, not copied, so read-only for a BitWord."""

    truth: np.ndarray
    levels: np.ndarray
    t: float

    def __post_init__(self):
        if self.truth.size != self.levels.size:
            raise ValueError("truth and levels must have equal length")


def sample_levels(x, model: DriftModel, t: float, seed) -> AgedBlock:
    """Draw one level per cell from the model's 0/1 distributions at time t.

    The levels are Generator.normal(means, sds) with per-cell means and sds,
    bit for bit: numpy draws each as mean + sd * z with two roundings, so one
    standard-normal fill, scaled and shifted in place, gives the same floats
    without numpy's per-element broadcast path.
    """
    mean0, sd0, mean1, sd1 = model.level_params(t)
    bits = as_bits(x)
    levels = make_rng(seed).standard_normal(bits.size)
    # bits are 0 or 1, so each indexes its bit's parameter
    levels *= np.array((sd0, sd1)).take(bits)
    levels += np.array((mean0, mean1)).take(bits)
    return AgedBlock(truth=bits, levels=levels, t=t)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Phi(x) = erfc(-x / sqrt(2)) / 2, element by element through math.erfc:
    a float64 array for an array x, an np.float64 for a scalar."""
    z = -np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * np.asarray(_erfc(z), dtype=np.float64)


def analytic_ber(model: DriftModel, v, t):
    """0.5 * Phi((mean0 - v) / sd0) + 0.5 * Phi((v - mean1) / sd1): the error
    rate of reading at threshold v at age t, half the cells storing each bit."""
    mean0, sd0, mean1, sd1 = model.level_params(t)
    v = np.asarray(v)
    return 0.5 * normal_cdf((mean0 - v) / sd0) + 0.5 * normal_cdf((v - mean1) / sd1)


def analytic_ber_mean_drift(v, t, sigma: float):
    """0.5 * Phi(-v / sigma) + 0.5 * Phi(-(1 - t - v) / sigma)."""
    return analytic_ber(DriftModel(MEAN_DRIFT, sigma), v, t)


def analytic_ber_variance_growth(v, t, sigma: float):
    """0.5 * Phi(-v / sigma) + 0.5 * Phi(-(1 - v) / (sigma + t))."""
    return analytic_ber(DriftModel(VARIANCE_GROWTH, sigma), v, t)


@dataclass(frozen=True)
class ModelThresholds:
    """Population-level balancing, optimal, and fixed thresholds."""

    vb: float
    vo: float
    vf: float


def model_thresholds(model: DriftModel, t: float) -> ModelThresholds:
    """Thresholds implied by the level model at age t, one path for both.

    vb = mean0 + (mean1 - mean0) * sd0 / (sd0 + sd1).  vo is the candidate
    of least analytic_ber among -inf, +inf and the roots of qa v^2 + qb v +
    qc = 0 (log g_t = log h_t): 0.5 * (mean0 + mean1) when sd0 == sd1, else
    qc / q and q / qa, q = -0.5 * (qb + sign(qb) sqrt(qb^2 - 4 qa qc)).
    Mean drift gives vb = vo = (1 - t) / 2 up to t = 1, an infinite vo after.
    """
    mean0, sd0, mean1, sd1 = model.level_params(t)
    vb = mean0 + (mean1 - mean0) * (sd0 / (sd0 + sd1))
    roots = [0.5 * (mean0 + mean1)]
    if sd0 != sd1:
        qa, log_ratio = (sd1 - sd0) * (sd1 + sd0), math.log(sd1 / sd0)
        qb = 2.0 * (sd0 * sd0 * mean1 - sd1 * sd1 * mean0)
        qc = (sd1 * mean0) ** 2 - (sd0 * mean1) ** 2 - 2.0 * (sd0 * sd1) ** 2 * log_ratio
        # qb^2 - 4 qa qc factored into terms of one sign: qa and log_ratio agree
        disc = 4.0 * (sd0 * sd1) ** 2 * ((mean1 - mean0) ** 2 + 2.0 * qa * log_ratio)
        q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
        roots = [qc / q, q / qa]
    vo = min(roots + [-math.inf, math.inf], key=lambda v: float(analytic_ber(model, v, t)))
    return ModelThresholds(vb=float(vb), vo=float(vo), vf=0.5)


def apply_bsc(x, p: float, seed) -> np.ndarray:
    """Flip each bit independently with probability p; a fresh uint8 array."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must be in [0, 1]")
    bits = as_bits(x)
    flips = make_rng(seed).random(bits.size) < p
    return bits ^ flips.astype(np.uint8)


def apply_bec(x, p: float, seed) -> np.ndarray:
    """Erase each bit independently with probability p.

    Returns an int8 array over {0, 1, ERASURE}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    out = as_bits(x).astype(np.int8)
    erased = make_rng(seed).random(out.size) < p
    out[erased] = ERASURE
    return out
