"""Drift channel models, analytic bit-error-rate formulas, and bit channels.

Two Gaussian level models are supported.  Cells storing 0 always draw from
N(0, sigma).  Under mean drift, cells storing 1 draw from N(1 - t, sigma);
under variance growth they draw from N(1, sigma + t).  Sigma values are
standard deviations.

All sampling uses the counter-based Philox generator keyed by an explicit
seed, so outputs are reproducible across platforms and safe to parallelize
with disjoint seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .words import BitWord

MEAN_DRIFT = "mean_drift"
VARIANCE_GROWTH = "variance_growth"

ERASURE = -1


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or a sequence of integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _check_age(t: float) -> None:
    if not np.isfinite(t):
        raise ValueError(f"age t must be finite, got {t}")
    if t < 0:
        raise ValueError("age t must be nonnegative")


@dataclass(frozen=True)
class DriftModel:
    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in (MEAN_DRIFT, VARIANCE_GROWTH):
            raise ValueError(f"unknown drift model {self.kind!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def level_params(self, t: float) -> tuple[float, float, float, float]:
        """(mean0, sd0, mean1, sd1) of the level distributions at time t."""
        _check_age(t)
        if self.kind == MEAN_DRIFT:
            return 0.0, self.sigma, 1.0 - t, self.sigma
        return 0.0, self.sigma, 1.0, self.sigma + t


@dataclass(frozen=True)
class AgedBlock:
    """Stored word and its cell levels after aging for time t."""

    truth: BitWord
    levels: np.ndarray
    t: float

    def __post_init__(self):
        if len(self.truth) != self.levels.size:
            raise ValueError("truth and levels must have equal length")


def sample_levels(x: BitWord, model: DriftModel, t: float, seed) -> AgedBlock:
    """Draw one level per cell from the model's 0/1 distributions at time t."""
    mean0, sd0, mean1, sd1 = model.level_params(t)
    bits = x.to_array()
    means = np.where(bits == 1, mean1, mean0)
    sds = np.where(bits == 1, sd1, sd0)
    levels = make_rng(seed).normal(means, sds)
    return AgedBlock(truth=x, levels=levels, t=t)


def analytic_ber(model: DriftModel, v, t):
    """0.5 * Phi((mean0 - v) / sd0) + 0.5 * Phi((v - mean1) / sd1): the error
    rate of reading at threshold v at age t, half the cells storing each bit."""
    mean0, sd0, mean1, sd1 = model.level_params(t)
    v = np.asarray(v)
    return 0.5 * ndtr((mean0 - v) / sd0) + 0.5 * ndtr((v - mean1) / sd1)


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


def _log_density_gap(model: DriftModel, v: float, t: float) -> float:
    """log g_t(v) - log h_t(v) for the model's 0/1 level densities."""
    mean0, sd0, mean1, sd1 = model.level_params(t)
    lg = -0.5 * ((v - mean0) / sd0) ** 2 - np.log(sd0)
    lh = -0.5 * ((v - mean1) / sd1) ** 2 - np.log(sd1)
    return float(lg - lh)


def model_thresholds(model: DriftModel, t: float) -> ModelThresholds:
    """Thresholds implied by the level model at age t.

    Mean drift admits closed forms vb = vo = (1 - t) / 2.  For variance
    growth vb = 1 / (2 + t / sigma) and vo solves the density equality
    g_t(v) = h_t(v); the interior root is found by bisection on (0, 1) and
    compared against the infinite-threshold candidates.
    """
    _check_age(t)
    if model.kind == MEAN_DRIFT:
        vb = vo = (1.0 - t) / 2.0
        return ModelThresholds(vb=vb, vo=vo, vf=0.5)
    vb = 1.0 / (2.0 + t / model.sigma)
    root = brentq(lambda v: _log_density_gap(model, v, t), 1e-12, 1.0 - 1e-12,
                  xtol=1e-14, rtol=8.9e-16)
    candidates = [float(root), -np.inf, np.inf]
    vo = min(candidates, key=lambda v: float(analytic_ber(model, v, t)))
    return ModelThresholds(vb=float(vb), vo=float(vo), vf=0.5)


def apply_bsc(x: BitWord, p: float, seed) -> BitWord:
    """Flip each bit independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must be in [0, 1]")
    bits = x.to_array()
    flips = make_rng(seed).random(bits.size) < p
    return BitWord.from_array(bits ^ flips.astype(np.uint8))


def apply_bec(x: BitWord, p: float, seed) -> np.ndarray:
    """Erase each bit independently with probability p.

    Returns an int8 array over {0, 1, ERASURE}.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("erasure probability must be in [0, 1]")
    out = x.to_array().astype(np.int8)
    erased = make_rng(seed).random(out.size) < p
    out[erased] = ERASURE
    return out
