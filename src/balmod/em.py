"""Two-component Gaussian mixture fitting for soft reads.

Stored codewords are balanced, so the two components get fixed equal weights
and EM only estimates the means and standard deviations.  The fitted mixture
supplies per-cell log-likelihood ratios for soft-decision decoders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

VARIANCE_FLOOR = 1e-9
RESPONSIBILITY_FLOOR = 1e-12
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class ComponentCollapse(RuntimeError):
    """A mixture component lost essentially all responsibility."""


@dataclass(frozen=True)
class MixtureParams:
    u0: float
    sigma0: float
    u1: float
    sigma1: float

    def __post_init__(self):
        if self.sigma0 <= 0 or self.sigma1 <= 0:
            raise ValueError("standard deviations must be positive")

    def sorted(self) -> "MixtureParams":
        """Relabel so u0 <= u1; the mixture density is unchanged."""
        if self.u0 <= self.u1:
            return self
        return MixtureParams(self.u1, self.sigma1, self.u0, self.sigma0)


@dataclass(frozen=True)
class FitResult:
    params: MixtureParams
    log_likelihood: tuple[float, ...]
    converged: bool
    n_iter: int


def _as_levels(c, min_size: int = 1) -> np.ndarray:
    levels = np.asarray(c, dtype=np.float64)
    if levels.ndim != 1 or levels.size < min_size:
        raise ValueError(f"need a one-dimensional vector of at least {min_size} levels")
    if not np.all(np.isfinite(levels)):
        raise ValueError("cell levels must be finite")
    return levels


def _log_densities(levels: np.ndarray, params: MixtureParams) -> np.ndarray:
    """(n, 2) log N(c; u_k, sigma_k) for k = 0, 1."""
    out = np.empty((levels.size, 2))
    for k, (u, s) in enumerate(((params.u0, params.sigma0),
                                (params.u1, params.sigma1))):
        out[:, k] = -0.5 * ((levels - u) / s) ** 2 - np.log(s) - _LOG_SQRT_2PI
    return out


def log_likelihood(c, params: MixtureParams) -> float:
    """Data log-likelihood under the equal-weight two-component mixture."""
    levels = _as_levels(c)
    ld = _log_densities(levels, params) + np.log(0.5)
    return float(np.sum(logsumexp(ld, axis=1)))


def e_step(c, params: MixtureParams) -> np.ndarray:
    """Posterior P(bit = k | level) per cell, k in {0, 1}; rows sum to 1.

    Equal mixing weights cancel; computed in the log domain to avoid
    underflow for cells far from both components.
    """
    levels = _as_levels(c)
    ld = _log_densities(levels, params)
    ld -= logsumexp(ld, axis=1, keepdims=True)
    return np.exp(ld)


def m_step(c, resp: np.ndarray) -> MixtureParams:
    """Responsibility-weighted means and variances."""
    levels = _as_levels(c)
    resp = np.asarray(resp, dtype=np.float64)
    if resp.shape != (levels.size, 2):
        raise ValueError("responsibilities must have shape (n, 2)")
    totals = resp.sum(axis=0)
    if np.any(totals < RESPONSIBILITY_FLOOR * levels.size):
        raise ComponentCollapse(f"component responsibility collapsed: {totals}")
    means = (resp * levels[:, None]).sum(axis=0) / totals
    variances = (resp * (levels[:, None] - means[None, :]) ** 2).sum(axis=0) / totals
    sds = np.sqrt(np.maximum(variances, VARIANCE_FLOOR))
    return MixtureParams(u0=float(means[0]), sigma0=float(sds[0]),
                         u1=float(means[1]), sigma1=float(sds[1]))


def default_init(c) -> MixtureParams:
    """Quartile-based start: component means from the lowest and highest
    quarter of the levels, both sigmas from the pooled standard deviation."""
    levels = np.sort(_as_levels(c, min_size=2))
    quarter = max(1, levels.size // 4)
    pooled = float(np.std(levels))
    sd = max(pooled, np.sqrt(VARIANCE_FLOOR))
    return MixtureParams(u0=float(np.mean(levels[:quarter])), sigma0=sd,
                         u1=float(np.mean(levels[-quarter:])), sigma1=sd)


def fit(c, init: MixtureParams | None = None, max_iter: int = 200,
        tol: float = 1e-9) -> FitResult:
    """Alternate E and M steps until the log-likelihood gain drops below tol.

    The log-likelihood trace never decreases (up to floating-point noise);
    final labels are sorted so u0 <= u1.
    """
    levels = _as_levels(c, min_size=2)
    params = init if init is not None else default_init(levels)
    history = [log_likelihood(levels, params)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        params = m_step(levels, e_step(levels, params))
        history.append(log_likelihood(levels, params))
        if history[-1] - history[-2] < tol:
            converged = True
            break
    return FitResult(params=params.sorted(), log_likelihood=tuple(history),
                     converged=converged, n_iter=iterations)


def per_cell_llr(c, params: MixtureParams) -> np.ndarray:
    """log f(c_i | bit 0) - log f(c_i | bit 1); positive favors 0."""
    ld = _log_densities(_as_levels(c), params)
    return ld[:, 0] - ld[:, 1]
