"""Two-component Gaussian mixture fitting for soft reads.

Stored codewords are balanced, so the two components get fixed equal weights
and EM only estimates the means and standard deviations.  The fitted mixture
supplies per-cell log-likelihood ratios for soft-decision decoders.

Each public call checks its levels once, through channel.as_levels.  One E
step builds one log-density table, which gives both the responsibilities
and the log-likelihood; e_step and log_likelihood each return one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import as_levels
from .words import as_whole_number

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


def _log_densities(levels: np.ndarray, params: MixtureParams) -> np.ndarray:
    """(n, 2) log N(c; u_k, sigma_k) for k = 0, 1."""
    u, s = np.array([params.u0, params.u1]), np.array([params.sigma0, params.sigma1])
    return -0.5 * ((levels[:, None] - u) / s) ** 2 - np.log(s) - _LOG_SQRT_2PI


def _e_step(levels: np.ndarray, params: MixtureParams) -> tuple[np.ndarray, float]:
    """Responsibilities exp(ld - lse) and log-likelihood sum(lse) - n log 2 of
    checked levels, lse = log(f0 + f1) per cell from one table ld."""
    ld = _log_densities(levels, params)
    lse = np.logaddexp(ld[:, 0], ld[:, 1])
    return np.exp(ld - lse[:, None]), float(np.sum(lse)) - levels.size * np.log(2.0)


def log_likelihood(c, params: MixtureParams) -> float:
    """Data log-likelihood under the equal-weight two-component mixture."""
    return _e_step(as_levels(c, min_size=1), params)[1]


def e_step(c, params: MixtureParams) -> np.ndarray:
    """Posterior P(bit = k | level) per cell, k in {0, 1}; rows sum to 1.
    Computed in the log domain, so cells far from both components do not
    underflow."""
    return _e_step(as_levels(c, min_size=1), params)[0]


def _m_step(levels: np.ndarray, resp: np.ndarray) -> MixtureParams:
    """m_step of checked levels and (n, 2) responsibilities."""
    totals = resp.sum(axis=0)
    if np.any(totals < RESPONSIBILITY_FLOOR * levels.size):
        raise ComponentCollapse(f"component responsibility collapsed: {totals}")
    means = (resp * levels[:, None]).sum(axis=0) / totals
    variances = (resp * (levels[:, None] - means[None, :]) ** 2).sum(axis=0) / totals
    sds = np.sqrt(np.maximum(variances, VARIANCE_FLOOR))
    return MixtureParams(u0=float(means[0]), sigma0=float(sds[0]),
                         u1=float(means[1]), sigma1=float(sds[1]))


def m_step(c, resp: np.ndarray) -> MixtureParams:
    """Responsibility-weighted means and variances."""
    levels = as_levels(c, min_size=1)
    resp = np.asarray(resp, dtype=np.float64)
    if resp.shape != (levels.size, 2):
        raise ValueError("responsibilities must have shape (n, 2)")
    return _m_step(levels, resp)


def _default_init(levels: np.ndarray) -> MixtureParams:
    """default_init of checked levels."""
    levels = np.sort(levels)
    quarter = max(1, levels.size // 4)
    pooled = float(np.std(levels))
    sd = max(pooled, np.sqrt(VARIANCE_FLOOR))
    return MixtureParams(u0=float(np.mean(levels[:quarter])), sigma0=sd,
                         u1=float(np.mean(levels[-quarter:])), sigma1=sd)


def default_init(c) -> MixtureParams:
    """Quartile-based start: component means from the lowest and highest
    quarter of the levels, both sigmas from the pooled standard deviation."""
    return _default_init(as_levels(c, min_size=2))


def fit(c, init: MixtureParams | None = None, max_iter: int = 200,
        tol: float = 1e-9) -> FitResult:
    """Alternate E and M steps until the log-likelihood gain drops below tol.

    Each iteration's one E step gives the log-likelihood of the new
    parameters and the responsibilities of the next M step.  The trace never
    decreases (up to floating-point noise); labels are sorted so u0 <= u1.
    """
    levels = as_levels(c, min_size=2)
    max_iter = as_whole_number(max_iter, "max_iter")
    params = init if init is not None else _default_init(levels)
    resp, ll = _e_step(levels, params)
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        params = _m_step(levels, resp)
        resp, ll = _e_step(levels, params)
        history.append(ll)
        if history[-1] - history[-2] < tol:
            converged = True
            break
    return FitResult(params=params.sorted(), log_likelihood=tuple(history),
                     converged=converged, n_iter=iterations)


def per_cell_llr(c, params: MixtureParams) -> np.ndarray:
    """log f(c_i | bit 0) - log f(c_i | bit 1); positive favors 0."""
    ld = _log_densities(as_levels(c, min_size=1), params)
    return ld[:, 0] - ld[:, 1]
