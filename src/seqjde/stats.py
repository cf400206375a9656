"""Running sufficient statistics, the optimum estimator, and the decision rule.

Everything observable about the pair stream ``(y_t, h_t)`` that the estimator
and detector need is carried by the triple ``(t, U, V)`` with
``U = sum h_s^2`` (accumulated channel energy) and ``V = sum y_s h_s``
(correlation of observations with gains).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import CostWeights, Hypothesis, ModelParams


class SufficientStats(NamedTuple):
    """Sample count plus the two running sums that summarize the history; empty by default."""

    t: int = 0
    U: float = 0.0
    V: float = 0.0


def update(s: SufficientStats, y: float, h: float) -> SufficientStats:
    """Fold one observation pair into the running sums."""
    if not (math.isfinite(y) and math.isfinite(h)):
        raise ValueError(f"observation pair must be finite, got y={y!r}, h={h!r}")
    return SufficientStats(t=s.t + 1, U=s.U + h * h, V=s.V + y * h)


def running(y: np.ndarray, h: np.ndarray) -> SufficientStats:
    """Every prefix's statistics as arrays, the empty prefix first: row t is ``update``'s
    state after t pairs, bit for bit, as ``np.cumsum`` adds in its order from zeros."""
    with np.errstate(over="ignore", invalid="ignore"):  # silent inf and nan, as Python floats
        U = np.cumsum(np.concatenate(([0.0], h * h)))
        V = np.cumsum(np.concatenate(([0.0], y * h)))
    return SufficientStats(t=np.arange(len(U)), U=U, V=V)


def estimate(s: SufficientStats, p: ModelParams) -> float:
    """Posterior-mean amplitude estimate (V + mu_x*kappa) / (U + kappa).

    Shrinks the empirical ratio V/U toward the prior mean; with no data it
    returns mu_x, and for large energy it approaches V/U.
    """
    k = p.kappa
    return (s.V + p.mu_x * k) / (s.U + k)


def log_likelihood_ratio(s: SufficientStats, p: ModelParams) -> float:
    """Log of the marginal likelihood ratio of the y-history given the gains.

    The amplitude is integrated out against its Gaussian prior, leaving
    ``0.5*ln(kappa/A) + (V*(V + 2*mu_x*kappa) - mu_x^2*kappa*U) / (2*sigma^2*A)``
    with ``A = U + kappa``: the prior term ``mu_x^2/(2*sigma_x^2)`` is folded in,
    so no two terms of size mu_x^2*kappa cancel.  Kept in the log domain because
    the quadratic term grows without bound with the accumulated energy.
    """
    k = p.kappa
    a = s.U + k
    mk = p.mu_x * k
    # math.log per element of an array: np.log may round differently in the last bit
    log = math.log(k / a) if isinstance(a, float) else np.fromiter(map(math.log, k / a), float)
    return 0.5 * log + (s.V * (s.V + 2.0 * mk) - p.mu_x * mk * s.U) / (2.0 * p.sigma**2 * a)


def accepts_alternative(logL, xhat, c: CostWeights):
    """Estimation-aware decision rule for scalars or arrays: True where it decides H1.

    Accepts the alternative exactly when ``c0 <= L * (c1 + ce * xhat^2)``,
    ``L = exp(logL)``, compared in the log domain; equality decides H1.  A
    vanishing weight decides H0.  With ``ce = 0`` it is the likelihood ratio
    test at threshold c0/c1.
    """
    # as with Python floats: log(0) = -inf and inf - inf = nan decide H0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weight = c.c1 + c.ce * xhat * xhat
        return math.log(c.c0) <= logL + np.log(weight)


def decide(s: SufficientStats, p: ModelParams, c: CostWeights) -> Hypothesis:
    """``accepts_alternative`` at the history ``s``, as a Hypothesis."""
    if accepts_alternative(log_likelihood_ratio(s, p), estimate(s, p), c):
        return Hypothesis.H1
    return Hypothesis.H0
