"""Parameter and cost-weight domain types shared by all other modules.

The observation model is ``y_t = x * h_t + w_t`` with ``w_t ~ N(0, sigma^2)``;
under the alternative the amplitude follows the Gaussian prior
``x ~ N(mu_x, sigma_x^2)``, under the null ``x = 0``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass


class Hypothesis(enum.Enum):
    H0 = 0
    H1 = 1


def is_finite_real(v) -> bool:
    """True for a finite int or float; bools are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def quoted(value) -> str:
    """``repr(value)`` for a one-line error message, cut to 60 characters and a marker."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def check_int(name: str, v, low: int, size: bool = False) -> None:
    """ValueError unless ``v`` is an int, not a bool, with ``v >= low``; a ``size``
    must also be a number of doubles whose bytes NumPy can address."""
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {quoted(v)}")
    if size and v > sys.maxsize // 8:
        raise ValueError(f"{name} is a size too large to allocate, got {quoted(v)}")


@dataclass(frozen=True)
class ModelParams:
    """Gaussian prior and noise parameters.

    Attributes
    ----------
    mu_x : float
        Prior mean of the amplitude; any finite real.
    sigma_x : float
        Prior standard deviation of the amplitude; strictly positive.
    sigma : float
        Noise standard deviation; strictly positive.  The variances, their
        ratio ``kappa`` and its square must not underflow to 0 or overflow.
    """

    mu_x: float
    sigma_x: float
    sigma: float

    def __post_init__(self):
        for name in ("mu_x", "sigma_x", "sigma"):
            v = getattr(self, name)
            if not is_finite_real(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if self.sigma_x <= 0:
            raise ValueError(f"sigma_x must be > 0, got {self.sigma_x}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        # calibration squares U + kappa, so kappa^2 must be a positive finite float too
        if self.sigma_x**2 == 0 or not 0 < self.kappa * self.kappa < math.inf:
            raise ValueError(f"kappa = sigma^2/sigma_x^2 and its square must be positive finite "
                             f"floats, got sigma={self.sigma!r}, sigma_x={self.sigma_x!r}")

    @property
    def kappa(self) -> float:
        """Noise-to-prior variance ratio sigma^2 / sigma_x^2, always recomputed."""
        return self.sigma**2 / self.sigma_x**2


@dataclass(frozen=True)
class CostWeights:
    """Nonnegative weights for false alarm (c0), miss (c1), and squared error (ce).

    The decision rule and its threshold are defined only for ``c0 > 0`` and
    ``c1 + ce > 0``, so other weights are refused.
    """

    c0: float
    c1: float
    ce: float

    def __post_init__(self):
        for name in ("c0", "c1", "ce"):
            v = getattr(self, name)
            if not is_finite_real(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.c0 == 0:
            raise ValueError(f"c0 must be positive for calibration, got {self.c0}")
        if self.c1 + self.ce == 0:
            raise ValueError("c1 and ce cannot both be zero")


def admissible_cost_bound(params: ModelParams, costs: CostWeights) -> float:
    """Largest constraint level that still requires taking observations.

    Returns ``C_max = min(c0, c1 + ce * mu_x^2) + ce * sigma_x^2``.  Any
    constraint ``C`` in ``(0, C_max)`` admits a positive finite stopping
    threshold; ``C >= C_max`` means prior information alone already meets the
    constraint and no sample is needed.
    """
    return min(costs.c0, costs.c1 + costs.ce * params.mu_x**2) + costs.ce * params.sigma_x**2
