"""Decision-margin function of the accumulated channel energy, and its calibration.

For a fixed energy level ``U`` the expected negative part of the decision
margin, taken over the null law of the correlation statistic ``V ~ N(0,
sigma^2 U)``, defines a continuous and strictly decreasing function ``G(U)``.
Its range runs from ``G(0) = min(c0 - c1 - ce*mu_x^2, 0)`` down to
``-c1 - ce*(mu_x^2 + sigma_x^2)``, so for any admissible combined-cost level
``C`` there is a unique energy threshold ``gamma`` with
``G(gamma) = C - c1 - ce*(mu_x^2 + sigma_x^2)``.

The module evaluates ``G`` two independent ways: a closed form built from the
Gaussian cdf and truncated-moment identities, and an adaptive-quadrature path
retained as a cross-checking oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import scipy.integrate
from scipy.special import ndtr

from .errors import InfeasibleConstraint, InvalidCosts, NumericalError, QuadratureNonConvergence
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Bisection tolerances: absolute on the root of the margin equation, residual
# on the threshold equation.
_G_ROOT_XTOL = 1e-10
_GAMMA_RESIDUAL_TOL = 1e-12
_GAMMA_RESIDUAL_MAX = 1e-10
_MAX_BISECT = 500


class Regime(enum.Enum):
    OBSERVE = "observe"
    STOP_AT_ZERO = "stop_at_zero"


@dataclass(frozen=True)
class GPoint:
    """One row of a G-table: root, region endpoints, and value at energy U."""

    U: float
    g: float
    V1: float
    V2: float
    G: float


@dataclass(frozen=True)
class Calibration:
    """Solved stopping rule for a constraint level C.

    In the OBSERVE regime sampling continues until the running energy reaches
    ``gamma``.  In the STOP_AT_ZERO regime the constraint is already met by
    prior information: the decision (and, when it is H1, the prior-mean
    estimate) is fixed before any observation.
    """

    C: float
    regime: Regime
    gamma: float | None = None
    decision: Hypothesis | None = None
    estimate: float | None = None

    def __post_init__(self):
        if self.regime is Regime.OBSERVE:
            if self.gamma is None or not (self.gamma > 0):
                raise ValueError("observe regime requires gamma > 0")
            if self.decision is not None or self.estimate is not None:
                raise ValueError("observe regime carries no prior decision")
        else:
            if self.gamma is not None:
                raise ValueError("stop-at-zero regime carries no threshold")
            if self.decision is None:
                raise ValueError("stop-at-zero regime requires a decision")
            if (self.estimate is not None) != (self.decision is Hypothesis.H1):
                raise ValueError("estimate present iff decision is H1")


def _validate_costs(c: CostWeights) -> None:
    if c.c0 <= 0:
        raise InvalidCosts(f"c0 must be positive for calibration, got {c.c0}")
    if c.c1 + c.ce <= 0:
        raise InvalidCosts("c1 and ce cannot both be zero")


def _check_energy(U: float) -> None:
    if not (math.isfinite(U) and U >= 0):
        raise ValueError(f"energy U must be finite and nonnegative, got {U!r}")


@lru_cache(maxsize=16384)
def _g_root_cached(U: float, mu_x: float, sigma_x: float, sigma: float,
                   c0: float, c1: float, ce: float) -> float:
    kappa = sigma**2 / sigma_x**2
    A = U + kappa
    scale = 2.0 * sigma**2 * A
    prior_term = mu_x**2 / (2.0 * sigma_x**2)

    if ce == 0.0:
        # Closed form: the margin equation is purely exponential in g.
        return scale * (math.log(c0 / c1) + prior_term + 0.5 * math.log(A / kappa))

    beta = ce / (A * A)
    log_c0 = math.log(c0)
    half_log = 0.5 * math.log(kappa / A)

    def excess(g: float) -> float:
        # log of the margin equation's right side minus log c0; strictly
        # increasing where the weight c1 + ce*g/A^2 is positive.
        w = c1 + beta * g
        if w <= 0.0:
            return -math.inf
        return half_log + g / scale - prior_term + math.log(w) - log_c0

    lo = -(A * A) * c1 / ce  # weight vanishes here, so the right side is 0
    hi = max(lo, 0.0)
    span = scale
    for _ in range(_MAX_BISECT):
        if excess(hi) >= 0.0:
            break
        hi += span
        span *= 2.0
    else:
        raise NumericalError(f"no upper bracket for the margin root at U={U}")

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= _G_ROOT_XTOL:
            break
    return 0.5 * (lo + hi)


def g_root(U: float, p: ModelParams, c: CostWeights) -> float:
    """Root g(U) of the decision-margin equation at energy U.

    Solves ``c0 = sqrt(kappa/(U+kappa)) * exp(g/(2*sigma^2*(U+kappa))
    - mu_x^2/(2*sigma_x^2)) * (c1 + ce*g/(U+kappa)^2)`` for g, which stands
    in for the squared shifted correlation ``(V + mu_x*kappa)^2`` at the
    decision boundary and may be negative.  For ce = 0 the closed form is
    used; otherwise the right side is strictly increasing in g on
    ``[-(U+kappa)^2*c1/ce, inf)`` and a bracketed bisection is run to
    absolute tolerance 1e-10.
    """
    _validate_costs(c)
    _check_energy(U)
    return _g_root_cached(U, p.mu_x, p.sigma_x, p.sigma, c.c0, c.c1, c.ce)


def region(U: float, p: ModelParams, c: CostWeights) -> tuple[float, float]:
    """Endpoints (V1, V2) of the nonpositive-margin region (-inf,-V1] u [V2,inf).

    ``V1 = sqrt(max(g,0)) + mu_x*kappa`` and ``V2 = sqrt(max(g,0)) -
    mu_x*kappa``; when g <= 0 the two tails meet and the region is the whole
    line.
    """
    g = g_root(U, p, c)
    root = math.sqrt(g) if g > 0.0 else 0.0
    mk = p.mu_x * p.kappa
    return root + mk, root - mk


def g_limits(p: ModelParams, c: CostWeights) -> tuple[float, float]:
    """Exact value at zero energy and the infinite-energy limit of G."""
    G0 = min(c.c0 - c.c1 - c.ce * p.mu_x**2, 0.0)
    Ginf = -c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2)
    return G0, Ginf


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def g_eval(U: float, p: ModelParams, c: CostWeights) -> float:
    """Closed-form value of G(U).

    At U = 0 the null law of V is a point mass and the exact limit
    ``min(c0 - c1 - ce*mu_x^2, 0)`` is returned, as it is at an energy so
    small that ``U*(U+kappa)`` underflows.  Otherwise the integral over
    the region is assembled from Gaussian tail probabilities and the first
    two truncated moments of the unit normal, using that V has null law
    ``N(0, sigma^2 U)`` and marginal alternative law
    ``N(mu_x U, sigma_x^2 U (U+kappa))``.
    """
    _validate_costs(c)
    _check_energy(U)
    kappa = p.kappa
    A = U + kappa
    if U * A == 0.0:
        G0, _ = g_limits(p, c)
        return G0

    V1, V2 = region(U, p, c)
    mu = p.mu_x
    s0 = p.sigma * math.sqrt(U)
    s1 = p.sigma_x * math.sqrt(U * A)

    false_alarm = ndtr(-V1 / s0) + ndtr(-V2 / s0)

    # Standardize the alternative law of V; the region maps to Z <= a or Z >= b.
    a = (-V1 - mu * U) / s1
    b = (V2 - mu * U) / s1
    phi_a = _norm_pdf(a)
    phi_b = _norm_pdf(b)
    tail_p = ndtr(a) + ndtr(-b)
    tail_z = phi_b - phi_a
    tail_z2 = (ndtr(a) - a * phi_a) + (ndtr(-b) + b * phi_b)

    # E[((V + mu*kappa)/A)^2 ; region] with V + mu*kappa = mu*A + s1*Z.
    r = s1 / A
    shrunk_second_moment = mu * mu * tail_p + 2.0 * mu * r * tail_z + r * r * tail_z2

    return c.c0 * false_alarm - c.c1 * tail_p - c.ce * shrunk_second_moment


def g_eval_quadrature(U: float, p: ModelParams, c: CostWeights, tol: float = 1e-9) -> float:
    """Adaptive-quadrature evaluation of G(U), the cross-checking oracle.

    Integrates the negative part of the decision margin against the null
    density of V directly, in the standardized variable z = V/(sigma*sqrt(U)),
    split into a finite core around the region endpoints plus the two
    far tails.  Raises QuadratureNonConvergence if the accumulated absolute
    error estimate exceeds ``tol``.
    """
    _validate_costs(c)
    if not (math.isfinite(U) and U > 0):
        raise ValueError(f"quadrature needs U > 0, got {U!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    V1, V2 = region(U, p, c)
    kappa = p.kappa
    A = U + kappa
    mu = p.mu_x
    s0 = p.sigma * math.sqrt(U)
    half_log = 0.5 * math.log(kappa / A)
    prior_term = mu**2 / (2.0 * p.sigma_x**2)
    two_s2A = 2.0 * p.sigma**2 * A

    def integrand(z: float) -> float:
        V = z * s0
        shifted = V + mu * kappa
        log_lr = half_log + shifted * shifted / two_s2A - prior_term
        weight = c.c1 + c.ce * (shifted / A) ** 2
        # both exponents stay <= 0, so no overflow is possible
        margin = c.c0 * math.exp(-0.5 * z * z) - weight * math.exp(log_lr - 0.5 * z * z)
        val = margin / _SQRT_2PI
        return val if val < 0.0 else 0.0

    z_left = -V1 / s0
    z_right = V2 / s0
    # Beyond this halfwidth of their peaks both Gaussian factors underflow to
    # exactly zero, so everything outside the core contributes nothing.
    hw = 40.0 * (p.sigma_x * math.sqrt(A) / p.sigma) + 40.0
    center = mu * U / s0
    core_lo = min(z_left, center - hw) - 1.0
    core_hi = max(z_right, center + hw) + 1.0

    # Breakpoints mark the two mass scales (null part near 0, alternative part
    # near `center`); without them the initial coarse rule can miss the mass
    # on a long finite interval.
    marks = sorted(
        {0.0, -10.0, 10.0, -41.0, 41.0}
        | {center + f * hw for f in (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)}
    )

    def _quad(lo: float, hi: float) -> tuple[float, float]:
        inner = [m for m in marks if lo < m < hi]
        kwargs = {"points": inner} if inner and math.isfinite(lo) and math.isfinite(hi) else {}
        result = scipy.integrate.quad(
            integrand, lo, hi, epsabs=tol / 4.0, epsrel=1e-12, limit=300,
            full_output=1, **kwargs,
        )
        if len(result) > 3:
            raise QuadratureNonConvergence(
                f"quadrature failed on [{lo}, {hi}] at U={U}: {result[3]}"
            )
        return result[0], result[1]

    total = 0.0
    err = 0.0
    for lo, hi in ((-math.inf, core_lo), (core_lo, z_left),
                   (z_right, core_hi), (core_hi, math.inf)):
        val, abserr = _quad(lo, hi)
        total += val
        err += abserr
    if err > tol:
        raise QuadratureNonConvergence(
            f"quadrature error estimate {err:.3e} exceeds tol {tol:.3e} at U={U}"
        )
    return total


def g_point(U: float, p: ModelParams, c: CostWeights) -> GPoint:
    """Bundle root, region endpoints, and closed-form value at one energy."""
    g = g_root(U, p, c)
    V1, V2 = region(U, p, c)
    return GPoint(U=U, g=g, V1=V1, V2=V2, G=g_eval(U, p, c))


def solve_gamma(C: float, p: ModelParams, c: CostWeights) -> Calibration:
    """Calibrate the energy threshold for combined-cost level C.

    For ``C >= C_max`` no observation is needed and the prior decision rule
    applies.  Otherwise the unique ``gamma > 0`` with
    ``G(gamma) = C - c1 - ce*(mu_x^2 + sigma_x^2)`` is found by doubling the
    upper bracket until it straddles the target and bisecting; strict
    monotonicity of G guarantees the bracket.  The accepted root satisfies
    ``|G(gamma) - target| <= 1e-10``.  NumericalError: C so small that the
    target rounds to G's infinite-energy limit, where no gamma is determined.
    """
    if isinstance(C, bool) or not isinstance(C, (int, float)) or not math.isfinite(C) or C <= 0:
        raise InfeasibleConstraint(
            f"infeasible constraint: C must be a positive finite real, got {C!r}"
        )
    _validate_costs(c)

    c_max = admissible_cost_bound(p, c)
    if C >= c_max:
        if c.c0 <= c.c1 + c.ce * p.mu_x**2:
            return Calibration(C=C, regime=Regime.STOP_AT_ZERO,
                               decision=Hypothesis.H1, estimate=p.mu_x)
        return Calibration(C=C, regime=Regime.STOP_AT_ZERO, decision=Hypothesis.H0)

    target = C - c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2)
    if target <= g_limits(p, c)[1]:  # C is lost in rounding: G is flat there
        raise NumericalError(f"threshold not determined: C={C!r} gives target {target!r}, "
                             "which rounds to G's infinite-energy limit")
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_BISECT):
        if g_eval(hi, p, c) <= target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NumericalError(f"no upper bracket for the threshold at C={C}")

    gamma = None
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            gamma = hi
            break
        residual = g_eval(mid, p, c) - target
        if abs(residual) <= _GAMMA_RESIDUAL_TOL:
            gamma = mid
            break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
    if gamma is None:
        gamma = 0.5 * (lo + hi)

    if abs(g_eval(gamma, p, c) - target) > _GAMMA_RESIDUAL_MAX:
        raise NumericalError(
            f"threshold bisection stalled at gamma={gamma} with residual above tolerance"
        )
    return Calibration(C=C, regime=Regime.OBSERVE, gamma=gamma)
