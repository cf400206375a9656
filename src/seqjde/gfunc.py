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

The Gaussian cdf ``ndtr`` is a transcription of the Cephes library's
``ndtr``/``erfc``/``erf`` (S. L. Moshier), the algorithm behind
``scipy.special.ndtr``: the same branches, coefficients and Horner order, so
it returns the same bits, without loading SciPy.  Only the quadrature oracle
imports SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError, QuadratureNonConvergence
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound, is_finite_real

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
# Cephes MAXLOG = log(DBL_MAX); its erfc returns 0 once x*x exceeds it
_MAXLOG = 7.09782712893383996843e2

# Bisection tolerances relative to min(1, scale): on the margin root, with its
# scale 2*sigma^2*(U+kappa); on the threshold's residual, with G's range C_max.
_G_ROOT_XTOL = 1e-10
_GAMMA_RESIDUAL_TOL = 1e-12
# Accepted residual: absolute, or relative to the cost scale where that is
# larger, since G and its rounding grow with the costs.
_GAMMA_RESIDUAL_MAX = 1e-10
_GAMMA_RESIDUAL_REL = 1e-13
# Steps of every search: halvings that take any float bracket down to adjacent
# floats, since its width shrinks from at most 2**1025 to at least 2**-1074,
# and doublings that take any positive float past the largest.
_MAX_STEPS = 2200
# Absolute error bound of the quadrature oracle, gtable's G_quadrature column
_QUAD_TOL = 1e-9


@dataclass(frozen=True)
class Calibration:
    """Stopping rule for a constraint level C.

    A rule with a prior ``decision`` stops at zero: the constraint is already
    met by prior information, so the decision is fixed before any observation
    and there is no threshold.  Any other rule samples until the running energy
    reaches ``gamma``; ``G`` is ``G(gamma)`` as the calibration accepted it.
    From ``stopping_rule`` both are None: the threshold is resolved where it is
    used, by ``solve_gamma`` or, as far as one gain path needs it, by ``threshold_bound``.
    """

    C: float
    gamma: float | None = None
    decision: Hypothesis | None = None
    G: float | None = None

    def __post_init__(self):
        if self.decision is not None and (self.gamma is not None or self.G is not None):
            raise ValueError("a prior decision carries no threshold")
        if self.gamma is None and self.G is not None:
            raise ValueError("an unsolved rule carries no threshold, so no G")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("a threshold requires gamma > 0")


def _check_energy(U: float) -> None:
    if not (math.isfinite(U) and U >= 0):
        raise ValueError(f"energy U must be finite and nonnegative, got {U!r}")


def _check_log_domain(U: float, kappa: float, A: float, scale: float) -> None:
    """NumericalError where the log form's ``ln(kappa/A)`` or ``g / (2*sigma^2*A)`` would fail."""
    if kappa / A == 0.0 or not 0.0 < scale < math.inf:
        raise NumericalError(f"energy U={U!r} is out of range for kappa={kappa!r}: "
                             f"kappa/(U+kappa) = {kappa / A!r}, 2*sigma^2*(U+kappa) = {scale!r}")


def _check_finite(U: float, name: str, value: float) -> None:
    """NumericalError where an intermediate such as ``(U+kappa)^2`` overflowed into ``value``."""
    if not math.isfinite(value):
        raise NumericalError(f"energy U={U!r} is out of range: {name} = {value}")


def _margin_root(U: float, p: ModelParams, c: CostWeights) -> float:
    """The margin equation's root in ``d = g - (mu_x*kappa)^2`` (see ``boundary``)."""
    kappa = p.kappa
    A = U + kappa
    scale = 2.0 * p.sigma**2 * A
    mk = p.mu_x * kappa
    mk2 = mk * mk
    if not math.isfinite(mk2):
        raise NumericalError(f"(mu_x*kappa)^2 overflows a float: mu_x={p.mu_x!r}, kappa={kappa!r}")
    shift = p.mu_x * mk * U  # mu_x^2*kappa*U: logL = half_log + (d - shift)/scale
    c0, c1, ce = c.c0, c.c1, c.ce

    if ce == 0.0:
        # Closed form: the margin equation is purely exponential in d.
        ratio = c0 / c1  # may under- or overflow; only then is its log split
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(c0) - math.log(c1)
        return scale * (log_ratio + 0.5 * math.log(A / kappa)) + shift

    _check_log_domain(U, kappa, A, scale)
    beta = ce / (A * A)
    c1_d = c1 + beta * mk2  # the weight c1 + ce*g/A^2 is c1_d + beta*d
    log_c0 = math.log(c0)
    half_log = 0.5 * math.log(kappa / A)

    def excess(d: float) -> float:
        # log of the margin equation's right side minus log c0; strictly
        # increasing where the weight is positive.
        w = c1_d + beta * d
        if w <= 0.0:
            return -math.inf
        return half_log + (d - shift) / scale + math.log(w) - log_c0

    lo = -(A * A) * c1 / ce - mk2  # weight vanishes here, so the right side is 0
    hi = 0.0
    span = scale
    for _ in range(_MAX_STEPS):
        if excess(hi) >= 0.0:
            break
        hi += span
        span *= 2.0
        if hi == math.inf:
            raise NumericalError(f"no upper bracket for the margin root at U={U}")

    xtol = _G_ROOT_XTOL * min(1.0, scale)
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol:
            break
    else:
        raise NumericalError(f"margin root bisection did not converge at U={U}")
    return 0.5 * (lo + hi)


def boundary(U: float, p: ModelParams, c: CostWeights) -> tuple[float, float, float]:
    """Margin root g(U) and the region (-inf,-V1] u [V2,inf) it fixes, as ``(g, V1, V2)``.

    Solves ``c0 = sqrt(kappa/A) * exp((d - mu_x^2*kappa*U)/(2*sigma^2*A)) * (c1
    + ce*(d + (mu_x*kappa)^2)/A^2)``, ``A = U + kappa``, for d, the value of
    ``V^2 + 2*mu_x*kappa*V`` at the decision boundary, and returns ``g = d +
    (mu_x*kappa)^2``, that of ``(V + mu_x*kappa)^2``; both may be negative.
    For ce = 0 the closed form is used; otherwise the right side is strictly
    increasing in d above ``-A^2*c1/ce - (mu_x*kappa)^2`` and a bracketed
    bisection is run to tolerance ``1e-10*min(1, 2*sigma^2*A)``, relative to
    the scale the root grows with, or to adjacent floats.

    The margin is nonpositive on the region, with ``V1 = sqrt(max(g,0)) +
    mu_x*kappa`` and ``V2 = sqrt(max(g,0)) - mu_x*kappa``; when g <= 0 the two
    tails meet and the region is the whole line.  The near one is
    ``d/(sqrt(g) + |mu_x|*kappa)`` where it would cancel.  NumericalError: a
    root that is not finite, where ``(mu_x*kappa)^2``, ``A/kappa`` or ``A^2``
    overflows, and a scale ``2*sigma^2*A`` that rounds to 0 or overflows.
    """
    _check_energy(U)
    d = _margin_root(U, p, c)
    mk = p.mu_x * p.kappa
    g = d + mk * mk
    _check_finite(U, "margin root g", g)
    root = math.sqrt(g) if g > 0.0 else 0.0
    far = root + abs(mk)
    # root - |mk| cancels where |mk| is over half of root; d/(root + |mk|) does not
    near = d / far if 0.0 < root < 2.0 * abs(mk) else root - abs(mk)
    return (g, far, near) if mk >= 0.0 else (g, near, far)


def g_limits(p: ModelParams, c: CostWeights) -> tuple[float, float]:
    """Exact value at zero energy and the infinite-energy limit of G."""
    G0 = min(c.c0 - c.c1 - c.ce * p.mu_x**2, 0.0)
    Ginf = -c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2)
    return G0, Ginf


def threshold_target(C: float, p: ModelParams, c: CostWeights) -> float:
    """The value ``C - c1 - ce*(mu_x^2 + sigma_x^2)`` that G takes at the threshold for level C."""
    return C - c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2)


def combined_cost(G: float, p: ModelParams, c: CostWeights) -> float:
    """Combined cost ``G + c1 + ce*(mu_x^2 + sigma_x^2)`` of a test with G value ``G``."""
    return G + c.c1 + c.ce * (p.mu_x**2 + p.sigma_x**2)


def predicted_cost(U_T: float, p: ModelParams, c: CostWeights) -> float:
    """Combined cost attained by the optimal triplet at terminal energy U_T."""
    return combined_cost(g_eval(U_T, p, c), p, c)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    return x * ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
                  + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
                + 5.55923013010394962768e4) / (
        ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
          + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z
        + 4.92673942608635921086e4)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= 0: exp(-x^2) P(x) / Q(x), split at x = 8."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = x * x
    if z > _MAXLOG:
        return 0.0
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x
                   + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x
                 + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
               + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
               + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
             + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x
               + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
             + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    return math.exp(-z) * p / q


def ndtr(a: float) -> float:
    """Standard normal cdf; equals ``scipy.special.ndtr(a)`` bit for bit (a NaN stays NaN)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def g_eval(U: float, p: ModelParams, c: CostWeights) -> float:
    """Closed-form value of G(U), over the optimal region at U.

    At U = 0 the null law of V is a point mass and the exact limit
    ``min(c0 - c1 - ce*mu_x^2, 0)`` is returned, as it is at an energy so
    small that ``U*(U+kappa)`` underflows.  Otherwise it is
    ``g_eval_region`` at ``boundary``'s region.
    """
    _check_energy(U)
    if U * (U + p.kappa) == 0.0:
        return g_limits(p, c)[0]
    return g_eval_region(U, *boundary(U, p, c)[1:], p, c)


def g_eval_region(U: float, V1: float, V2: float, p: ModelParams, c: CostWeights) -> float:
    """Closed-form value at energy U of G over a given region (-inf,-V1] u [V2,inf).

    The integral over the region is assembled from Gaussian tail
    probabilities and the first two truncated moments of the unit normal,
    using that V has null law ``N(0, sigma^2 U)`` and marginal alternative
    law ``N(mu_x U, sigma_x^2 U (U+kappa))``.  Needs a finite U with
    ``U*(U+kappa) > 0`` and a valid region, ``V1 + V2 >= 0``, since overlapping
    tails would count twice.  NumericalError: a value that is not finite, e.g.
    where ``U*(U+kappa)`` overflows.
    """
    A = U + p.kappa
    if not (math.isfinite(U) and U * A > 0.0):
        raise ValueError(f"G over a region needs a finite U with U*(U+kappa) > 0, got {U!r}")
    if not V1 + V2 >= 0.0:
        raise ValueError(f"a region needs V1 + V2 >= 0, got V1={V1!r}, V2={V2!r}")
    mu = p.mu_x
    s0 = p.sigma * math.sqrt(U)
    s1 = p.sigma_x * math.sqrt(U * A)

    false_alarm = ndtr(-V1 / s0) + ndtr(-V2 / s0)

    # Standardize the alternative law of V; the region maps to Z <= a or Z >= b.
    a = (-V1 - mu * U) / s1
    b = (V2 - mu * U) / s1
    phi_a = _norm_pdf(a)
    phi_b = _norm_pdf(b)
    cdf_a = ndtr(a)
    sf_b = ndtr(-b)
    tail_p = cdf_a + sf_b
    tail_z = phi_b - phi_a
    tail_z2 = (cdf_a - a * phi_a) + (sf_b + b * phi_b)

    # E[((V + mu*kappa)/A)^2 ; region] with V + mu*kappa = mu*A + s1*Z.
    r = s1 / A
    shrunk_second_moment = mu * mu * tail_p + 2.0 * mu * r * tail_z + r * r * tail_z2

    G = c.c0 * false_alarm - c.c1 * tail_p - c.ce * shrunk_second_moment
    _check_finite(U, "G", G)
    return G


def g_eval_quadrature(U: float, p: ModelParams, c: CostWeights, tol: float = _QUAD_TOL) -> float:
    """Adaptive-quadrature evaluation of G(U), the cross-checking oracle.

    Integrates the negative part of the decision margin against the null
    density of V directly, in the standardized variable z = V/(sigma*sqrt(U)),
    over the region's part of a finite core around the region endpoints and
    both Gaussian peaks.  Raises QuadratureNonConvergence if an interval's
    error estimate is negative or not finite, if their sum exceeds ``tol``,
    or if the value lies below G's infinite-energy limit by more than
    ``tol``, that sum and a rounding allowance.
    """
    return g_eval_quadrature_region(U, *boundary(U, p, c)[1:], p, c, tol)


def g_eval_quadrature_region(U: float, V1: float, V2: float, p: ModelParams,
                             c: CostWeights, tol: float = _QUAD_TOL) -> float:
    """``g_eval_quadrature``'s integral over a given region (-inf,-V1] u [V2,inf).

    The integrand is the negative part of the decision margin, so the result
    is G(U) only where the margin is nonpositive on the whole region, as it is
    on ``boundary``'s region; ``g_eval_region`` is exact for any region.
    """
    import scipy.integrate  # not at module level: SciPy is ~half of a cold start

    if not (math.isfinite(U) and U > 0):
        raise ValueError(f"quadrature needs U > 0, got {U!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    kappa = p.kappa
    A = U + kappa
    mu = p.mu_x
    s0 = p.sigma * math.sqrt(U)
    two_s2A = 2.0 * p.sigma**2 * A
    _check_log_domain(U, kappa, A, two_s2A)
    half_log = 0.5 * math.log(kappa / A)
    c0, c1, ce, mu_kappa = c.c0, c.c1, c.ce, mu * kappa
    two_mk, shift = 2.0 * mu_kappa, mu * mu_kappa * U  # logL's exponent as in _margin_root
    exp = math.exp

    def integrand(z: float) -> float:
        v = z * s0
        half_z2 = 0.5 * z * z  # exact: (-0.5 * z) * z == -((0.5 * z) * z)
        val = (c0 * exp(-half_z2) - (c1 + ce * ((v + mu_kappa) / A) ** 2)
               * exp(half_log + (v * (v + two_mk) - shift) / two_s2A - half_z2)) / _SQRT_2PI
        return val if val < 0.0 else 0.0

    z_left = -V1 / s0
    z_right = V2 / s0
    # Beyond this halfwidth of their peaks both Gaussian factors underflow in
    # exact arithmetic, so the core holds all of G; in floats the integrand
    # out there can be noise (log LR and z^2/2 cancel), so it is not integrated.
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
        try:
            # epsabs stays tol/4, as with four intervals: G_quadrature's bytes depend on it
            result = scipy.integrate.quad(
                integrand, lo, hi, epsabs=tol / 4.0, epsrel=1e-12, limit=300,
                points=inner or None, full_output=1,
            )
        except OverflowError as exc:
            # log LR - z^2/2 is <= 0 in exact arithmetic only; with a large
            # mu_x*kappa it rounds past exp's range
            raise QuadratureNonConvergence(
                f"quadrature integrand overflows on [{lo}, {hi}] at U={U}: {exc}"
            ) from exc
        # QUADPACK can also return a negative error estimate without a message
        if len(result) > 3 or not 0.0 <= result[1] < math.inf:
            why = result[3] if len(result) > 3 else f"error estimate {result[1]:.3e}"
            raise QuadratureNonConvergence(f"quadrature failed on [{lo}, {hi}] at U={U}: {why}")
        return result[0], result[1]

    total = 0.0
    err = 0.0
    for lo, hi in ((core_lo, z_left), (z_right, core_hi)):
        val, abserr = _quad(lo, hi)
        total += val
        err += abserr
    if err > tol:
        raise QuadratureNonConvergence(
            f"quadrature error estimate {err:.3e} exceeds tol {tol:.3e} at U={U}"
        )
    # The negative part's integral over any region is at least G(U), which is
    # at least G's infinite-energy limit; a total below it is rounding noise
    # that the error estimate missed (e.g. a cancelling exponent in a wide core).
    floor = g_limits(p, c)[1]
    if total < floor - (tol + err + 1e-12 * abs(floor)):
        raise QuadratureNonConvergence(
            f"quadrature value {total:.3e} lies below G's infinite-energy limit "
            f"{floor:.3e} at U={U}"
        )
    return total


def g_point(U: float, p: ModelParams, c: CostWeights) -> tuple[float, float, float, float]:
    """One G-table row at energy U: ``boundary``'s ``(g, V1, V2)`` and G there, as ``g_eval``."""
    g, V1, V2 = boundary(U, p, c)
    G = g_limits(p, c)[0] if U * (U + p.kappa) == 0.0 else g_eval_region(U, V1, V2, p, c)
    return g, V1, V2, G


def stopping_rule(C: float, p: ModelParams, c: CostWeights) -> Calibration:
    """The rule for constraint level C, with gamma left unsolved.

    For ``C >= C_max`` no observation is needed and the rule carries the
    prior decision.  Otherwise it carries none, and ``gamma`` and ``G`` are None.
    Checks only C's range: whether C determines a threshold, ``_bisect`` checks.
    """
    if not is_finite_real(C) or C <= 0:
        raise ConfigError(f"infeasible constraint: C must be a positive finite real, got {C!r}")

    c_max = admissible_cost_bound(p, c)
    if C >= c_max:
        if c.c0 <= c.c1 + c.ce * p.mu_x**2:
            return Calibration(C=C, decision=Hypothesis.H1)
        return Calibration(C=C, decision=Hypothesis.H0)
    return Calibration(C=C)


def _bisect(C: float, p: ModelParams, c: CostWeights,
            settled: Callable[[float, float], bool] | None = None) -> tuple[float, float]:
    """The threshold of a ``stopping_rule`` without a prior decision, and G there.

    Doubles the upper bracket end from 1 until ``G(hi) <= target``, then
    bisects ``(lo, hi]``, which holds gamma throughout.  It stops at a
    midpoint within ``1e-12*min(1, C_max)`` of the target (``C_max = G(0) -
    G(inf)``, the range G falls through, so the stop scales with it) or at
    adjacent floats, and checks the accepted residual.  G is kept at every
    candidate, so the accepted gamma's is not recomputed.

    ``settled(lo, hi)`` is asked before each halving; where it holds, the
    bracket's ``(hi, G(hi))`` is returned instead.  Up to that point the
    bisection solves the same energies, in the same order, as without it.
    NumericalError: C so small that the target rounds to G's infinite-energy limit.
    """
    target = threshold_target(C, p, c)
    if target <= g_limits(p, c)[1]:  # C is lost in rounding: G is flat there
        raise NumericalError(f"threshold not determined: C={C!r} gives target {target!r}, "
                             "which rounds to G's infinite-energy limit")
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_STEPS):
        G_hi = g_eval(hi, p, c)
        if G_hi <= target:
            break
        lo = hi
        hi *= 2.0
        if hi == math.inf:  # g_eval raises first, where U*(U+kappa) overflows
            raise NumericalError(f"no upper bracket for the threshold at C={C}")

    scale = c.c0 + c.c1 + c.ce * (p.mu_x**2 + p.sigma_x**2)
    early = _GAMMA_RESIDUAL_TOL * min(1.0, admissible_cost_bound(p, c))
    for _ in range(_MAX_STEPS):
        if settled is not None and settled(lo, hi):
            return hi, G_hi
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            gamma, G = hi, G_hi
            break
        G = g_eval(mid, p, c)
        if abs(G - target) <= early:
            gamma = mid
            break
        if G > target:
            lo = mid
        else:
            hi, G_hi = mid, G
    else:
        raise NumericalError(f"threshold bisection did not converge at C={C}")

    if abs(G - target) > max(_GAMMA_RESIDUAL_MAX, _GAMMA_RESIDUAL_REL * scale):
        raise NumericalError(
            f"threshold bisection stalled at gamma={gamma} with residual above tolerance"
        )
    return gamma, G


def solve_gamma(C: float, p: ModelParams, c: CostWeights) -> Calibration:
    """Calibrate the energy threshold for combined-cost level C.

    ``stopping_rule`` with, where it has no prior decision, the unique
    ``gamma > 0`` with ``G(gamma) = threshold_target(C)``, found by doubling
    the upper bracket until it straddles the target and bisecting; strict
    monotonicity of G guarantees the bracket.  The bisection stops within
    ``1e-12*min(1, C_max)`` of the target, or at adjacent floats, and the
    accepted root satisfies ``|G(gamma) - target| <= max(1e-10, 1e-13*S)``,
    with S the cost scale ``c0 + c1 + ce*(mu_x^2 + sigma_x^2)``.
    NumericalError: C so small that the target rounds to G's infinite-energy
    limit, where no gamma is determined.
    """
    rule = stopping_rule(C, p, c)
    if rule.decision is not None:
        return rule
    gamma, G = _bisect(C, p, c)
    return Calibration(C=C, gamma=gamma, G=G)


def threshold_bound(energy: np.ndarray, C: float, p: ModelParams, c: CostWeights) -> float:
    """A threshold that splits the nondecreasing ``energy`` exactly where gamma does.

    The bisection of ``solve_gamma`` at level C, for a rule that observes, stopped
    as soon as the first energy above its lower end ``lo`` is at or above its
    upper end ``hi``: every energy then lies on the same side of ``hi`` as of
    gamma, so the first index reaching either is the same.  Where no energy
    exceeds ``lo`` it runs to the end and returns gamma itself.
    """
    def settled(lo: float, hi: float) -> bool:
        inside = np.searchsorted(energy, lo, side="right")
        return inside < len(energy) and energy[inside] >= hi

    return _bisect(C, p, c, settled)[0]
