import itertools
import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from seqjde import (
    CostWeights,
    Hypothesis,
    ModelParams,
    engine,
    gfunc,
    run_sequential,
    solve_gamma,
    stats,
)
from seqjde.errors import ConfigError, NumericalError, QuadratureNonConvergence
from seqjde.gfunc import (
    Calibration,
    boundary,
    g_eval,
    g_eval_quadrature,
    g_eval_region,
    g_limits,
    g_point,
    stopping_rule,
    threshold_bound,
)
from seqjde.model import admissible_cost_bound
from seqjde.stats import SufficientStats, log_likelihood_ratio

REF_P = ModelParams(0.0, 1.0, 1.0)
REF_C = CostWeights(1.0, 1.0, 1.0)

COST_CONFIGS = [
    (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0)),
    (ModelParams(1.0, 1.0, 1.0), CostWeights(2.0, 0.5, 1.0)),
    (ModelParams(-0.7, 1.5, 0.8), CostWeights(1.0, 1.0, 0.0)),
    (ModelParams(0.5, 0.8, 1.2), CostWeights(0.6, 0.1, 2.5)),
]
# tools/byte_matrix.py's four models and three cost sets, and energies across G's range
MATRIX_CONFIGS = [
    (ModelParams(*model), CostWeights(*costs))
    for model in ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 0.8, 1.2), (-0.3, 1.5, 0.7))
    for costs in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.2, 5.0))
]
MATRIX_ENERGIES = np.logspace(-2, 3, 11).tolist()
# the same configs at a noise scale far below 1, where an absolute tolerance on
# the margin root is coarse against its scale 2*sigma^2*(U+kappa)
SCALED_NOISE_CONFIGS = [(replace(p, sigma=a * p.sigma), c)
                        for a in (1e-3, 1e-10) for p, c in COST_CONFIGS]


# float.hex of g_eval_quadrature(U, p, c) at its default tol: 4 models x 3
# cost sets x QUADRATURE_PIN_ENERGIES.  The eight sets with mu_x != 0 that moved
# were re-pinned when the integrand's exponent took the shifted form
# (V*(V + 2*mu_x*kappa) - mu_x^2*kappa*U)/(2*sigma^2*A), with no prior term;
# every point stays within 7.5e-11 of the 80-digit G, where tol is 1e-9
QUADRATURE_PIN_ENERGIES = [0.01, 1.0, 50.0, 1e4]
QUADRATURE_PINS = [
    ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0),
     ['-0x1.751242a21c106p-7', '-0x1.40cb3da07a06ep-1', '-0x1.b5782c67e6264p+0', '-0x1.f928a39c9e12ep+0']),
    ((0.0, 1.0, 1.0), (1.0, 1.0, 0.0),
     ['-0x1.3b94765aff4acp-9', '-0x1.541966d8c1e77p-3', '-0x1.77c6539409f30p-1', '-0x1.f25f5ba742964p-1']),
    ((0.0, 1.0, 1.0), (1.0, 0.2, 5.0),
     ['-0x1.9926d648eb25ap-17', '-0x1.0ae3ed5c8dc0bp+1', '-0x1.3f4710d9e5c28p+2', '-0x1.4c6094ff9cbfcp+2']),
    ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0),
     ['-0x1.028901d379f04p+0', '-0x1.c31cc238c067dp+0', '-0x1.663fa09696710p+1', '-0x1.7dd419a826434p+1']),
    ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0),
     ['-0x1.464507faa7341p-5', '-0x1.61ef79778f686p-2', '-0x1.a572df7692de5p-1', '-0x1.f75e3247f3458p-1']),
    ((1.0, 1.0, 1.0), (1.0, 0.2, 5.0),
     ['-0x1.0ff7e3bb430e2p+2', '-0x1.c28d023e21238p+2', '-0x1.40b927943ffd7p+3', '-0x1.4642e5767dff3p+3']),
    ((0.5, 0.8, 1.2), (1.0, 1.0, 1.0),
     ['-0x1.02ebce07809c5p-2', '-0x1.25a6c735fa98cp-1', '-0x1.8ad91b8de2181p+0', '-0x1.db8e0a81eb6c5p+0']),
    ((0.5, 0.8, 1.2), (1.0, 1.0, 0.0),
     ['-0x1.10687e1d98ad2p-6', '-0x1.553ac71bacdeap-3', '-0x1.6029eba95a956p-1', '-0x1.ef827c2d22b7ep-1']),
    ((0.5, 0.8, 1.2), (1.0, 0.2, 5.0),
     ['-0x1.e15e2bd45c520p-2', '-0x1.cad86cf5f8e2bp+0', '-0x1.177040e87af05p+2', '-0x1.2913c811ae3f2p+2']),
    ((-0.3, 1.5, 0.7), (1.0, 1.0, 1.0),
     ['-0x1.945ca442d268fp-3', '-0x1.226dc602835cap+1', '-0x1.982a50e9d3f4dp+1', '-0x1.a9d92e2c71617p+1']),
    ((-0.3, 1.5, 0.7), (1.0, 1.0, 0.0),
     ['-0x1.3a4fa7ec707d3p-6', '-0x1.9a5bbd726bd00p-2', '-0x1.b8a822e08d008p-1', '-0x1.f956f0ad84204p-1']),
    # U = 0.01 re-pinned from -0x1.fd526a1250fb4p-2 when the margin root's
    # tolerance became relative to its scale 2*sigma^2*(U+kappa) = 0.48: 3.4e-17
    # from the 80-digit G, where the old bits were 1.4e-16 from it
    ((-0.3, 1.5, 0.7), (1.0, 0.2, 5.0),
     ['-0x1.fd526a1250fb6p-2', '-0x1.2ab3bd8332f76p+3', '-0x1.799f50c4594eep+3', '-0x1.7cb2cb8d76da4p+3']),
]


def margin_rhs(g, U, p, c):
    """Right side of the margin equation, evaluated directly in linear domain."""
    k = p.kappa
    A = U + k
    return (
        math.sqrt(k / A)
        * math.exp(g / (2 * p.sigma**2 * A) - p.mu_x**2 / (2 * p.sigma_x**2))
        * (c.c1 + c.ce * g / A**2)
    )


def oracle_root(U, p, c, tol=1e-12):
    """Independent bracketed bisection on the raw margin equation."""
    k = p.kappa
    A = U + k
    lo = -(A * A) * c.c1 / c.ce if c.ce > 0 else None
    if lo is None:
        # pure-exponential case: expand a two-sided bracket around 0
        lo, hi = 0.0, 0.0
        step = 1.0
        while margin_rhs(lo, U, p, c) > c.c0:
            lo -= step
            step *= 2
        step = 1.0
        while margin_rhs(hi, U, p, c) < c.c0:
            hi += step
            step *= 2
    else:
        hi = max(lo, 0.0)
        step = 1.0
        while margin_rhs(hi, U, p, c) < c.c0:
            hi += step
            step *= 2
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if margin_rhs(mid, U, p, c) < c.c0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def four_interval_quadrature_terms(U, V1, V2, p, c, tol):
    """``(value, abserr)`` of each interval of the four-interval quadrature.

    The oracle's earlier form, kept as a reference: it integrated the two
    infinite tails ``(-inf, core_lo)`` and ``(core_hi, inf)`` besides the two
    core intervals, with the integrand's terms named, and raised
    QuadratureNonConvergence on any interval's failure or overflow.
    """
    import scipy.integrate

    kappa = p.kappa
    A = U + kappa
    mu = p.mu_x
    s0 = p.sigma * math.sqrt(U)
    two_s2A = 2.0 * p.sigma**2 * A
    half_log = 0.5 * math.log(kappa / A)
    c0, c1, ce, mu_kappa = c.c0, c.c1, c.ce, mu * kappa

    def integrand(z):
        v = z * s0
        log_lr = half_log + (v * (v + 2.0 * mu_kappa) - mu * mu_kappa * U) / two_s2A
        weight = c1 + ce * ((v + mu_kappa) / A) ** 2
        half_z2 = 0.5 * z * z
        margin = c0 * math.exp(-half_z2) - weight * math.exp(log_lr - half_z2)
        val = margin / math.sqrt(2.0 * math.pi)
        return val if val < 0.0 else 0.0

    z_left = -V1 / s0
    z_right = V2 / s0
    hw = 40.0 * (p.sigma_x * math.sqrt(A) / p.sigma) + 40.0
    center = mu * U / s0
    core_lo = min(z_left, center - hw) - 1.0
    core_hi = max(z_right, center + hw) + 1.0
    marks = sorted(
        {0.0, -10.0, 10.0, -41.0, 41.0}
        | {center + f * hw for f in (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)}
    )
    terms = []
    for lo, hi in ((-math.inf, core_lo), (core_lo, z_left),
                   (z_right, core_hi), (core_hi, math.inf)):
        inner = [m for m in marks if lo < m < hi]
        kwargs = {"points": inner} if inner and math.isfinite(lo) and math.isfinite(hi) else {}
        try:
            result = scipy.integrate.quad(integrand, lo, hi, epsabs=tol / 4.0, epsrel=1e-12,
                                          limit=300, full_output=1, **kwargs)
        except OverflowError as exc:
            raise QuadratureNonConvergence(str(exc)) from exc
        if len(result) > 3:
            raise QuadratureNonConvergence(result[3])
        terms.append(result[:2])
    return terms


def four_interval_quadrature_region(U, V1, V2, p, c, tol):
    """The four-interval quadrature's G: its terms summed in order, with its error check."""
    total = err = 0.0
    for val, abserr in four_interval_quadrature_terms(U, V1, V2, p, c, tol):
        total += val
        err += abserr
    if err > tol:
        raise QuadratureNonConvergence(f"error estimate {err} exceeds {tol}")
    return total


class TestGRoot:
    def test_ce_zero_closed_form_value(self):
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(1.0, 1.0, 0.0)
        assert boundary(1.0, p, c)[0] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_root_zero_at_origin_for_reference(self):
        # e^{g/2} (1 + g) = 1 is solved by g = 0
        assert boundary(0.0, REF_P, REF_C)[0] == pytest.approx(0.0, abs=1e-9)

    def test_bisection_case_against_oracle(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(2.0, 0.5, 1.0)
        g = boundary(3.0, p, c)[0]
        assert g == pytest.approx(oracle_root(3.0, p, c), abs=1e-8)
        assert margin_rhs(g, 3.0, p, c) == pytest.approx(c.c0, abs=1e-9 * c.c0)

    @pytest.mark.parametrize("p, c", COST_CONFIGS + SCALED_NOISE_CONFIGS)
    @pytest.mark.parametrize("U", [0.0, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_residual_on_grid(self, p, c, U):
        g = boundary(U, p, c)[0]
        assert abs(margin_rhs(g, U, p, c) - c.c0) <= 1e-9 * c.c0

    def test_pure_estimation_costs(self):
        # c1 = 0 forces a positive root bracketed from zero
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(1.0, 0.0, 1.0)
        g = boundary(2.0, p, c)[0]
        assert g > 0
        assert margin_rhs(g, 2.0, p, c) == pytest.approx(c.c0, abs=1e-9)

    def test_invalid_costs(self):
        # refused where the weights are made, so no root ever sees them
        with pytest.raises(ValueError, match="c0 must be positive"):
            boundary(1.0, REF_P, CostWeights(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="c1 and ce cannot both be zero"):
            boundary(1.0, REF_P, CostWeights(1.0, 0.0, 0.0))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            boundary(-1.0, REF_P, REF_C)

    def test_energy_too_large_for_kappa(self):
        # kappa/(U+kappa) is a denormal for kappa = 1e-160 at U = 1e150, which is
        # not refused, and 0 for kappa = 1e-140 at U = 1e300, where its log is
        # undefined
        # (c1 = 0 puts the bisection's lower end at 0, where it converges)
        g = boundary(1e150, ModelParams(0.0, 1.0, 1e-80), CostWeights(1.0, 0.0, 1.0))[0]
        assert 0.0 < g < 1.0
        p = ModelParams(0.0, 1.0, 1e-70)
        with pytest.raises(NumericalError, match=r"U=1e\+300"):
            boundary(1e300, p, REF_C)
        # the ce = 0 closed form has no log(kappa/A), but the quadrature does
        with pytest.raises(NumericalError, match=r"U=1e\+300"):
            g_eval_quadrature(1e300, p, CostWeights(1.0, 1.0, 0.0))

    def test_overflowing_root_is_refused(self):
        # kappa = 1e-140 at U = 1e170: (U+kappa)/kappa overflows in the ce = 0
        # closed form (g = inf) and (U+kappa)^2 in the bisection's bracket
        # (g = -inf); G is nan at both
        p = ModelParams(0.0, 1.0, 1e-70)
        for c, g in ((CostWeights(1.0, 1.0, 0.0), "inf"), (REF_C, "-inf")):
            with pytest.raises(NumericalError, match=rf"U=1e\+170 .* g = {g}$"):
                boundary(1e170, p, c)
            with pytest.raises(NumericalError, match=r"U=1e\+170 "):
                g_eval(1e170, p, c)

    @pytest.mark.parametrize("c0, c1", [(1e-200, 1e200), (1e200, 1e-200), (5e-324, 3.0)])
    def test_ce_zero_cost_ratio_out_of_range(self, c0, c1):
        # c0/c1 underflows to 0 (log(0) raised) or overflows to inf (g was inf);
        # the closed form then takes log(c0) - log(c1)
        c = CostWeights(c0, c1, 0.0)
        for U in (0.0, 1.0, 50.0):
            A = U + 1.0
            g = boundary(U, REF_P, c)[0]
            expect = 2.0 * A * (math.log(c0) - math.log(c1) + 0.5 * math.log(A))
            assert g == pytest.approx(expect, rel=1e-14)
            # the margin equation in log form
            assert 0.5 * math.log(1.0 / A) + g / (2.0 * A) + math.log(c1) == pytest.approx(
                math.log(c0), rel=1e-12)
        assert math.isfinite(g_eval(1.0, REF_P, c))

    def test_cost_ratio_in_range_keeps_the_ratio(self):
        # a denormal but nonzero c0/c1 still goes through log(c0/c1), bit for bit
        c = CostWeights(1e-300, 1e10, 0.0)
        assert boundary(1.0, REF_P, c)[0] == 4.0 * (math.log(c.c0 / c.c1) + 0.5 * math.log(2.0))

    def test_wide_bracket_bisects_to_the_root(self):
        # kappa = 1e-160 at U = 1e150 puts the bracket's lower end at -1e300:
        # 500 halvings stopped at g = -1.5e149 (log residual -7.6e158), and G
        # took the whole-line value -1
        U, p = 1e150, ModelParams(0.0, 1.0, 1e-80)
        g = boundary(U, p, REF_C)[0]
        A = U + p.kappa
        scale = 2.0 * p.sigma**2 * A
        residual = 0.5 * math.log(p.kappa / A) + g / scale + math.log(1.0 + g / (A * A))
        # an error of 1e-10 in g, the bisection's tolerance, moves it by 1e-10/scale
        assert abs(residual) <= 1e-10 / scale
        assert g_eval(U, p, REF_C) == g_limits(p, REF_C)[1] == -2.0

    def test_energy_scale_overflow(self):
        # sigma = 1e77 gives kappa = 1e154, which ModelParams accepts, and
        # 2*sigma^2*(U+kappa) = inf; the bracket doubling divided by it, ran out
        # of steps and reported no upper bracket
        p = ModelParams(0.0, 1.0, 1e77)
        with pytest.raises(NumericalError, match=r"U=1\.0 .* 2\*sigma\^2\*\(U\+kappa\) = inf$"):
            boundary(1.0, p, REF_C)

    def test_root_beyond_the_float_range_has_no_bracket(self):
        # kappa = 1e10 makes mu_x*kappa = 1e155, whose square the root
        # g = d + (mu_x*kappa)^2 needs; it overflows, and is refused before use,
        # naming the inputs that overflow rather than the energy
        p = ModelParams(1e145, 1e-5, 1.0)
        with pytest.raises(NumericalError, match=r"^\(mu_x\*kappa\)\^2 overflows a float: "
                                                 r"mu_x=1e\+145, kappa=[0-9.e+]+$"):
            boundary(1.0, p, REF_C)

    def test_energy_scale_underflow(self):
        # 2*sigma^2*(U+kappa) is a denormal at U = 1 and 0 at U = 1e-10; the root
        # search divides by it
        p = ModelParams(0.0, 1e-80, 1e-160)
        assert math.isfinite(boundary(1.0, p, REF_C)[0])
        with pytest.raises(NumericalError, match=r"U=1e-10 "):
            boundary(1e-10, p, REF_C)


class TestRegion:
    def test_whole_line_when_root_nonpositive(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(0.2, 1.0, 1.0)  # c0 far below c1 pushes g below 0
        g, V1, V2 = boundary(0.5, p, c)
        assert g <= 0
        assert (-V1, V2) == (-p.mu_x * p.kappa, -p.mu_x * p.kappa)

    def test_symmetric_when_mean_zero(self):
        V1, V2 = boundary(1.0, REF_P, REF_C)[1:]
        assert V1 == V2 > 0

    def test_offsets_with_nonzero_mean(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(2.0, 0.5, 1.0)
        g, V1, V2 = boundary(3.0, p, c)
        assert V1 == pytest.approx(math.sqrt(g) + 1.0, rel=1e-12)
        assert V2 == pytest.approx(math.sqrt(g) - 1.0, rel=1e-12)


class TestGLimits:
    @pytest.mark.parametrize(
        "p, c, expected",
        [
            (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0), (0.0, -2.0)),
            (ModelParams(0.0, 1.0, 1.0), CostWeights(0.5, 1.0, 0.0), (-0.5, -1.0)),
            (ModelParams(1.0, 1.0, 1.0), CostWeights(3.0, 1.0, 1.0), (0.0, -3.0)),
        ],
    )
    def test_closed_forms(self, p, c, expected):
        assert g_limits(p, c) == expected


class TestGEval:
    def test_zero_energy_exact(self):
        assert g_eval(0.0, REF_P, REF_C) == 0.0
        assert g_eval(0.0, ModelParams(1.0, 1.0, 1.0), CostWeights(0.5, 1.0, 1.0)) == -1.5

    def test_whole_line_closed_form(self):
        c = CostWeights(0.5, 1.0, 1.0)
        # g(1) < 0, region covers the line: G = c0 - c1 - ce*U/(U+kappa)
        assert g_eval(1.0, REF_P, c) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "p, c", COST_CONFIGS + [(ModelParams(1.0, 1.0, 1.0), CostWeights(0.2, 1.0, 1.0))]
    )
    def test_whole_line_identity_where_applicable(self, p, c):
        for U in np.logspace(-3, 3, 25):
            U = float(U)
            if boundary(U, p, c)[0] <= 0:
                expect = c.c0 - c.c1 - c.ce * (
                    p.mu_x**2 + p.sigma_x**2 * U / (U + p.kappa)
                )
                assert g_eval(U, p, c) == pytest.approx(expect, abs=1e-10)

    def test_whole_line_regime_reachable(self):
        # cheap false alarms push the root negative at small energies
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(0.2, 1.0, 1.0)
        assert any(boundary(float(U), p, c)[0] <= 0 for U in np.logspace(-3, 3, 25))

    def test_against_quadrature_at_u50(self):
        ge = g_eval(50.0, REF_P, REF_C)
        gq = g_eval_quadrature(50.0, REF_P, REF_C, tol=1e-10)
        assert ge == pytest.approx(gq, abs=1e-8)

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    def test_strictly_decreasing(self, p, c):
        grid = np.logspace(-3, 4, 40)
        vals = [g_eval(float(u), p, c) for u in grid]
        for a, b in zip(vals, vals[1:]):
            assert b < a + 1e-12

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    def test_range_bounds(self, p, c):
        G0, Ginf = g_limits(p, c)
        for u in (0.0, 0.05, 0.8, 3.0, 40.0, 1e4):
            val = g_eval(u, p, c)
            assert Ginf - 1e-12 <= val <= G0 + 1e-12


    def test_non_finite_value_is_refused(self):
        # U*(U+kappa) overflows above U ~ 1.3e154 while the ce = 0 root stays
        # finite: the alternative law's scale is inf and G was nan
        p = ModelParams(0.5, 1.0, 1.0)
        c = CostWeights(1.0, 1.0, 0.0)
        assert g_eval(1e150, p, c) == pytest.approx(-1.0)
        assert math.isfinite(boundary(1e155, p, c)[0])
        with pytest.raises(NumericalError, match=r"U=1e\+155 .* G = nan$"):
            g_eval(1e155, p, c)


class TestGEvalQuadrature:
    def test_matches_whole_line_value(self):
        c = CostWeights(0.5, 1.0, 1.0)
        assert g_eval_quadrature(1.0, REF_P, c, tol=1e-10) == pytest.approx(-1.0, abs=1e-8)

    def test_dirac_limit_near_zero_energy(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(0.5, 1.0, 1.0)
        G0, _ = g_limits(p, c)
        assert g_eval_quadrature(1e-8, p, c, tol=1e-10) == pytest.approx(G0, abs=1e-4)

    def test_large_energy_limit(self):
        _, Ginf = g_limits(REF_P, REF_C)
        assert g_eval_quadrature(1e6, REF_P, REF_C, tol=1e-6) == pytest.approx(
            Ginf, abs=1e-2
        )

    def test_integrand_overflow_is_a_quadrature_failure(self):
        # exp(log_lr - z^2/2) overflows at this mu_x*kappa; it was an
        # OverflowError, which the CLI reported as a config value overflowing
        p = ModelParams(-1.23e9, 1.0, 1.87e-10)
        with pytest.raises(QuadratureNonConvergence, match=r"overflows .* at U=2\.0"):
            g_eval_quadrature(2.0, p, CostWeights(1.37e230, 8.8e-81, 0.0))

    def test_value_below_the_infinite_energy_limit_is_a_quadrature_failure(self):
        # the integrand's exponent cancels two huge terms in this wide core; the
        # total was -4.5e174 with a zero error estimate, below G's limit -4.8e140
        p = ModelParams(1.1852249545775236e-22, 3.3584933399124e+23, 1.0181164410228953e+29)
        c = CostWeights(9.358433318920415e+131, 4.779038261474787e+140, 0.0)
        U = 3.775896748181862e+26
        with pytest.raises(QuadratureNonConvergence, match="below G's infinite-energy limit"):
            gfunc.g_eval_quadrature_region(U, *boundary(U, p, c)[1:], p, c, 1e-9)

    def test_negative_error_estimate_is_a_quadrature_failure(self):
        # QUADPACK returns abserr -1.7e94 on the left core interval here; the
        # negative sum passed the tolerance check and G_quadrature was -9.3e-96
        p = ModelParams(1.2733932891996643e+29, 2.731869096227883e+31, 1.5039447791993765e-45)
        c = CostWeights(7.124807172536587e-49, 11226210.219135704, 0.0)
        U = 1.917644899271261e+54
        with pytest.raises(QuadratureNonConvergence, match=r"error estimate -1\.669e\+94$"):
            gfunc.g_eval_quadrature_region(U, *boundary(U, p, c)[1:], p, c, 1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            g_eval_quadrature(0.0, REF_P, REF_C)
        with pytest.raises(ValueError):
            g_eval_quadrature(1.0, REF_P, REF_C, tol=0.0)

    @pytest.mark.parametrize("model, costs, pins", QUADRATURE_PINS)
    def test_bits_are_pinned(self, model, costs, pins):
        # gtable prints G_quadrature, so a rewrite of the integrand that
        # rounds differently changes its bytes
        p, c = ModelParams(*model), CostWeights(*costs)
        got = [float.hex(g_eval_quadrature(U, p, c)) for U in QUADRATURE_PIN_ENERGIES]
        assert got == pins


class TestQuadratureCore:
    """The oracle integrates only the finite core; the tails beyond it held no G."""

    MODELS = [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (-0.7, 1.5, 0.8), (0.5, 0.8, 1.2),
              (-0.3, 1.5, 0.7), (2.0, 0.5, 3.0)]
    COSTS = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.2, 5.0), (2.0, 0.5, 1.0),
             (0.6, 0.1, 2.5)]

    @staticmethod
    def outcome(quadrature, U, p, c):
        try:
            return float.hex(quadrature(U, *boundary(U, p, c)[1:], p, c, 1e-9))
        except (NumericalError, QuadratureNonConvergence) as exc:
            return type(exc).__name__  # the same failure is the same outcome

    @pytest.mark.parametrize("model", MODELS)
    def test_bits_match_the_four_interval_form(self, model):
        # on moderate inputs both tails were exactly (0.0, 0.0), so dropping
        # them, and naming no term in the integrand, changes no bit
        p = ModelParams(*model)
        for costs, U in itertools.product(self.COSTS, np.logspace(-6, 12, 10).tolist()):
            c = CostWeights(*costs)
            assert (self.outcome(gfunc.g_eval_quadrature_region, U, p, c)
                    == self.outcome(four_interval_quadrature_region, U, p, c)), (costs, U)

    def test_extreme_row_drops_tail_noise(self):
        # beyond the core the float integrand is cancellation noise here: each
        # tail integrates to about -1.6e-66, where the exact tail is below 1e-280
        p = ModelParams(0.0, 9.0e-4, 6.8e-8)
        c = CostWeights(2.0e151, 1.2e-65, 0.0)
        U = 3.8e13
        V1, V2 = boundary(U, p, c)[1:]
        tail_lo, core_left, core_right, tail_hi = (
            val for val, _ in four_interval_quadrature_terms(U, V1, V2, p, c, 1e-9))
        assert tail_lo != 0.0 and tail_hi != 0.0
        assert gfunc.g_eval_quadrature_region(U, V1, V2, p, c, 1e-9) == 0.0 + core_left + core_right


class TestGEvalRegion:
    @pytest.mark.parametrize("p, c", COST_CONFIGS + [
        (ModelParams(*model), CostWeights(*costs)) for model, costs, _ in QUADRATURE_PINS
    ])
    def test_joint_region_costs_no_more_than_separate(self, p, c):
        # the abstract's claim, exactly: at every energy the joint test's
        # region has a G no larger than the separate test's (the ce = 0
        # region), both under the full costs; they coincide where ce = 0
        separate_costs = replace(c, ce=0.0)
        for U in np.logspace(-3, 5, 400).tolist():
            joint = g_eval_region(U, *boundary(U, p, c)[1:], p, c)
            separate = g_eval_region(U, *boundary(U, p, separate_costs)[1:], p, c)
            assert joint == g_eval(U, p, c)
            if c.ce == 0.0:
                assert joint == separate
            else:
                assert joint <= separate

    @pytest.mark.parametrize("p, c", MATRIX_CONFIGS)
    def test_the_region_is_optimal(self, p, c):
        # no valid region (V1 + V2 >= 0) near the optimal one has a smaller G
        rng = np.random.default_rng(25)
        slack = 1e-12 * max(1.0, admissible_cost_bound(p, c))
        for U in MATRIX_ENERGIES:
            G, (V1, V2) = g_eval(U, p, c), boundary(U, p, c)[1:]
            for scale in (1e-3, 1e-1, 1.0):
                for d1, d2 in rng.normal(0.0, scale * p.sigma * math.sqrt(U), size=(8, 2)):
                    if V1 + d1 + V2 + d2 >= 0.0:
                        assert g_eval_region(U, V1 + d1, V2 + d2, p, c) >= G - slack

    @pytest.mark.parametrize("p, c", MATRIX_CONFIGS)
    def test_slope_is_the_slope_at_a_fixed_region(self, p, c):
        # the envelope theorem: moving the optimal region with U does not change dG/dU
        for U in MATRIX_ENERGIES:
            h, fixed = 1e-4 * U, boundary(U, p, c)[1:]
            full = (g_eval(U + h, p, c) - g_eval(U - h, p, c)) / (2 * h)
            frozen = (g_eval_region(U + h, *fixed, p, c)
                      - g_eval_region(U - h, *fixed, p, c)) / (2 * h)
            assert full == pytest.approx(frozen, rel=1e-6, abs=0.0), U

    @pytest.mark.parametrize("U", [0.0, 5e-324, math.inf, math.nan])
    def test_needs_positive_variance(self, U):
        p = ModelParams(0.0, 1.0, 1e-5)  # U*(U+kappa) underflows at U = 5e-324
        with pytest.raises(ValueError):
            g_eval_region(U, 1.0, 1.0, p, REF_C)

    def test_overlapping_tails_are_refused(self):
        # (-inf, 1] u [-1, inf) counted [-1, 1] twice: -0.378 at U = 1, where
        # the whole line, (0, 0), gives -0.5
        assert g_eval_region(1.0, 0.0, 0.0, REF_P, REF_C) == pytest.approx(-0.5)
        with pytest.raises(ValueError, match=r"V1 \+ V2 >= 0, got V1=-1\.0, V2=-1\.0$"):
            g_eval_region(1.0, -1.0, -1.0, REF_P, REF_C)


class TestWorkCounts:
    """Each energy's margin root is solved once; nothing is memoised between calls."""

    def test_module_keeps_no_memo(self):
        assert [name for name, v in vars(gfunc).items() if hasattr(v, "cache_info")] == []

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    def test_g_point_and_g_eval_solve_one_root(self, root_solves, p, c):
        g_point(2.0, p, c)
        assert root_solves == [2.0]
        g_eval(2.0, p, c)
        assert root_solves == [2.0, 2.0]

    @pytest.mark.parametrize("C", [0.2, 1.0, 1.5, 1.9])
    def test_solve_gamma_solves_each_energy_once(self, root_solves, C):
        # the final residual check reuses G at the accepted gamma
        cal = solve_gamma(C, REF_P, REF_C)
        assert cal.gamma in root_solves
        assert len(root_solves) == len(set(root_solves))


# gamma at C = 0.5*C_max with sigma = 1 once the amplitude is known, for
# (mu_x, costs); the nearly known amplitude sigma_x <= 1e-6 must reach it
KNOWN_AMPLITUDE_GAMMAS = [
    (1.0, (1.0, 1.0, 1.0), 3.2613733381731436),
    (-0.3, (1.0, 1.0, 1.0), 22.24417111487128),
    (1.0, (1.0, 0.2, 5.0), 5.2076472436019685),
    (-0.3, (1.0, 0.2, 5.0), 30.230873185908422),
]
NEAR_SIGMA_X = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
# float.hex of the near endpoint sqrt(g) - |mu_x|*kappa of boundary(3.0)[1:] at
# costs 1/1/0 and sigma = 1, for each of NEAR_SIGMA_X: mpmath at 80 digits of
# g = A*ln(A/kappa) + mu_x^2*kappa*A, A = 3 + kappa, kappa = 1/sigma_x^2
NEAR_ENDPOINT_PINS = {
    1.0: ['0x1.8002756dbaf79p+0', '0x1.800000101b2b3p+0', '0x1.8000000000699p+0',
          '0x1.8000000000000p+0', '0x1.8000000000000p+0'],
    -0.3: ['0x1.cd4706a504121p-2', '0x1.cccccfedcfb80p-2', '0x1.cccccccce14e5p-2',
           '0x1.cccccccccccd5p-2', '0x1.ccccccccccccdp-2'],
}


class TestNearlyKnownAmplitude:
    """sigma_x << |mu_x|: kappa is huge, and the test tends to the known-amplitude one.

    The endpoint sqrt(g) - |mu_x|*kappa cancelled there: at sigma_x = 1e-10
    gamma was 96 or 768 on these pairs, or a NumericalError.
    """

    @pytest.mark.parametrize("sigma_x", [1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("mu_x, costs, gamma", KNOWN_AMPLITUDE_GAMMAS)
    def test_gamma_takes_the_known_amplitude_value(self, mu_x, costs, gamma, sigma_x):
        p, c = ModelParams(mu_x, sigma_x, 1.0), CostWeights(*costs)
        assert solve_gamma(0.5 * admissible_cost_bound(p, c), p, c).gamma == pytest.approx(
            gamma, rel=1e-9)

    def test_detection_threshold_is_the_known_amplitude_one(self):
        # this input stalled at gamma = 24576 with a residual of 0.5; with x = 1
        # known, the test at V = U/2 errs with probability Q(sqrt(U)/2) under
        # either hypothesis, so C = 2*Q(sqrt(gamma)/2)
        p, c = ModelParams(1.0, 1e-10, 1.0), CostWeights(1.0, 1.0, 0.0)
        C = 0.01 * admissible_cost_bound(p, c)
        expect = (2.0 * NormalDist().inv_cdf(1.0 - C / 2.0)) ** 2
        assert solve_gamma(C, p, c).gamma == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("mu_x", sorted(NEAR_ENDPOINT_PINS))
    def test_near_endpoint_matches_80_digits(self, mu_x):
        for sigma_x, pin in zip(NEAR_SIGMA_X, NEAR_ENDPOINT_PINS[mu_x]):
            V1, V2 = boundary(3.0, ModelParams(mu_x, sigma_x, 1.0), CostWeights(1.0, 1.0, 0.0))[1:]
            want = float.fromhex(pin)
            assert abs((V2 if mu_x > 0 else V1) - want) <= 4 * math.ulp(want), sigma_x


def old_margin_root(U, p, c):
    """The margin root in g, with the prior term, as solved before the shifted d."""
    kappa = p.kappa
    A = U + kappa
    scale = 2.0 * p.sigma**2 * A
    prior_term = p.mu_x**2 / (2.0 * p.sigma_x**2)
    c0, c1, ce = c.c0, c.c1, c.ce
    if ce == 0.0:
        ratio = c0 / c1
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(c0) - math.log(c1)
        return scale * (log_ratio + prior_term + 0.5 * math.log(A / kappa))
    beta = ce / (A * A)
    log_c0 = math.log(c0)
    half_log = 0.5 * math.log(kappa / A)

    def excess(g):
        w = c1 + beta * g
        if w <= 0.0:
            return -math.inf
        return half_log + g / scale - prior_term + math.log(w) - log_c0

    lo, hi, span = -(A * A) * c1 / ce, 0.0, scale
    while excess(hi) < 0.0:
        hi += span
        span *= 2.0
    xtol = 1e-10 * min(1.0, scale)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def old_log_likelihood_ratio(U, V, p):
    """The log likelihood ratio with the prior term, as computed before the shifted form."""
    k = p.kappa
    a = U + k
    num = V + p.mu_x * k
    log = math.log(k / a) if isinstance(a, float) else np.fromiter(map(math.log, k / a), float)
    return 0.5 * log + num * num / (2.0 * p.sigma**2 * a) - p.mu_x**2 / (2.0 * p.sigma_x**2)


_costs = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@given(mu_x=st.sampled_from([0.0, -0.0]), sigma_x=st.floats(1e-2, 1e2),
       sigma=st.floats(1e-2, 1e2), c0=st.floats(1e-3, 1e3), c1=_costs, ce=_costs,
       history=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(-1e6, 1e6)),
                        min_size=1, max_size=4))
def test_zero_prior_mean_keeps_the_old_bits(mu_x, sigma_x, sigma, c0, c1, ce, history):
    # every term the shifted variable adds is +-0.0 at mu_x = 0, so the
    # benchmark's workloads and m0's byte-matrix configs keep their bytes
    assume(c1 + ce > 0.0)
    p, c = ModelParams(mu_x, sigma_x, sigma), CostWeights(c0, c1, ce)
    U, V = (np.array(column) for column in zip(*history))
    assert (log_likelihood_ratio(SufficientStats(np.arange(len(U)), U, V), p).tobytes()
            == old_log_likelihood_ratio(U, V, p).tobytes())
    for u, v in history:
        assert (float.hex(log_likelihood_ratio(SufficientStats(1, u, v), p))
                == float.hex(old_log_likelihood_ratio(u, v, p)))
        g = old_margin_root(u, p, c)
        root = math.sqrt(g) if g > 0.0 else 0.0
        mk = p.mu_x * p.kappa
        assert float.hex(boundary(u, p, c)[0]) == float.hex(g)
        assert [float.hex(x) for x in boundary(u, p, c)[1:]] == [float.hex(root + mk),
                                                           float.hex(root - mk)]


@given(mu_x=st.floats(-1e2, 1e2), sigma_x=st.floats(1e-2, 1e2), sigma=st.floats(1e-2, 1e2),
       c0=st.floats(1e-3, 1e3), c1=_costs, ce=_costs, U=st.floats(0.0, 1e6))
def test_every_boundary_region_is_valid(mu_x, sigma_x, sigma, c0, c1, ce, U):
    # the tails of (-inf,-V1] u [V2,inf) never overlap, so g_eval_region takes them
    assume(c1 + ce > 0.0)
    V1, V2 = boundary(U, ModelParams(mu_x, sigma_x, sigma), CostWeights(c0, c1, ce))[1:]
    assert V1 + V2 >= 0.0


class TestGPoint:
    @pytest.mark.parametrize("p, c", MATRIX_CONFIGS)
    def test_bundles_consistent_fields(self, p, c):
        # boundary's (g, V1, V2) and g_eval's G, bit for bit
        G0, Ginf = g_limits(p, c)
        for U in MATRIX_ENERGIES + [0.0]:
            row = g_point(U, p, c)
            assert list(map(float.hex, row)) == list(
                map(float.hex, (*boundary(U, p, c), g_eval(U, p, c)))), U
            assert Ginf <= row[3] <= G0

    @pytest.mark.parametrize("U", [0.0, 5e-324])
    def test_zero_variance_energy_takes_the_limit(self, U):
        p = ModelParams(0.0, 1.0, 1e-5)  # U*(U+kappa) underflows at U = 5e-324
        g, _, _, G = g_point(U, p, REF_C)
        assert G == g_eval(U, p, REF_C) == g_limits(p, REF_C)[0]
        assert g == boundary(U, p, REF_C)[0]


class TestSolveGamma:
    def test_stop_at_zero_decides_h1_at_tie(self):
        cal = solve_gamma(2.5, REF_P, REF_C)
        assert cal.decision is Hypothesis.H1
        assert engine.outcome(stats.SufficientStats(), cal, REF_P, REF_C).estimate == 0.0

    def test_stop_at_zero_decides_h0_when_false_alarms_costly(self):
        p = ModelParams(0.5, 1.0, 1.0)
        c = CostWeights(5.0, 1.0, 1.0)
        cal = solve_gamma(100.0, p, c)
        assert cal.decision is Hypothesis.H0
        assert engine.outcome(stats.SufficientStats(), cal, p, c).estimate is None

    def test_boundary_constraint_maps_to_stop_at_zero(self):
        cal = solve_gamma(2.0, REF_P, REF_C)  # C == C_max exactly
        assert cal.decision is not None

    def test_observe_residual(self):
        cal = solve_gamma(1.5, REF_P, REF_C)
        assert cal.decision is None
        target = 1.5 - 1.0 - 1.0
        assert abs(g_eval(cal.gamma, REF_P, REF_C) - target) <= 1e-9

    def test_gamma_bracketed_by_quadrature_scan(self):
        cal = solve_gamma(1.5, REF_P, REF_C)
        target = -0.5
        grid = np.linspace(0.2, 2.0, 46)
        vals = [g_eval_quadrature(float(u), REF_P, REF_C, tol=1e-10) for u in grid]
        above = [u for u, v in zip(grid, vals) if v > target]
        below = [u for u, v in zip(grid, vals) if v < target]
        assert max(above) <= cal.gamma <= min(below)

    def test_gamma_antitone_in_constraint(self):
        gammas = [solve_gamma(C, REF_P, REF_C).gamma for C in (1.9, 1.5, 1.0, 0.5)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_infeasible_constraint(self, bad):
        with pytest.raises(ConfigError):
            solve_gamma(bad, REF_P, REF_C)

    @pytest.mark.parametrize("tiny", [1e-17, 1e-300])
    def test_refuses_target_at_the_limit(self, tiny):
        # the target C - 2 rounds to G's infinite-energy limit -2, where G is flat
        # in floating point: the bisection would report gamma = 1.947e33 with zero residual
        target = tiny - REF_C.c1 - REF_C.ce * (REF_P.mu_x**2 + REF_P.sigma_x**2)
        assert target == g_limits(REF_P, REF_C)[1]
        with pytest.raises(NumericalError, match="not determined"):
            solve_gamma(tiny, REF_P, REF_C)

    def test_residual_above_tolerance_is_refused(self, monkeypatch):
        # a G that jumps across the target between adjacent floats of U below
        # 3.0: the bisection ends there with a residual of 0.5
        target = gfunc.threshold_target(1.5, REF_P, REF_C)
        monkeypatch.setattr(gfunc, "g_eval",
                            lambda U, p, c: target + (0.5 if U < 3.0 else -0.5))
        with pytest.raises(NumericalError, match="threshold bisection stalled at gamma=3.0 "):
            solve_gamma(1.5, REF_P, REF_C)

    @pytest.mark.parametrize("c", [CostWeights(1.0, 1e-9, 0.0), CostWeights(1.0, 1e-6, 0.0),
                                   CostWeights(1e-9, 1.0, 0.0), CostWeights(1.0, 1e-9, 1e-9)])
    def test_early_stop_scales_with_the_range_of_g(self, c):
        # G falls only through C_max = min(c0, c1 + ce*mu_x^2) + ce*sigma_x^2,
        # here far below the cost scale c0 + c1 + ce*(mu_x^2 + sigma_x^2); gamma
        # must still match a bisection of G down to adjacent floats
        p = ModelParams(1.0, 1.0, 1.0)
        C = 0.5 * admissible_cost_bound(p, c)
        target = gfunc.threshold_target(C, p, c)
        lo, hi = 0.0, 1.0
        while g_eval(hi, p, c) > target:
            lo, hi = hi, 2.0 * hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if g_eval(mid, p, c) > target else (lo, mid)
        assert solve_gamma(C, p, c).gamma == pytest.approx(hi, rel=1e-10)

    def test_smallest_resolved_target_still_calibrates(self):
        cal = solve_gamma(1e-14, REF_P, REF_C)
        assert cal.decision is None
        assert cal.gamma == pytest.approx(4.75e29, rel=1e-2)

    def test_ce_zero_pure_detection_threshold(self):
        c = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, REF_P, c)  # C_max = 1
        assert cal.decision is None
        assert abs(g_eval(cal.gamma, REF_P, c) - (0.6 - 1.0)) <= 1e-9

    @pytest.mark.parametrize("C", [0.2, 1.0, 1.5, 1.9, 2.5])
    def test_carries_g_at_gamma(self, C):
        cal = solve_gamma(C, REF_P, REF_C)
        if cal.decision is None:
            assert cal.G == g_eval(cal.gamma, REF_P, REF_C)
        else:
            assert cal.G is None


@pytest.mark.parametrize("p, c", COST_CONFIGS)
@pytest.mark.parametrize("frac", [0.95, 0.3, 0.01])
def test_cost_at_the_threshold_is_C(p, c, frac):
    # threshold_target and combined_cost are the two directions of one identity
    C = frac * admissible_cost_bound(p, c)
    cal = solve_gamma(C, p, c)
    assert abs(cal.G - gfunc.threshold_target(C, p, c)) <= 1e-10
    assert gfunc.predicted_cost(cal.gamma, p, c) == gfunc.combined_cost(cal.G, p, c)
    assert gfunc.combined_cost(gfunc.threshold_target(C, p, c), p, c) == pytest.approx(C, rel=1e-15)


class TestBracketGamma:
    """The threshold bisection, asked before each halving whether its bracket settles."""

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    @pytest.mark.parametrize("frac", [0.95, 0.6, 0.3, 0.05])
    def test_drained_search_is_solve_gamma(self, root_solves, p, c, frac):
        C = frac * admissible_cost_bound(p, c)
        cal = solve_gamma(C, p, c)
        eager = list(root_solves)
        root_solves.clear()
        rule = stopping_rule(C, p, c)
        assert rule.gamma is None and rule.G is None
        assert root_solves == []
        # a path that never reaches gamma settles no bracket
        never = np.array([0.25, 0.5]) * cal.gamma
        assert threshold_bound(never, C, p, c) == cal.gamma
        assert root_solves == eager  # the same energies, in the same order
        assert gfunc._bisect(C, p, c) == (cal.gamma, cal.G)
        assert Calibration(C=C, gamma=cal.gamma, G=cal.G) == cal

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    def test_bracket_holds_gamma_after_every_step(self, p, c):
        C = 0.4 * admissible_cost_bound(p, c)
        gamma = solve_gamma(C, p, c).gamma
        brackets = []

        def recording(lo, hi):
            brackets.append((lo, hi))
            return False

        assert gfunc._bisect(C, p, c, recording)[0] == gamma
        assert len(brackets) > 10
        for step, (lo, hi) in enumerate(brackets):
            assert lo < gamma <= hi
            # settled after this many halvings, it returns the bracket's upper end and G there
            calls = itertools.count()
            settled = lambda lo, hi: next(calls) == step
            assert gfunc._bisect(C, p, c, settled) == (hi, g_eval(hi, p, c))

    def test_prior_regime_has_no_search(self):
        cal = stopping_rule(2.5, REF_P, REF_C)
        assert cal.decision is not None
        assert cal == solve_gamma(2.5, REF_P, REF_C)

    def test_raises_what_solve_gamma_raises(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ConfigError):
                stopping_rule(bad, REF_P, REF_C)
        # a C whose target rounds to G's limit is refused where gamma is solved
        rule = stopping_rule(1e-17, REF_P, REF_C)
        assert rule == Calibration(C=1e-17)
        for solve in (lambda: solve_gamma(1e-17, REF_P, REF_C),
                      lambda: threshold_bound(np.ones(3), rule.C, REF_P, REF_C),
                      lambda: run_sequential(iter([(0.0, 1.0)]), rule, REF_P, REF_C, 10)):
            with pytest.raises(NumericalError, match="not determined"):
                solve()

    @pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
    def test_acceptance_bound_grows_with_the_cost_scale(self, scale):
        # at C = 1.5*scale the bisection ends on a residual of a few ulps of
        # the scale, above the absolute 1e-10; gamma does not depend on scale
        c = CostWeights(scale, scale, scale)
        cal = solve_gamma(1.5 * scale, REF_P, c)
        assert cal.gamma == pytest.approx(solve_gamma(1.5, REF_P, REF_C).gamma, rel=1e-9)
        assert abs(cal.G - (1.5 * scale - 2.0 * scale)) <= 1e-13 * 3.0 * scale


class TestCalibrationType:
    def test_observe_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            Calibration(C=1.0, gamma=0.0)

    def test_estimate_only_with_h1(self):
        # a rule carries no estimate at all: the outcome reads the prior mean off the model
        with pytest.raises(TypeError):
            Calibration(C=5.0, decision=Hypothesis.H0, estimate=1.0)
        with pytest.raises(TypeError):
            Calibration(C=1.0, gamma=2.0, estimate=1.0)

    @pytest.mark.parametrize("field", [{"gamma": 2.0}, {"G": -0.5}], ids=["gamma", "G"])
    def test_stop_at_zero_carries_no_threshold(self, field):
        with pytest.raises(ValueError, match="no threshold"):
            Calibration(C=5.0, decision=Hypothesis.H0, **field)

    @pytest.mark.parametrize("field", [{"gamma": 0.5}, {"G": -0.5}], ids=["gamma", "G"])
    def test_pending_search_carries_no_threshold(self, field):
        # an unsolved rule leaves both to be resolved where it is used
        (name, _), = field.items()
        assert getattr(stopping_rule(1.5, REF_P, REF_C), name) is None
        with pytest.raises(ValueError, match="no threshold"):
            Calibration(C=5.0, decision=Hypothesis.H0, **field)

    def test_unsolved_rule_carries_no_G(self):
        with pytest.raises(ValueError, match="no threshold"):
            Calibration(C=1.5, G=-0.5)


def test_ndtr_matches_scipy_bitwise():
    from scipy.special import ndtr as scipy_ndtr

    rng = np.random.default_rng(7)
    n = 45_000
    draws = [
        rng.normal(0.0, 1.0, n),
        rng.normal(0.0, 6.0, n),
        rng.uniform(-40.0, 40.0, n),
        rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-323), math.log(400.0), n)),
        rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64),
    ]
    # 200 steps of one ulp on each side of the branch points |a| = 1, sqrt(2)
    # and 8*sqrt(2) (|x| = 1/sqrt(2), 1 and 8 for x = a/sqrt(2)), and the
    # underflow of exp(-x^2) with its denormal results
    steps = np.arange(-200, 201)
    for edge in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)):
        ulps = np.abs(np.spacing(edge)) * steps + edge
        draws += [ulps, -ulps]
    draws.append(-np.linspace(37.5, 38.6, 20_001))
    draws.append(np.array([0.0, -0.0, math.inf, -math.inf, math.nan]))
    a = np.concatenate(draws)
    assert a.size >= 200_000

    want = scipy_ndtr(a)
    got = np.array([gfunc.ndtr(x) for x in a.tolist()])
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), [(x, g, w) for x, g, w in zip(a[~same], got[~same], want[~same])][:5]
