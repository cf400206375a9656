import math

import numpy as np
import pytest

from seqjde import (
    Calibration,
    CostWeights,
    Hypothesis,
    InfeasibleConstraint,
    InvalidCosts,
    ModelParams,
    NumericalError,
    Regime,
    g_eval,
    g_eval_quadrature,
    g_limits,
    g_point,
    g_root,
    region,
    solve_gamma,
)

REF_P = ModelParams(0.0, 1.0, 1.0)
REF_C = CostWeights(1.0, 1.0, 1.0)

COST_CONFIGS = [
    (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0)),
    (ModelParams(1.0, 1.0, 1.0), CostWeights(2.0, 0.5, 1.0)),
    (ModelParams(-0.7, 1.5, 0.8), CostWeights(1.0, 1.0, 0.0)),
    (ModelParams(0.5, 0.8, 1.2), CostWeights(0.6, 0.1, 2.5)),
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


class TestGRoot:
    def test_ce_zero_closed_form_value(self):
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(1.0, 1.0, 0.0)
        assert g_root(1.0, p, c) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_root_zero_at_origin_for_reference(self):
        # e^{g/2} (1 + g) = 1 is solved by g = 0
        assert g_root(0.0, REF_P, REF_C) == pytest.approx(0.0, abs=1e-9)

    def test_bisection_case_against_oracle(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(2.0, 0.5, 1.0)
        g = g_root(3.0, p, c)
        assert g == pytest.approx(oracle_root(3.0, p, c), abs=1e-8)
        assert margin_rhs(g, 3.0, p, c) == pytest.approx(c.c0, abs=1e-9 * c.c0)

    @pytest.mark.parametrize("p, c", COST_CONFIGS)
    @pytest.mark.parametrize("U", [0.0, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_residual_on_grid(self, p, c, U):
        g = g_root(U, p, c)
        assert abs(margin_rhs(g, U, p, c) - c.c0) <= 1e-9 * c.c0

    def test_pure_estimation_costs(self):
        # c1 = 0 forces a positive root bracketed from zero
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(1.0, 0.0, 1.0)
        g = g_root(2.0, p, c)
        assert g > 0
        assert margin_rhs(g, 2.0, p, c) == pytest.approx(c.c0, abs=1e-9)

    def test_invalid_costs(self):
        with pytest.raises(InvalidCosts):
            g_root(1.0, REF_P, CostWeights(0.0, 1.0, 1.0))
        with pytest.raises(InvalidCosts):
            g_root(1.0, REF_P, CostWeights(1.0, 0.0, 0.0))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            g_root(-1.0, REF_P, REF_C)


class TestRegion:
    def test_whole_line_when_root_nonpositive(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(0.2, 1.0, 1.0)  # c0 far below c1 pushes g below 0
        g = g_root(0.5, p, c)
        assert g <= 0
        V1, V2 = region(0.5, p, c)
        assert (-V1, V2) == (-p.mu_x * p.kappa, -p.mu_x * p.kappa)

    def test_symmetric_when_mean_zero(self):
        V1, V2 = region(1.0, REF_P, REF_C)
        assert V1 == V2 > 0

    def test_offsets_with_nonzero_mean(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(2.0, 0.5, 1.0)
        g = g_root(3.0, p, c)
        V1, V2 = region(3.0, p, c)
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
            if g_root(U, p, c) <= 0:
                expect = c.c0 - c.c1 - c.ce * (
                    p.mu_x**2 + p.sigma_x**2 * U / (U + p.kappa)
                )
                assert g_eval(U, p, c) == pytest.approx(expect, abs=1e-10)

    def test_whole_line_regime_reachable(self):
        # cheap false alarms push the root negative at small energies
        p = ModelParams(1.0, 1.0, 1.0)
        c = CostWeights(0.2, 1.0, 1.0)
        assert any(g_root(float(U), p, c) <= 0 for U in np.logspace(-3, 3, 25))

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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            g_eval_quadrature(0.0, REF_P, REF_C)
        with pytest.raises(ValueError):
            g_eval_quadrature(1.0, REF_P, REF_C, tol=0.0)


class TestGPoint:
    def test_bundles_consistent_fields(self):
        pt = g_point(2.0, REF_P, REF_C)
        assert pt.U == 2.0
        assert pt.g == g_root(2.0, REF_P, REF_C)
        assert (pt.V1, pt.V2) == region(2.0, REF_P, REF_C)
        assert pt.G == g_eval(2.0, REF_P, REF_C)
        G0, Ginf = g_limits(REF_P, REF_C)
        assert Ginf <= pt.G <= G0


class TestSolveGamma:
    def test_stop_at_zero_decides_h1_at_tie(self):
        cal = solve_gamma(2.5, REF_P, REF_C)
        assert cal.regime is Regime.STOP_AT_ZERO
        assert cal.decision is Hypothesis.H1
        assert cal.estimate == 0.0

    def test_stop_at_zero_decides_h0_when_false_alarms_costly(self):
        p = ModelParams(0.5, 1.0, 1.0)
        c = CostWeights(5.0, 1.0, 1.0)
        cal = solve_gamma(100.0, p, c)
        assert cal.regime is Regime.STOP_AT_ZERO
        assert cal.decision is Hypothesis.H0
        assert cal.estimate is None

    def test_boundary_constraint_maps_to_stop_at_zero(self):
        cal = solve_gamma(2.0, REF_P, REF_C)  # C == C_max exactly
        assert cal.regime is Regime.STOP_AT_ZERO

    def test_observe_residual(self):
        cal = solve_gamma(1.5, REF_P, REF_C)
        assert cal.regime is Regime.OBSERVE
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
        with pytest.raises(InfeasibleConstraint):
            solve_gamma(bad, REF_P, REF_C)

    @pytest.mark.parametrize("tiny", [1e-17, 1e-300])
    def test_refuses_target_at_the_limit(self, tiny):
        # the target C - 2 rounds to G's infinite-energy limit -2, where G is flat
        # in floating point: the bisection would report gamma = 1.947e33 with zero residual
        target = tiny - REF_C.c1 - REF_C.ce * (REF_P.mu_x**2 + REF_P.sigma_x**2)
        assert target == g_limits(REF_P, REF_C)[1]
        with pytest.raises(NumericalError, match="not determined"):
            solve_gamma(tiny, REF_P, REF_C)

    def test_smallest_resolved_target_still_calibrates(self):
        cal = solve_gamma(1e-14, REF_P, REF_C)
        assert cal.regime is Regime.OBSERVE
        assert cal.gamma == pytest.approx(4.75e29, rel=1e-2)

    def test_ce_zero_pure_detection_threshold(self):
        c = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, REF_P, c)  # C_max = 1
        assert cal.regime is Regime.OBSERVE
        assert abs(g_eval(cal.gamma, REF_P, c) - (0.6 - 1.0)) <= 1e-9


class TestCalibrationType:
    def test_observe_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            Calibration(C=1.0, regime=Regime.OBSERVE, gamma=0.0)

    def test_stop_at_zero_requires_decision(self):
        with pytest.raises(ValueError):
            Calibration(C=5.0, regime=Regime.STOP_AT_ZERO)

    def test_estimate_only_with_h1(self):
        with pytest.raises(ValueError):
            Calibration(C=5.0, regime=Regime.STOP_AT_ZERO,
                        decision=Hypothesis.H0, estimate=1.0)
