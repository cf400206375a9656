"""End-to-end acceptance checks at pinned tolerances.

One test per criterion; each records a PASS/FAIL summary line that pytest
prints in its terminal summary.  Monte Carlo criteria run 1e5 replications
and compare against closed forms within 3 standard errors.
"""

import json
import math

import numpy as np

from conftest import record_acceptance
from seqjde import (
    Constant,
    CostWeights,
    Hypothesis,
    ModelParams,
    ScenarioConfig,
    monte_carlo,
    run_sequential,
    solve_gamma,
)
from seqjde.gfunc import Calibration, boundary, g_eval, g_eval_quadrature, g_limits
from seqjde.sim import Ar1, IidGaussian, Rayleigh, compare_schemes, run_arms, separate_costs
from seqjde.stats import SufficientStats, accepts_alternative, estimate, log_likelihood_ratio
from seqjde.cli import main as cli_main
from test_gfunc import oracle_root

REF_P = ModelParams(0.0, 1.0, 1.0)
REF_C = CostWeights(1.0, 1.0, 1.0)
N_MC = 100_000


def check(num, label, ok, detail=""):
    record_acceptance(num, label, ok)
    assert ok, f"criterion {num} [{label}]: {detail}"


def scenario_pair(channel, params, costs, reps, seed=2026, t_max=2000):
    mk = lambda truth: ScenarioConfig(
        truth=truth, params=params, costs=costs, channel=channel,
        master_seed=seed, reps=reps, t_max=t_max,
    )
    return mk(Hypothesis.H0), mk(Hypothesis.H1)


def test_criterion_01_exact_closed_forms():
    configs = [
        (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 0.0)),
        (ModelParams(2.0, 0.5, 3.0), CostWeights(0.7, 1.3, 0.0)),
        (ModelParams(-1.0, 2.0, 0.7), CostWeights(2.0, 0.4, 0.0)),
        (ModelParams(0.3, 1.1, 1.7), CostWeights(1.0, 2.5, 0.0)),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(2.0, 0.5, 0.0)),
    ]
    ok = True
    detail = []
    for p, c in configs:
        if abs(log_likelihood_ratio(SufficientStats(), p)) > 1e-12:
            ok = False
            detail.append(f"logL0 != 0 for {p}")
        if abs(estimate(SufficientStats(), p) - p.mu_x) > 1e-12:
            ok = False
            detail.append(f"estimate(0,0) != mu_x for {p}")
        full = CostWeights(c.c0, c.c1, 1.5)
        expect_G0 = min(full.c0 - full.c1 - full.ce * p.mu_x**2, 0.0)
        if abs(g_eval(0.0, p, full) - expect_G0) > 1e-12:
            ok = False
            detail.append(f"G(0) mismatch for {p}")
        for U in (0.0, 0.5, 2.0, 10.0):
            closed = boundary(U, p, c)[0]
            if abs(closed - oracle_root(U, p, c)) > 1e-9:
                ok = False
                detail.append(f"ce=0 root mismatch at U={U} for {p}")
    check(1, "exact closed forms", ok, "; ".join(detail))


def test_criterion_02_oracle_equivalence():
    configs = [
        (REF_P, REF_C),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(2.0, 0.5, 1.0)),
        (ModelParams(-0.7, 1.5, 0.8), CostWeights(1.0, 1.0, 0.0)),
    ]
    worst = 0.0
    for p, c in configs:
        for U in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0):
            diff = abs(g_eval(U, p, c) - g_eval_quadrature(U, p, c, tol=1e-9))
            worst = max(worst, diff)
    check(2, "closed form vs quadrature oracle", worst <= 1e-7, f"worst diff {worst:.2e}")


def test_criterion_03_shape_and_limits():
    ok = True
    detail = []
    shape_configs = [
        (REF_P, REF_C),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(2.0, 0.5, 1.0)),
    ]
    for p, c in shape_configs:
        grid = np.logspace(-3, 4, 50)
        vals = [g_eval(float(u), p, c) for u in grid]
        if not all(b < a + 1e-12 for a, b in zip(vals, vals[1:])):
            ok = False
            detail.append(f"not strictly decreasing for {p}")
        _, Ginf = g_limits(p, c)
        tail = g_eval(1e8, p, c)
        if abs(tail - Ginf) > 1e-3:
            ok = False
            detail.append(f"G(1e8)={tail} vs limit {Ginf}")
    # whole-line identity wherever the margin root is nonpositive
    p, c = ModelParams(1.0, 1.0, 1.0), CostWeights(0.2, 1.0, 1.0)
    hits = 0
    for u in np.logspace(-3, 4, 50):
        u = float(u)
        if boundary(u, p, c)[0] <= 0:
            hits += 1
            expect = c.c0 - c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2 * u / (u + p.kappa))
            if abs(g_eval(u, p, c) - expect) > 1e-10:
                ok = False
                detail.append(f"whole-line identity fails at U={u}")
    if hits == 0:
        ok = False
        detail.append("no whole-line grid points found")
    check(3, "G shape, tail limit, whole-line identity", ok, "; ".join(detail))


def test_criterion_04_calibration():
    ok = True
    detail = []
    gammas = []
    for C in (0.5, 1.0, 1.5, 1.9):
        cal = solve_gamma(C, REF_P, REF_C)
        target = C - 1.0 - 1.0
        resid = abs(g_eval(cal.gamma, REF_P, REF_C) - target)
        gammas.append(cal.gamma)
        if resid > 1e-9:
            ok = False
            detail.append(f"residual {resid:.2e} at C={C}")
    if not all(a > b for a, b in zip(gammas, gammas[1:])):
        ok = False
        detail.append(f"gamma not antitone in C: {gammas}")
    check(4, "threshold calibration", ok, "; ".join(detail))


def test_criterion_05_martingale_monte_carlo():
    # kappa = 4 keeps the terminal energy below kappa on both channels, so the
    # likelihood ratio has finite variance and the 3-sigma band is sound
    p = ModelParams(0.0, 1.0, 2.0)
    cal = solve_gamma(1.5, p, REF_C)
    ok = True
    detail = []
    for channel in (Constant(1.0), Ar1(0.9, 0.3, 0.3)):
        arms = run_arms(scenario_pair(channel, p, REF_C, reps=N_MC, seed=11, t_max=200)[0], cal)
        assert arms.U_T < p.kappa, "test config must keep U_T below kappa"
        lrs = np.exp(arms.logL[0])  # the H0 row
        se = float(lrs.std(ddof=1) / math.sqrt(len(lrs)))
        dev = abs(float(lrs.mean()) - 1.0)
        if dev > 3 * se:
            ok = False
        detail.append(f"{type(channel).__name__}: mean-1={dev:.4f} (3se={3*se:.4f})")
    check(5, "null martingale mean of the likelihood ratio", ok, "; ".join(detail))


def test_criterion_06_mse_identity():
    cal = solve_gamma(1.5, REF_P, REF_C)
    arms = run_arms(scenario_pair(Constant(1.0), REF_P, REF_C, reps=N_MC)[0], cal)
    pv = REF_P.sigma**2 / (arms.U_T + REF_P.kappa)
    d = arms.decision[1]  # the H1 row
    err_d1 = np.where(d, (arms.xhat[1] - arms.x[1]) ** 2, 0.0)
    paired = err_d1 - pv * d.astype(float)
    se = float(paired.std(ddof=1) / math.sqrt(len(paired)))
    dev = abs(float(paired.mean()))
    check(6, "conditional MSE identity", dev <= 3 * se, f"dev={dev:.5f} 3se={3*se:.5f}")


def test_criterion_07_combined_cost_constraint():
    cal = solve_gamma(1.5, REF_P, REF_C)
    ok = True
    detail = []
    channels = [Constant(1.0), IidGaussian(1.0), Rayleigh(1.0), Ar1(0.9, 0.5, 0.5)]
    for channel in channels:
        rep = monte_carlo(scenario_pair(channel, REF_P, REF_C, reps=N_MC), cal)
        name = type(channel).__name__
        if rep.combined > rep.constraint_C + 3 * rep.combined_se:
            ok = False
            detail.append(f"{name}: combined {rep.combined:.4f} above C")
        if abs(rep.combined - rep.predicted) > 3 * rep.combined_se:
            ok = False
            detail.append(f"{name}: combined {rep.combined:.4f} vs predicted {rep.predicted:.4f}")
        detail.append(
            f"{name}: combined={rep.combined:.4f}+-{rep.combined_se:.4f} "
            f"predicted={rep.predicted:.4f}"
        )
    check(7, "combined cost meets constraint and prediction", ok, "; ".join(detail))


def test_criterion_08_joint_beats_separate():
    p = ModelParams(1.0, 1.0, 1.0)
    c = CostWeights(1.0, 0.2, 5.0)
    cal = solve_gamma(3.0, p, c)
    joint, sep = compare_schemes(scenario_pair(Constant(1.0), p, c, reps=N_MC), cal)
    pooled = math.sqrt(joint.combined_se**2 + sep.combined_se**2)
    gap = sep.combined - joint.combined
    ok = gap > 3 * pooled

    # pure-detection costs collapse both rules onto the same test
    c0 = CostWeights(1.0, 0.2, 0.0)
    cal0 = solve_gamma(0.1, p, c0)
    cfg0 = scenario_pair(Constant(1.0), p, c0, reps=30_000)[0]
    arms = run_arms(cfg0, cal0)
    agree = np.array_equal(arms.decision,
                           accepts_alternative(arms.logL, arms.xhat, separate_costs(c0)))
    check(8, "joint scheme beats separate baseline", ok and agree,
          f"gap={gap:.4f} pooled_se={pooled:.4f} ce0_agree={agree}")


def test_criterion_09_stopping_ignores_observations():
    cal = Calibration(C=1.0, gamma=4.0)
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        n = 60
        h = rng.normal(0.0, 1.0, size=n)
        y = rng.normal(0.0, 2.0, size=n)
        y_new = rng.normal(10.0, 5.0, size=n)
        a = run_sequential(zip(y, h), cal, REF_P, REF_C, t_max=n)
        b = run_sequential(zip(y_new, h), cal, REF_P, REF_C, t_max=n)
        if (a.T, a.U_T) != (b.T, b.U_T):
            ok = False
            break
    check(9, "stopping adapted to gains only", ok)


def test_criterion_10_cli_determinism_across_workers(tmp_path):
    cfg = {
        "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0},
        "costs": {"c0": 1.0, "c1": 1.0, "ce": 1.0},
        "constraint_C": 1.5,
        "channel": {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5},
        "mc": {"reps": 2000, "master_seed": 31, "t_max": 500},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"mc_w{workers}.json"
        code = cli_main(["montecarlo", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        blobs.append(out.read_bytes() + out.with_suffix(".reps.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    check(10, "byte-identical Monte Carlo output across worker counts", ok)
