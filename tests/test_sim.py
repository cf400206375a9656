import math
import struct
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqjde import (
    Constant,
    CostWeights,
    Hypothesis,
    ModelParams,
    ScenarioConfig,
    gfunc,
    monte_carlo,
    run_sequential,
    solve_gamma,
)
from seqjde.errors import ConfigError, HorizonExhausted
from seqjde.cli import _REP_BLOCK
from seqjde.gfunc import (Calibration, boundary, g_eval_region, predicted_cost,
                           stopping_rule)
from seqjde.model import admissible_cost_bound
from seqjde.sim import (
    _AR1_BLOCK,
    _CHANNEL_STREAM,
    Ar1,
    Arms,
    CostReport,
    FromFile,
    IidGaussian,
    Rayleigh,
    compare_arms,
    compare_schemes,
    cost_report,
    difference_se,
    gen_channel,
    run_arms,
    sample_observations,
    sample_scenario,
    separate_costs,
    stopping_index,
)
from seqjde.stats import (SufficientStats, accepts_alternative, decide, estimate,
                          log_likelihood_ratio)

P = ModelParams(0.0, 1.0, 1.0)
C = CostWeights(1.0, 1.0, 1.0)


def pair(channel, params=P, costs=C, reps=4000, seed=42, t_max=500):
    mk = lambda truth: ScenarioConfig(
        truth=truth, params=params, costs=costs, channel=channel,
        master_seed=seed, reps=reps, t_max=t_max,
    )
    return mk(Hypothesis.H0), mk(Hypothesis.H1)


class TestChannelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            IidGaussian(-1.0)
        with pytest.raises(ValueError):
            Rayleigh(0.0)
        with pytest.raises(ValueError):
            Ar1(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Ar1(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            Constant(True)
        with pytest.raises(ValueError):
            IidGaussian(True)
        with pytest.raises(ValueError):
            Rayleigh(True)
        with pytest.raises(ValueError):
            Ar1(0.5, True, True)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(Hypothesis.H0, P, C, Constant(1.0),
                           master_seed=-1, reps=10, t_max=10)
        with pytest.raises(ValueError):
            ScenarioConfig(Hypothesis.H0, P, C, Constant(1.0),
                           master_seed=1, reps=0, t_max=10)
        with pytest.raises(ValueError):
            ScenarioConfig(Hypothesis.H0, P, C, Constant(1.0),
                           master_seed=1, reps=True, t_max=10)
        with pytest.raises(ValueError):
            ScenarioConfig(Hypothesis.H0, P, C, Constant(1.0),
                           master_seed=1, reps=10, t_max=True)

    @pytest.mark.parametrize("name", ["reps", "t_max"])
    def test_scenario_refuses_a_size_too_large_to_allocate(self, name):
        # NumPy indexes bytes with a signed word, so it cannot address more doubles
        cfg, _ = pair(Constant(1.0))
        replace(cfg, **{name: sys.maxsize // 8})
        with pytest.raises(ValueError, match=f"^{name} is a size too large to allocate, got "):
            replace(cfg, **{name: sys.maxsize // 8 + 1})


class TestGenChannel:
    def test_constant_path(self):
        assert np.array_equal(gen_channel(Constant(1.0), 0, 5), np.ones(5))

    def test_ar1_deterministic_in_seed(self):
        m = Ar1(0.9, 0.5, 0.5)
        a = gen_channel(m, 7, 100)
        b = gen_channel(m, 7, 100)
        c = gen_channel(m, 8, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_iid_gaussian_energy_moment(self):
        h = gen_channel(IidGaussian(1.0), 5, 10_000)
        sq = h * h
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 1.0) <= 5 * se

    def test_rayleigh_energy_moment(self):
        # squared magnitude of a circular Gaussian has mean 2*scale^2
        h = gen_channel(Rayleigh(0.7), 5, 10_000)
        sq = h * h
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 2 * 0.49) <= 5 * se
        assert (h > 0).all()

    def test_non_finite_gain_is_an_overflow(self):
        # rng.normal returns inf without a warning once std * z passes the float limit
        with pytest.raises(OverflowError, match="not finite"):
            gen_channel(IidGaussian(1.7976931348623157e308), 1, 200)

    def test_non_finite_ar1_gain_is_an_overflow_without_a_warning(self):
        # an infinite innovation makes the recursion inf - inf: a silent nan on
        # Python floats, which gen_channel refuses, not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="not finite"):
                gen_channel(Ar1(0.5, 1.7976931348623157e308, 1.0), 2, 50)

    @pytest.mark.parametrize("t_max", [1, 2, _AR1_BLOCK, _AR1_BLOCK + 1, 2 * _AR1_BLOCK + 2])
    def test_ar1_matches_the_numpy_scalar_recursion(self, t_max):
        m = Ar1(0.9, 0.5, 0.5)
        rng = np.random.default_rng(np.random.SeedSequence([7, _CHANNEL_STREAM]))
        innov = rng.normal(0.0, m.innov_std, size=t_max)
        ref = np.empty(t_max)
        ref[0] = rng.normal(0.0, m.init_std)
        for t in range(1, t_max):
            ref[t] = m.phi * ref[t - 1] + innov[t]
        assert gen_channel(m, 7, t_max).tobytes() == ref.tobytes()

    def test_ar1_is_autocorrelated(self):
        h = gen_channel(Ar1(0.9, 0.3, 0.3), 3, 5000)
        r = np.corrcoef(h[:-1], h[1:])[0, 1]
        assert r > 0.8

    @pytest.mark.parametrize("model", [Constant(-0.5), IidGaussian(1.0), Rayleigh(0.8),
                                       FromFile("gains.txt")], ids=lambda m: type(m).__name__)
    def test_a_shorter_path_is_a_prefix(self, tmp_path, monkeypatch, model):
        # T is read off the path's prefix, so it must not depend on the horizon
        monkeypatch.chdir(tmp_path)
        Path("gains.txt").write_text("\n".join(map(repr, np.linspace(0.1, 3.0, 300).tolist())))
        full = gen_channel(model, 7, 300)
        for n in (1, 2, 5, 150, 299):
            assert gen_channel(model, 7, n).tobytes() == full[:n].tobytes(), n

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError, match="t_max"):
            gen_channel(Constant(1.0), 0, 0)

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unknown channel model"):
            gen_channel(P, 0, 5)


class TestFromFile:
    def test_parses_values_and_comments(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("# header\n1.5\n  2.0  # trailing comment\n\n-0.25\n")
        h = gen_channel(FromFile(str(f)), 0, 3)
        assert np.array_equal(h, [1.5, 2.0, -0.25])

    def test_truncates_to_t_max(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("1\n2\n3\n4\n")
        assert np.array_equal(gen_channel(FromFile(str(f)), 0, 2), [1.0, 2.0])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            gen_channel(FromFile("/nonexistent/gains.txt"), 0, 3)

    def test_nul_in_the_path_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"channel file 'a\\x00b': embedded null byte"):
            gen_channel(FromFile("a\0b"), 0, 3)

    def test_unparseable_line(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("1.0\nbogus\n")
        with pytest.raises(ConfigError, match="line 2"):
            gen_channel(FromFile(str(f)), 0, 2)

    def test_non_finite_values(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("nan\n1.0\n")
        with pytest.raises(ConfigError, match="line 1"):
            gen_channel(FromFile(str(f)), 0, 2)
        # a value past t_max is still part of the file and is checked
        f.write_text("1.0\n# comment\n-inf\n")
        with pytest.raises(ConfigError, match="line 3"):
            gen_channel(FromFile(str(f)), 0, 1)

    def test_too_short(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("1.0\n")
        with pytest.raises(ConfigError, match="need t_max"):
            gen_channel(FromFile(str(f)), 0, 5)


class TestSampleScenario:
    def test_null_amplitude_is_zero(self):
        cfg, _ = pair(Constant(1.0), reps=3)
        for rep in range(3):
            x, y, h = sample_scenario(cfg, rep)
            assert x == 0.0

    def test_replications_share_gains_not_noise(self):
        _, cfg = pair(IidGaussian(1.0), reps=3, t_max=50)
        x0, y0, h0 = sample_scenario(cfg, 0)
        x1, y1, h1 = sample_scenario(cfg, 1)
        assert np.array_equal(h0, h1)
        assert x0 != x1
        assert not np.array_equal(y0, y1)

    def test_amplitude_prior_moment(self):
        params = ModelParams(0.7, 1.3, 1.0)
        _, cfg = pair(Constant(1.0), params=params, reps=100_000, t_max=2)
        xs = np.array([sample_scenario(cfg, r)[0] for r in range(cfg.reps)])
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - 0.7) <= 3 * se

    def test_monte_carlo_matches_engine_on_full_paths(self):
        # exact: every terminal sample carries the scalar rule at (T, U_T, V),
        # and T, U_T and the prior regime are what the engine returns
        params, costs = ModelParams(0.5, 1.3, 0.8), CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(0.2, params, costs)  # T = 33: U_T sums in the engine's order
        cfg0, cfg1 = pair(IidGaussian(1.0), params=params, costs=costs, reps=300, t_max=200)
        arms = run_arms(cfg0, cal)
        for cfg in (cfg0, cfg1):
            _, y, h = sample_scenario(cfg, 0)
            out = run_sequential(zip(y.tolist(), h.tolist()), cal, params, costs, cfg.t_max)
            assert (arms.T, arms.U_T, arms.predicted) == (out.T, out.U_T, out.predicted_cost)
            row = cfg.truth.value
            assert 0 < arms.decision[row].sum() < cfg.reps
            for rep in range(cfg.reps):
                s = SufficientStats(arms.T, arms.U_T, float(arms.V[row, rep]))
                assert arms.decision[row, rep] == (decide(s, params, costs) is Hypothesis.H1)
                assert arms.xhat[row, rep] == estimate(s, params)
                assert arms.logL[row, rep] == log_likelihood_ratio(s, params)
        for costs, prior in ((C, Hypothesis.H1), (CostWeights(1.0, 0.5, 1.0), Hypothesis.H0)):
            cal = solve_gamma(2.5, P, costs)
            assert cal.decision is prior
            out = run_sequential(iter(()), cal, P, costs, 10)
            arms = run_arms(pair(Constant(1.0), costs=costs, reps=50)[0], cal)
            assert (arms.T, arms.U_T, arms.predicted) == (out.T, out.U_T, out.predicted_cost)
            assert arms.x.shape == arms.V.shape == arms.decision.shape == (2, 50)
            assert (arms.V == out.V_T).all() and (arms.logL == out.logL_T).all()
            assert (arms.decision == (out.decision is Hypothesis.H1)).all()
            if out.estimate is not None:
                assert (arms.xhat == out.estimate).all()

        # reference: the engine folding sample_scenario paths gives the same
        # combined cost within 3 pooled standard errors
        cal = solve_gamma(1.5, P, C)
        for channel in (Constant(1.0), IidGaussian(1.0), Rayleigh(1.0), Ar1(0.9, 0.5, 0.5)):
            cfgs = pair(channel, reps=3000, t_max=60)
            rows = []  # each arm's replications, H0 then H1
            for cfg in cfgs:
                outs, xs = [], []
                for rep in range(cfg.reps):
                    x, y, h = sample_scenario(cfg, rep)
                    outs.append(run_sequential(zip(y.tolist(), h.tolist()), cal, P, C, cfg.t_max))
                    xs.append(x)
                rows.append(dict(
                    x=xs, V=[o.V_T for o in outs], logL=[o.logL_T for o in outs],
                    xhat=[0.0 if o.estimate is None else o.estimate for o in outs],
                    decision=[o.decision is Hypothesis.H1 for o in outs],
                ))
            engine_arms = Arms(T=outs[0].T, U_T=outs[0].U_T, predicted=outs[0].predicted_cost,
                               **{k: np.array([row[k] for row in rows]) for k in rows[0]})
            ref = cost_report(engine_arms, engine_arms.decision, C, cal.C)
            arms = run_arms(cfgs[0], cal)
            new = cost_report(arms, arms.decision, C, cal.C)
            pooled = math.sqrt(ref.combined_se**2 + new.combined_se**2)
            assert abs(ref.combined - new.combined) <= 3 * pooled, type(channel).__name__

    @pytest.mark.parametrize("channel", [Constant(1.0), IidGaussian(1.0), Rayleigh(0.8),
                                         Ar1(0.9, 0.5, 0.5)], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("truth", [Hypothesis.H0, Hypothesis.H1], ids=lambda h: h.name)
    def test_observations_on_a_prefix_are_the_paths_first(self, channel, truth):
        # NumPy's normal draws are prefix-consistent, so a run that stops at T
        # draws T noise values and reads sample_scenario's bits
        cfg = pair(channel, reps=3, t_max=5000)[truth.value]
        x, y, h = sample_scenario(cfg, 2)
        for n in (1, 4095, 4096, cfg.t_max):
            x_n, y_n = sample_observations(cfg, 2, h[:n])
            assert struct.pack("<d", x_n) == struct.pack("<d", x)
            assert y_n.tobytes() == y[:n].tobytes()

    def test_rep_index_range_checked(self):
        cfg, _ = pair(Constant(1.0), reps=2)
        with pytest.raises(ValueError):
            sample_scenario(cfg, 2)


class TestMonteCarlo:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run", [monte_carlo, compare_schemes])
    @pytest.mark.parametrize("Cc", [1.5, 2.5])
    def test_one_replication_is_refused(self, run, Cc):
        # one replication has no standard error: the reports held nan, with a RuntimeWarning
        with pytest.raises(ConfigError,
                           match=r"^Monte Carlo needs reps >= 2 for standard errors, got 1$"):
            run(pair(Constant(1.0), reps=1), stopping_rule(Cc, P, C))

    @pytest.mark.parametrize("run", [monte_carlo, compare_schemes])
    def test_pair_must_match(self, run):
        cfg0, cfg1 = pair(Constant(1.0))
        cal = solve_gamma(1.5, P, C)
        with pytest.raises(ValueError):
            run((cfg1, cfg0), cal)
        other = ScenarioConfig(Hypothesis.H1, P, C, Constant(2.0),
                               master_seed=42, reps=cfg0.reps, t_max=cfg0.t_max)
        with pytest.raises(ValueError):
            run((cfg0, other), cal)

    def test_combined_assembled_exactly_from_fields(self):
        cal = solve_gamma(1.5, P, C)
        rep = monte_carlo(pair(Constant(1.0)), cal)
        assert rep.combined == C.c0 * rep.p0_d1 + C.c1 * rep.p1_d0 \
            + C.ce * (rep.mse_d1 + rep.mse_d0)

    def test_computed_records_are_immutable_tuples(self):
        # what a run computes is a NamedTuple: no field can be reassigned after the fact
        cal = solve_gamma(1.5, P, C)
        arms = run_arms(pair(Constant(1.0), reps=10)[0], cal)
        records = [arms, cost_report(arms, arms.decision, C, cal.C), SufficientStats(),
                   run_sequential(iter([(0.5, 1.0)] * 10), cal, P, C, 10)]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
        assert SufficientStats() == (0, 0.0, 0.0)

    def test_ce_zero_false_alarms_match_lrt_frequency(self):
        costs = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, P, costs)
        cfg0 = pair(Constant(1.0), costs=costs, reps=2000)[0]
        arms = run_arms(cfg0, cal)
        rep = cost_report(arms, arms.decision, costs, cal.C)
        freq = float(np.mean(arms.logL[0] >= 0.0))
        assert rep.p0_d1 == freq

    def test_same_stopping_index_across_arms_and_reps(self):
        cal = solve_gamma(1.5, P, C)
        cfg0 = pair(Ar1(0.9, 0.5, 0.5), reps=500)[0]
        arms = run_arms(cfg0, cal)
        # one T and U_T for both arms' 500 replications: the gain path's stop
        assert arms.V.shape == (2, 500)
        assert (arms.T, arms.U_T) == stopping_index(gen_channel(cfg0.channel, 42, 500), cal, P, C)

    def test_workers_do_not_change_the_report(self):
        cal = solve_gamma(1.5, P, C)
        r1 = monte_carlo(pair(Rayleigh(1.0), reps=600), cal, workers=1)
        r4 = monte_carlo(pair(Rayleigh(1.0), reps=600), cal, workers=4)
        assert r1 == r4

    def test_martingale_mean_under_null(self):
        params = ModelParams(0.0, 1.0, 2.0)
        cal = solve_gamma(1.5, params, C)
        cfg0 = pair(Constant(1.0), params=params, reps=20_000)[0]
        arms = run_arms(cfg0, cal)
        assert arms.U_T < params.kappa  # finite-variance regime for the ratio
        lrs = np.exp(arms.logL[0])
        se = lrs.std(ddof=1) / math.sqrt(len(lrs))
        assert abs(lrs.mean() - 1.0) <= 3 * se

    def test_horizon_exhaustion_names_no_replication(self):
        # the stopping index is a property of the shared gain path
        cal = solve_gamma(1.5, P, C)
        with pytest.raises(HorizonExhausted) as info:
            run_arms(pair(Constant(0.01), reps=3, t_max=5)[0], cal)
        err = info.value
        assert (err.t, err.gamma) == (5, cal.gamma)
        assert err.U == float(np.cumsum(np.full(5, 0.01) ** 2)[-1])
        assert err.U < err.gamma

    def test_stop_at_zero_report(self):
        cal = solve_gamma(2.5, P, C)  # prior decision H1, estimate 0
        rep = monte_carlo(pair(Constant(1.0), reps=300), cal)
        assert rep.p0_d1 == 1.0
        assert rep.p1_d0 == 0.0
        assert rep.predicted == 2.0  # cost bound attained at zero energy


def _per_arm_draws(cfg, cal: Calibration) -> list[np.ndarray]:
    """x, V, logL, xhat and decision drawn and decided one arm at a time, V by
    ``rng.normal`` itself, and stacked into ``run_arms``' rows: the per-arm reference."""
    p, n = cfg.params, cfg.reps
    T, U_T = ((0, 0.0) if cal.decision is not None else
              stopping_index(gen_channel(cfg.channel, cfg.master_seed, cfg.t_max), cal, p,
                             cfg.costs))
    rows = []
    for arm in (0, 1):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 3, arm]))
        x = rng.normal(p.mu_x, p.sigma_x, n) if arm else np.zeros(n)
        if cal.decision is not None:
            rows.append((x, np.zeros(n), np.zeros(n), np.full(n, p.mu_x),
                         np.full(n, cal.decision is Hypothesis.H1)))
            continue
        V = rng.normal(x * U_T, p.sigma * math.sqrt(U_T))
        s = SufficientStats(T, U_T, V)
        logL, xhat = log_likelihood_ratio(s, p), estimate(s, p)
        rows.append((x, V, logL, xhat, accepts_alternative(logL, xhat, cfg.costs)))
    return [np.stack(column) for column in zip(*rows)]


def _outcome(run, *args):
    """Each array's dtype, shape and bytes, or the error raised, under cli.main's errstate."""
    with np.errstate(over="raise"):
        try:
            result = run(*args)
        except (FloatingPointError, OverflowError) as exc:
            return type(exc), str(exc)
    if isinstance(result, Arms):
        result = [getattr(result, name) for name in ("x", "V", "logL", "xhat", "decision")]
    return [(a.dtype, a.shape, a.tobytes()) for a in result]


@pytest.mark.parametrize("regime", ["observe", "stop_at_zero"])
def test_arms_rows_are_the_per_arm_streams(regime):
    # row 1 of x is SeedSequence([seed, 3, 1])'s normal(mu_x, sigma_x, reps), and row k
    # of V its stream's next normal(x*U_T, sigma*sqrt(U_T)), bit for bit, over more
    # replications than one reps.csv block
    p, c = ModelParams(0.7, 1.3, 0.8), CostWeights(1.0, 0.2, 5.0)
    Cc = 0.3 if regime == "observe" else 1.1 * admissible_cost_bound(p, c)
    cal = stopping_rule(Cc, p, c)
    assert (cal.decision is None) == (regime == "observe")
    cfg = pair(IidGaussian(1.0), params=p, costs=c, reps=_REP_BLOCK + 1, seed=7, t_max=200)[0]
    assert _outcome(run_arms, cfg, cal) == _outcome(_per_arm_draws, cfg, cal)
    arms = run_arms(cfg, cal)
    assert arms.x.shape == (2, _REP_BLOCK + 1)
    if regime == "observe":
        assert 0 < arms.decision.sum() < arms.decision.size


@pytest.mark.parametrize("regime", ["observe", "prior_H0", "prior_H1"])
@pytest.mark.parametrize("channel", [Constant(-0.5), IidGaussian(1.0), Rayleigh(0.8),
                                     Ar1(0.9, 0.5, 0.5), FromFile("gains.txt")],
                         ids=lambda m: type(m).__name__)
def test_arms_h0_amplitudes_are_positive_zeros(tmp_path, monkeypatch, channel, regime):
    # reps.csv writes H0's amplitude as the literal 0, which %.17g prints for +0.0 alone
    monkeypatch.chdir(tmp_path)
    Path("gains.txt").write_text("0.8\n" * 200)
    p = ModelParams(-0.7, 1.3, 0.8)
    costs = CostWeights(1.0, 0.5, 1.0) if regime == "prior_H0" else C
    # above the admissible bound the rule stops at zero on its prior decision
    cal = stopping_rule(0.3 if regime == "observe" else 1.1 * admissible_cost_bound(p, costs),
                        p, costs)
    assert cal.decision is {"observe": None, "prior_H0": Hypothesis.H0,
                            "prior_H1": Hypothesis.H1}[regime]
    x = run_arms(pair(channel, params=p, costs=costs, reps=300, t_max=200)[0], cal).x
    assert not x[0].any() and not np.signbit(x[0]).any()
    assert x[1].all()


@pytest.mark.parametrize("sigma_x, sigma", [(1e100, 1e100), (1e150, 1e150), (1e154, 1e100),
                                            (1.3e154, 1e150)])
def test_overflow_ends_as_the_per_arm_draws_do(sigma_x, sigma):
    # V*V overflows in log_likelihood_ratio at the larger sigma_x: the one pass over
    # both rows raises the error the per-arm passes raised, and a V that rng.normal
    # would leave finite stays finite
    p = ModelParams(0.0, sigma_x, sigma)
    cal = Calibration(C=1.0, gamma=0.5)
    cfg = pair(Constant(1.0), params=p, reps=40, seed=3, t_max=5)[0]
    got = _outcome(run_arms, cfg, cal)
    assert got == _outcome(_per_arm_draws, cfg, cal)
    assert (got[0] is FloatingPointError) == (sigma_x > 1e150)


def _reference_cost_report(arms: Arms, decision: np.ndarray,
                           c: CostWeights, constraint_C: float) -> CostReport:
    """``cost_report`` with ``np.mean``, ``np.std`` and ``np.var``, each summing on its own."""
    d0, d1 = decision
    x, xhat = arms.x[1], arms.xhat[1]
    n0 = len(d0)
    n1 = len(d1)
    p0 = float(np.mean(d0))
    p0_se = math.sqrt(p0 * (1.0 - p0) / n0)
    miss = ~d1
    p1 = float(np.mean(miss))
    p1_se = math.sqrt(p1 * (1.0 - p1) / n1)
    err_d1 = np.where(d1, (xhat - x) ** 2, 0.0)
    err_d0 = np.where(d1, 0.0, x**2)
    mse_d1 = float(np.mean(err_d1))
    mse_d1_se = float(np.std(err_d1, ddof=1) / math.sqrt(n1))
    mse_d0 = float(np.mean(err_d0))
    mse_d0_se = float(np.std(err_d0, ddof=1) / math.sqrt(n1))
    combined = c.c0 * p0 + c.c1 * p1 + c.ce * (mse_d1 + mse_d0)
    h1_cost = c.c1 * miss + c.ce * (err_d1 + err_d0)
    combined_var = (c.c0**2) * np.var(d0.astype(float), ddof=1) / n0 \
        + np.var(h1_cost, ddof=1) / n1
    return CostReport(
        reps=n1, p0_d1=p0, p0_d1_se=p0_se, p1_d0=p1, p1_d0_se=p1_se,
        mse_d1=mse_d1, mse_d1_se=mse_d1_se, mse_d0=mse_d0, mse_d0_se=mse_d0_se,
        combined=combined, combined_se=math.sqrt(float(combined_var)),
        predicted=arms.predicted, constraint_C=constraint_C,
    )


def _report_outcome(report_fn, *args):
    """Every field's bits, or the overflow raised under ``over="raise"``."""
    with np.errstate(over="raise"):
        try:
            report = report_fn(*args)
        except (FloatingPointError, OverflowError) as exc:
            # older NumPy squares np.var's deviations with np.multiply, newer
            # with np.square; the two round alike
            return type(exc), str(exc).replace("multiply", "square")
    return [(name, type(getattr(report, name)), struct.pack("<d", getattr(report, name)))
            for name in report._fields]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3, 250, 1001]),
       decided=st.sampled_from(["H0", "H1", "mixed"]),
       exponent=st.integers(-300, 300),
       costs=st.tuples(*[st.sampled_from([1e-3, 0.2, 1.0, 5.0, 1e3])] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_cost_report_keeps_the_bits_of_mean_std_and_var(n, decided, exponent, costs, seed):
    # the joint report and compare's separate one, on amplitudes and estimates
    # of magnitude 10^exponent, 1e-300..1e300, spread by a further 10^+-3
    rng = np.random.default_rng(seed)
    c = CostWeights(*costs)

    def arm(truth_h1):
        scale = 10.0**exponent * 10.0 ** rng.uniform(-3, 3, size=n)
        x = rng.normal(size=n) * scale if truth_h1 else np.zeros(n)
        decision = {"H0": np.zeros(n, bool), "H1": np.ones(n, bool),
                    "mixed": rng.permutation(np.arange(n) % 2 == 1)}[decided]
        return dict(x=x, V=np.zeros(n), logL=rng.normal(size=n),
                    xhat=rng.normal(size=n) * scale, decision=decision)

    rows = arm(False), arm(True)
    arms = Arms(T=1, U_T=1.0, predicted=1.25,
                **{k: np.stack([row[k] for row in rows]) for k in rows[0]})
    separate = accepts_alternative(arms.logL, arms.xhat, separate_costs(c))
    for decision in (arms.decision, separate):
        args = (arms, decision, c, 1.5)
        assert _report_outcome(cost_report, *args) == _report_outcome(_reference_cost_report, *args)


def _separate(s: SufficientStats, p: ModelParams, c: CostWeights) -> Hypothesis:
    """The separate test's decision at history ``s``."""
    return decide(s, p, separate_costs(c))


class TestSeparateDecide:
    """The separate test's decisions: the joint rule with ce = 0."""

    def test_tie_goes_to_h1(self):
        s = SufficientStats(0, 0.0, 0.0)
        assert _separate(s, P, CostWeights(1.0, 1.0, 5.0)) is Hypothesis.H1

    def test_agrees_with_joint_rule_when_ce_zero(self):
        # the separate test is the joint rule under separate_costs, which keep
        # pure-detection costs as they are
        costs = CostWeights(1.4, 0.7, 0.0)
        assert separate_costs(costs) == costs

    def test_disagreement_example(self):
        s = SufficientStats(1, 1.0, 2.0)
        costs = CostWeights(1.0, 0.2, 0.5)
        assert _separate(s, P, costs) is Hypothesis.H0
        assert decide(s, P, costs) is Hypothesis.H1

    def test_denormal_false_alarm_cost(self):
        # ln(c0/c1) underflowed to log(0); the joint rule compares ln c0 with logL + ln c1
        s = SufficientStats(1, 1.0, 0.0)
        assert _separate(s, P, CostWeights(5e-324, 3.0, 1.0)) is Hypothesis.H1

    def test_requires_positive_detection_costs(self, tmp_path):
        s = SufficientStats(1, 1.0, 0.0)
        costs = CostWeights(1.0, 0.0, 1.0)
        with pytest.raises(ConfigError, match=r"^separate detection needs c1 > 0$"):
            _separate(s, P, costs)
        # compare_schemes refuses them before any gain is read: this channel
        # file does not exist, and reading it would be another ConfigError
        missing = FromFile(str(tmp_path / "no_such_gains.txt"))
        with pytest.raises(ConfigError, match=r"^separate detection needs c1 > 0$"):
            compare_schemes(pair(missing, costs=costs, reps=3), stopping_rule(0.3, P, costs))

    def test_arm_decisions_match_scalar_test(self):
        params, costs = ModelParams(0.5, 1.3, 0.8), CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(0.2, params, costs)
        arms = run_arms(pair(IidGaussian(1.0), params=params, costs=costs, reps=300,
                             t_max=200)[0], cal)
        d = accepts_alternative(arms.logL, arms.xhat, separate_costs(costs))
        assert d.tolist() == [[
            decide(SufficientStats(arms.T, arms.U_T, v), params, replace(costs, ce=0.0))
            is Hypothesis.H1 for v in row] for row in arms.V.tolist()
        ]
        assert 0 < int(d.sum()) < 600


class TestCompareSchemes:
    def test_ce_zero_identical_reports(self):
        costs = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, P, costs)
        joint, sep = compare_schemes(pair(Constant(1.0), costs=costs, reps=2000), cal)
        assert joint == sep
        # both rules decide alike, so every replication's cost difference is 0
        assert compare_arms(pair(Constant(1.0), costs=costs, reps=2000)[0], cal) \
            == (joint, sep, 0.0)

    def test_difference_se_is_the_paired_one(self):
        # the standard error of the per-replication cost difference, each arm's
        # variance taken directly by np.var, on a small arm where the rules differ
        params, costs = ModelParams(1.0, 1.0, 1.0), CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(3.0, params, costs)
        cfg = pair(Constant(1.0), params=params, costs=costs, reps=60)[0]
        arms = run_arms(cfg, cal)
        joint = arms.decision
        sep = accepts_alternative(arms.logL, arms.xhat, separate_costs(costs))

        def costs_of(d):  # each replication's cost, the H0 row then the H1 row
            sq_err = np.where(d[1], (arms.xhat[1] - arms.x[1]) ** 2, arms.x[1] ** 2)
            return costs.c0 * d[0], costs.c1 * ~d[1] + costs.ce * sq_err

        diff = [a - b for a, b in zip(costs_of(joint), costs_of(sep))]
        assert all(row.any() for row in diff)
        want = math.sqrt(sum(np.var(row, ddof=1) for row in diff) / cfg.reps)
        assert difference_se(arms, joint, sep, costs) == pytest.approx(want, rel=1e-13)
        assert compare_arms(cfg, cal)[2] == difference_se(arms, joint, sep, costs)
        assert difference_se(arms, joint, joint, costs) == 0.0

    def test_joint_never_worse(self):
        params = ModelParams(1.0, 1.0, 1.0)
        costs = CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(3.0, params, costs)
        joint, sep = compare_schemes(
            pair(Constant(1.0), params=params, costs=costs, reps=4000), cal
        )
        pooled = math.sqrt(joint.combined_se**2 + sep.combined_se**2)
        assert joint.combined <= sep.combined + 3 * pooled

    def test_joint_minimizes_auxiliary_cost(self):
        # the auxiliary cost drops the decision-independent variance term;
        # the joint rule must beat the separate rule and perturbed variants
        params = ModelParams(1.0, 1.0, 1.0)
        costs = CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(3.0, params, costs)
        cfg0 = pair(Constant(1.0), params=params, costs=costs, reps=20_000)[0]
        arms = run_arms(cfg0, cal)
        k = params.kappa
        A = arms.U_T + k
        shrunk_sq = ((arms.V[1] + params.mu_x * k) / A) ** 2

        def aux_cost(d0, d1):
            h0 = costs.c0 * d0.astype(float)
            h1 = costs.c1 * (~d1).astype(float) + costs.ce * shrunk_sq * (~d1)
            mean = h0.mean() + h1.mean()
            se = math.sqrt(h0.var(ddof=1) / len(h0) + h1.var(ddof=1) / len(h1))
            return mean, se

        def rule(factor):
            # threshold test c0*factor <= L*(c1 + ce*xhat^2), per replication
            weight = costs.c1 + costs.ce * arms.xhat**2
            return arms.logL + np.log(weight) >= math.log(costs.c0 * factor)

        joint_mean, joint_se = aux_cost(*arms.decision)
        separate = accepts_alternative(arms.logL, arms.xhat, separate_costs(costs))
        for d0, d1 in [separate, rule(0.5), rule(2.0)]:
            other_mean, other_se = aux_cost(d0, d1)
            pooled = math.sqrt(joint_se**2 + other_se**2)
            assert joint_mean <= other_mean + 3 * pooled

    @pytest.mark.parametrize("params, costs, C", [
        (ModelParams(0.5, 0.8, 1.2), CostWeights(1.0, 1.0, 1.0), 0.82),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(1.0, 0.2, 5.0), 3.0),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(1.0, 0.2, 5.0), 6.0),  # prior: H0 beside H1
        (ModelParams(1.0, 1.0, 1.0), CostWeights(0.1, 0.2, 5.0), 6.0),  # prior: both decide H1
    ])
    def test_separate_predicted_is_its_exact_cost(self, params, costs, C):
        # G over the ce = 0 region under the full costs; with no observation,
        # the LRT at likelihood ratio 1 decides H1 exactly when c0 <= c1
        cal = solve_gamma(C, params, costs)
        joint, sep = compare_schemes(pair(Constant(1.0), params=params, costs=costs, reps=50),
                                     cal)
        U = 0.0 if cal.gamma is None else float(math.ceil(cal.gamma))  # unit gains
        if U == 0.0:
            G = costs.c0 - costs.c1 - costs.ce * params.mu_x**2 if costs.c0 <= costs.c1 else 0.0
        else:
            G = g_eval_region(U, *boundary(U, params, replace(costs, ce=0.0))[1:], params, costs)
        assert sep.predicted == G + costs.c1 + costs.ce * (params.mu_x**2 + params.sigma_x**2)
        assert joint.predicted == predicted_cost(U, params, costs)
        assert joint.predicted <= sep.predicted

    @pytest.mark.parametrize("costs, C", [(CostWeights(1.0, 1.0, 1.0), 0.82),
                                          (CostWeights(1.0, 0.2, 5.0), 2.1)])
    @pytest.mark.parametrize("channel", [Constant(1.0), IidGaussian(1.0), Rayleigh(0.8),
                                         Ar1(0.9, 0.5, 0.5)], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("seed", [7, 8])
    def test_separate_monte_carlo_matches_its_predicted_cost(self, costs, C, channel, seed):
        params = ModelParams(0.5, 0.8, 1.2)
        cal = solve_gamma(C, params, costs)
        joint, sep = compare_schemes(pair(channel, params=params, costs=costs, reps=20_000,
                                          seed=seed, t_max=2000), cal)
        assert abs(sep.combined - sep.predicted) <= 4 * sep.combined_se
        assert joint.predicted < sep.predicted


def _assert_same_arms(a: Arms, b: Arms) -> None:
    assert (a.T, a.U_T, a.predicted) == (b.T, b.U_T, b.predicted)
    for name in ("x", "V", "logL", "xhat", "decision"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _eager_stop(h: np.ndarray, gamma: float) -> tuple[int, float]:
    """(T, U_T) against the drained threshold: the first cumulative energy >= gamma."""
    energy = np.cumsum(h * h)
    idx = int(np.searchsorted(energy, gamma, side="left"))
    return idx + 1, float(energy[idx])


def _path_through(v: float, first: float, tail: int = 20) -> list[float]:
    """Gains whose cumulative energy is just below ``first``, then exactly ``v``
    (``first <= v``), then grows by ``tail`` unit gains."""
    for k in range(1, 200):  # a few first gains leave a gap that a square fills exactly
        h0 = math.sqrt(first) * (1.0 - k * 1e-9)
        e1 = h0 * h0
        h1 = math.sqrt(v - e1)
        for h1 in (h1, math.nextafter(h1, 0.0), math.nextafter(h1, math.inf)):
            if e1 + h1 * h1 == v:
                return [h0, h1] + [1.0] * tail
    raise AssertionError(f"no two-gain path reaches {v!r} exactly")


def _write_gains(path, gains) -> FromFile:
    path.write_text("".join(f"{g!r}\n" for g in gains))
    return FromFile(str(path))


LAZY_COSTS = [
    (P, C),
    (ModelParams(1.0, 1.0, 1.0), CostWeights(1.0, 0.2, 5.0)),
    (ModelParams(-0.3, 1.5, 0.7), CostWeights(1.0, 1.0, 0.0)),
]


class TestLazyThreshold:
    """An unsolved rule gives the solved threshold's T and U_T bit for bit."""

    @pytest.mark.parametrize("p, c", LAZY_COSTS)
    @pytest.mark.parametrize("frac", [0.95, 0.6, 0.3, 0.1, 0.03])
    @pytest.mark.parametrize("kind", ["constant", "iid_gaussian", "rayleigh", "ar1", "from_file"])
    def test_stopping_index_matches_drained_threshold(self, tmp_path, root_solves,
                                                      p, c, frac, kind):
        t_max = 5000
        channel = {
            "constant": Constant(1.0),
            "iid_gaussian": IidGaussian(1.0),
            "rayleigh": Rayleigh(0.8),
            "ar1": Ar1(0.9, 0.5, 0.5),
            "from_file": None,
        }[kind]
        if channel is None:
            gains = np.random.default_rng(5).standard_t(3, size=t_max)
            channel = _write_gains(tmp_path / "gains.txt", gains.tolist())
        Cc = frac * admissible_cost_bound(p, c)
        cal = solve_gamma(Cc, p, c)
        eager_solves = len(root_solves)
        for seed in (3, 4):
            h = gen_channel(channel, seed, t_max)
            root_solves.clear()
            lazy = stopping_rule(Cc, p, c)
            stop = stopping_index(h, lazy, p, c)
            assert len(root_solves) <= eager_solves
            assert stop == _eager_stop(h, cal.gamma)
            assert lazy == stopping_rule(Cc, p, c) and lazy.gamma is None

    @pytest.mark.parametrize("where", ["gamma", "below", "above", "first_hi",
                                       "step5_lo", "step5_hi", "step20_lo", "step20_hi"])
    @pytest.mark.parametrize("Cc", [1.9, 1.5, 0.5])
    def test_energy_on_the_threshold_or_a_bracket_end(self, tmp_path, where, Cc):
        cal = solve_gamma(Cc, P, C)
        brackets = []

        def recording(lo, hi):  # asked before each halving
            brackets.append((lo, hi))
            return False

        gfunc._bisect(Cc, P, C, recording)
        ends = {"first_hi": brackets[0][1]}
        for step in (5, 20):
            ends[f"step{step}_lo"], ends[f"step{step}_hi"] = brackets[step]
        ends.update(gamma=cal.gamma, below=math.nextafter(cal.gamma, -math.inf),
                    above=math.nextafter(cal.gamma, math.inf))
        v = ends[where]
        assert v > 0.0
        # the first energy is below gamma, so the exact hit decides T
        channel = _write_gains(tmp_path / "gains.txt", _path_through(v, min(v, cal.gamma)))
        h = gen_channel(channel, 0, 22)
        assert np.cumsum(h * h)[1] == v
        T, U_T = stopping_index(h, stopping_rule(Cc, P, C), P, C)
        assert (T, U_T) == _eager_stop(h, cal.gamma)
        assert T == (2 if v >= cal.gamma else 3)
        lazy = run_arms(pair(channel, reps=50, t_max=22)[0], stopping_rule(Cc, P, C))
        eager = run_arms(pair(channel, reps=50, t_max=22)[0], cal)
        _assert_same_arms(lazy, eager)

    def test_horizon_exhaustion_names_the_drained_gamma(self):
        cal = solve_gamma(1.5, P, C)
        errors = []
        for c in (cal, stopping_rule(1.5, P, C)):
            with pytest.raises(HorizonExhausted) as info:
                run_arms(pair(Constant(0.01), reps=3, t_max=5)[0], c)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[1].gamma == cal.gamma

    def test_public_calls_accept_both_calibrations(self):
        cfgs = pair(Ar1(0.9, 0.5, 0.5), reps=300)
        for run in (monte_carlo, compare_schemes):
            assert run(cfgs, stopping_rule(0.5, P, C)) == run(cfgs, solve_gamma(0.5, P, C))

    @pytest.mark.parametrize("run", [monte_carlo, compare_schemes, run_arms],
                             ids=lambda f: f.__name__)
    def test_reused_rule_runs_alike(self, root_solves, run):
        # the rule is a plain value: a second run redoes the first's work exactly
        cfgs = pair(Rayleigh(0.8), reps=300)
        if run is run_arms:  # one scenario, the pair's H0 one
            cfgs = cfgs[0]
        rule = stopping_rule(0.2, P, C)
        results, solves = [], []
        for _ in range(2):
            root_solves.clear()
            results.append(run(cfgs, rule))
            solves.append(len(root_solves))
        assert solves[0] == solves[1] > 2
        assert rule == stopping_rule(0.2, P, C) and rule.gamma is None
        if run is run_arms:
            _assert_same_arms(*results)
        else:
            assert results[0] == results[1]

    @pytest.mark.parametrize("truth", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("Cc", [1.9, 1.5, 0.5, 2.5])
    def test_run_sequential_solves_an_unsolved_rule(self, truth, Cc):
        cfg = pair(Ar1(0.9, 0.5, 0.5), reps=1)[truth is Hypothesis.H1]
        _, y, h = sample_scenario(cfg, 0)
        outcomes = [run_sequential(zip(y.tolist(), h.tolist()), cal, P, C, cfg.t_max)
                    for cal in (stopping_rule(Cc, P, C), solve_gamma(Cc, P, C))]
        assert outcomes[0] == outcomes[1]


# E[T] on IidGaussian(1) at mu_x = 1 and costs 1/0.2/5, for C/C_max in MEAN_STOP's keys
MEAN_STOP = {0.9: 1.3494, 0.5: 2.5538, 0.2: 6.5006, 0.05: 28.8242}


@pytest.mark.parametrize("channel", [IidGaussian(1.0), Rayleigh(0.8)],
                         ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("frac", list(MEAN_STOP))
def test_stopping_time_has_the_law_of_the_energy(channel, frac):
    # T depends on the gains alone, so P(T > t) = P(U_t < gamma): with U_t/s^2
    # chi-squared on t (IidGaussian(s)) or 2t (Rayleigh(s)) degrees of freedom
    from scipy.special import gammainc

    p, c = ModelParams(1.0, 1.0, 1.0), CostWeights(1.0, 0.2, 5.0)
    cal = solve_gamma(frac * admissible_cost_bound(p, c), p, c)
    n, t_max = 2000, 500
    t = np.arange(1, t_max + 1)
    if isinstance(channel, IidGaussian):
        below = gammainc(t / 2, cal.gamma / (2 * channel.std**2))
    else:
        below = gammainc(t, cal.gamma / (2 * channel.scale**2))
    survival = np.concatenate(([1.0], below))  # P(T > t) for t = 0..t_max
    assert survival[-1] < 1e-15  # the horizon is out of reach
    mean = survival.sum()  # E[T] = sum over t >= 0 of P(T > t)
    if isinstance(channel, IidGaussian):
        assert mean == pytest.approx(MEAN_STOP[frac], abs=5e-5)

    T = np.array([stopping_index(gen_channel(channel, seed, t_max), cal, p, c)[0]
                  for seed in range(n)])
    assert abs(T.mean() - mean) <= 4 * T.std(ddof=1) / math.sqrt(n)
    seen = (T[:, None] > np.arange(t_max + 1)).mean(axis=0)
    checked = (0.01 < survival) & (survival < 0.99)
    se = np.sqrt(survival * (1 - survival) / n)
    assert checked.any()
    assert (np.abs(seen - survival) <= 4 * se)[checked].all()
