import math

import numpy as np
import pytest

from seqjde import (
    Ar1,
    ChannelFileError,
    Constant,
    CostWeights,
    FromFile,
    HorizonExhausted,
    Hypothesis,
    IidGaussian,
    InvalidCosts,
    ModelParams,
    Rayleigh,
    ScenarioConfig,
    SufficientStats,
    compare_schemes,
    decide,
    estimate,
    gen_channel,
    log_likelihood_ratio,
    monte_carlo,
    run_sequential,
    sample_scenario,
    separate_decide,
    solve_gamma,
)
from seqjde.sim import ArmSamples, cost_report, run_arm, run_arms, separate_decisions

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

    def test_ar1_is_autocorrelated(self):
        h = gen_channel(Ar1(0.9, 0.3, 0.3), 3, 5000)
        r = np.corrcoef(h[:-1], h[1:])[0, 1]
        assert r > 0.8


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
        with pytest.raises(ChannelFileError):
            gen_channel(FromFile("/nonexistent/gains.txt"), 0, 3)

    def test_unparseable_line(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("1.0\nbogus\n")
        with pytest.raises(ChannelFileError, match="line 2"):
            gen_channel(FromFile(str(f)), 0, 2)

    def test_non_finite_values(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("nan\n1.0\n")
        with pytest.raises(ChannelFileError, match="line 1"):
            gen_channel(FromFile(str(f)), 0, 2)
        # a value past t_max is still part of the file and is checked
        f.write_text("1.0\n# comment\n-inf\n")
        with pytest.raises(ChannelFileError, match="line 3"):
            gen_channel(FromFile(str(f)), 0, 1)

    def test_too_short(self, tmp_path):
        f = tmp_path / "gains.txt"
        f.write_text("1.0\n")
        with pytest.raises(ChannelFileError, match="need t_max"):
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
        arm0, arm1 = run_arms((cfg0, cfg1), cal)
        for cfg, arm in ((cfg0, arm0), (cfg1, arm1)):
            _, y, h = sample_scenario(cfg, 0)
            out = run_sequential(zip(y.tolist(), h.tolist()), cal, params, costs, cfg.t_max)
            assert (arm.T, arm.U_T, arm.predicted) == (out.T, out.U_T, out.predicted_cost)
            assert 0 < arm.decision.sum() < cfg.reps
            for rep in range(cfg.reps):
                s = SufficientStats(arm.T, arm.U_T, float(arm.V[rep]))
                assert arm.decision[rep] == (decide(s, params, costs) is Hypothesis.H1)
                assert arm.xhat[rep] == estimate(s, params)
                assert arm.logL[rep] == log_likelihood_ratio(s, params)
        for costs, prior in ((C, Hypothesis.H1), (CostWeights(1.0, 0.5, 1.0), Hypothesis.H0)):
            cal = solve_gamma(2.5, P, costs)
            assert cal.decision is prior
            out = run_sequential(iter(()), cal, P, costs, 10)
            for arm in run_arms(pair(Constant(1.0), costs=costs, reps=50), cal):
                assert (arm.T, arm.U_T, arm.predicted) == (out.T, out.U_T, out.predicted_cost)
                assert (arm.V == out.V_T).all() and (arm.logL == out.logL_T).all()
                assert (arm.decision == (out.decision is Hypothesis.H1)).all()
                if out.estimate is not None:
                    assert (arm.xhat == out.estimate).all()

        # reference: the engine folding sample_scenario paths gives the same
        # combined cost within 3 pooled standard errors
        cal = solve_gamma(1.5, P, C)
        for channel in (Constant(1.0), IidGaussian(1.0), Rayleigh(1.0), Ar1(0.9, 0.5, 0.5)):
            cfgs = pair(channel, reps=3000, t_max=60)
            engine_arms = []
            for cfg in cfgs:
                outs, xs = [], []
                for rep in range(cfg.reps):
                    x, y, h = sample_scenario(cfg, rep)
                    outs.append(run_sequential(zip(y.tolist(), h.tolist()), cal, P, C, cfg.t_max))
                    xs.append(x)
                engine_arms.append(ArmSamples(
                    truth=cfg.truth, T=outs[0].T, U_T=outs[0].U_T,
                    predicted=outs[0].predicted_cost, x=np.array(xs),
                    V=np.array([o.V_T for o in outs]), logL=np.array([o.logL_T for o in outs]),
                    xhat=np.array([0.0 if o.estimate is None else o.estimate for o in outs]),
                    decision=np.array([o.decision is Hypothesis.H1 for o in outs]),
                ))
            ref0, ref1 = engine_arms
            ref = cost_report(ref1, ref0.decision, ref1.decision, C, cal.C)
            arm0, arm1 = run_arms(cfgs, cal)
            new = cost_report(arm1, arm0.decision, arm1.decision, C, cal.C)
            pooled = math.sqrt(ref.combined_se**2 + new.combined_se**2)
            assert abs(ref.combined - new.combined) <= 3 * pooled, type(channel).__name__

    def test_rep_index_range_checked(self):
        cfg, _ = pair(Constant(1.0), reps=2)
        with pytest.raises(ValueError):
            sample_scenario(cfg, 2)


class TestMonteCarlo:
    def test_pair_must_match(self):
        cfg0, cfg1 = pair(Constant(1.0))
        cal = solve_gamma(1.5, P, C)
        with pytest.raises(ValueError):
            monte_carlo((cfg1, cfg0), cal)
        other = ScenarioConfig(Hypothesis.H1, P, C, Constant(2.0),
                               master_seed=42, reps=cfg0.reps, t_max=cfg0.t_max)
        with pytest.raises(ValueError):
            monte_carlo((cfg0, other), cal)

    def test_combined_assembled_exactly_from_fields(self):
        cal = solve_gamma(1.5, P, C)
        rep = monte_carlo(pair(Constant(1.0)), cal)
        assert rep.combined == C.c0 * rep.p0_d1 + C.c1 * rep.p1_d0 \
            + C.ce * (rep.mse_d1 + rep.mse_d0)

    def test_ce_zero_false_alarms_match_lrt_frequency(self):
        costs = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, P, costs)
        cfg0, cfg1 = pair(Constant(1.0), costs=costs, reps=2000)
        arm0, arm1 = run_arms((cfg0, cfg1), cal)
        rep = cost_report(arm1, arm0.decision, arm1.decision, costs, cal.C)
        freq = float(np.mean(arm0.logL >= 0.0))
        assert rep.p0_d1 == freq

    def test_same_stopping_index_across_arms_and_reps(self):
        cal = solve_gamma(1.5, P, C)
        cfg0, cfg1 = pair(Ar1(0.9, 0.5, 0.5), reps=500)
        arm0, arm1 = run_arms((cfg0, cfg1), cal)
        assert arm0.T == arm1.T
        assert arm0.U_T == arm1.U_T

    def test_workers_do_not_change_the_report(self):
        cal = solve_gamma(1.5, P, C)
        r1 = monte_carlo(pair(Rayleigh(1.0), reps=600), cal, workers=1)
        r4 = monte_carlo(pair(Rayleigh(1.0), reps=600), cal, workers=4)
        assert r1 == r4

    def test_martingale_mean_under_null(self):
        params = ModelParams(0.0, 1.0, 2.0)
        cal = solve_gamma(1.5, params, C)
        cfg0, cfg1 = pair(Constant(1.0), params=params, reps=20_000)
        arm0, _ = run_arms((cfg0, cfg1), cal)
        assert arm0.U_T < params.kappa  # finite-variance regime for the ratio
        lrs = np.exp(arm0.logL)
        se = lrs.std(ddof=1) / math.sqrt(len(lrs))
        assert abs(lrs.mean() - 1.0) <= 3 * se

    def test_horizon_exhaustion_names_no_replication(self):
        # the stopping index is a property of the shared gain path
        cal = solve_gamma(1.5, P, C)
        cfg0, _ = pair(Constant(0.01), reps=3, t_max=5)
        with pytest.raises(HorizonExhausted) as info:
            run_arm(cfg0, cal)
        assert info.value.rep_index is None

    def test_stop_at_zero_report(self):
        cal = solve_gamma(2.5, P, C)  # prior decision H1, estimate 0
        rep = monte_carlo(pair(Constant(1.0), reps=300), cal)
        assert rep.p0_d1 == 1.0
        assert rep.p1_d0 == 0.0
        assert rep.predicted == 2.0  # cost bound attained at zero energy


class TestSeparateDecide:
    def test_tie_goes_to_h1(self):
        s = SufficientStats(0, 0.0, 0.0)
        assert separate_decide(s, P, CostWeights(1.0, 1.0, 5.0)) is Hypothesis.H1

    def test_agrees_with_joint_rule_when_ce_zero(self):
        costs = CostWeights(1.4, 0.7, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = SufficientStats(2, float(rng.uniform(0, 10)), float(rng.normal(0, 3)))
            assert separate_decide(s, P, costs) is decide(s, P, costs)

    def test_disagreement_example(self):
        s = SufficientStats(1, 1.0, 2.0)
        costs = CostWeights(1.0, 0.2, 0.5)
        assert separate_decide(s, P, costs) is Hypothesis.H0
        assert decide(s, P, costs) is Hypothesis.H1

    def test_denormal_false_alarm_cost(self):
        # ln(c0/c1) underflowed to log(0); the joint rule compares ln c0 with logL + ln c1
        s = SufficientStats(1, 1.0, 0.0)
        assert separate_decide(s, P, CostWeights(5e-324, 3.0, 1.0)) is Hypothesis.H1

    def test_requires_positive_detection_costs(self):
        s = SufficientStats(1, 1.0, 0.0)
        with pytest.raises(InvalidCosts):
            separate_decide(s, P, CostWeights(1.0, 0.0, 1.0))
        arm = run_arm(pair(Constant(1.0), reps=3)[0], solve_gamma(1.5, P, C))
        with pytest.raises(InvalidCosts):
            separate_decisions(arm, CostWeights(1.0, 0.0, 1.0))

    def test_arm_decisions_match_scalar_test(self):
        params, costs = ModelParams(0.5, 1.3, 0.8), CostWeights(1.0, 0.2, 5.0)
        cal = solve_gamma(0.2, params, costs)
        accepted = 0
        for arm in run_arms(pair(IidGaussian(1.0), params=params, costs=costs, reps=300,
                                 t_max=200), cal):
            d = separate_decisions(arm, costs)
            assert d.tolist() == [
                separate_decide(SufficientStats(arm.T, arm.U_T, v), params, costs)
                is Hypothesis.H1 for v in arm.V.tolist()
            ]
            accepted += int(d.sum())
        assert 0 < accepted < 600


class TestCompareSchemes:
    def test_ce_zero_identical_reports(self):
        costs = CostWeights(1.0, 1.0, 0.0)
        cal = solve_gamma(0.6, P, costs)
        joint, sep = compare_schemes(pair(Constant(1.0), costs=costs, reps=2000), cal)
        assert joint == sep

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
        cfg0, cfg1 = pair(Constant(1.0), params=params, costs=costs, reps=20_000)
        arm0, arm1 = run_arms((cfg0, cfg1), cal)
        k = params.kappa
        A = arm1.U_T + k
        shrunk_sq = ((arm1.V + params.mu_x * k) / A) ** 2

        def aux_cost(d0, d1):
            h0 = costs.c0 * d0.astype(float)
            h1 = costs.c1 * (~d1).astype(float) + costs.ce * shrunk_sq * (~d1)
            mean = h0.mean() + h1.mean()
            se = math.sqrt(h0.var(ddof=1) / len(h0) + h1.var(ddof=1) / len(h1))
            return mean, se

        def rule(factor):
            # threshold test c0*factor <= L*(c1 + ce*xhat^2), per replication
            def apply(arm):
                weight = costs.c1 + costs.ce * arm.xhat**2
                return arm.logL + np.log(weight) >= math.log(costs.c0 * factor)
            return apply(arm0), apply(arm1)

        joint_mean, joint_se = aux_cost(arm0.decision, arm1.decision)
        sep_d0 = separate_decisions(arm0, costs)
        sep_d1 = separate_decisions(arm1, costs)
        for d0, d1 in [(sep_d0, sep_d1), rule(0.5), rule(2.0)]:
            other_mean, other_se = aux_cost(d0, d1)
            pooled = math.sqrt(joint_se**2 + other_se**2)
            assert joint_mean <= other_mean + 3 * pooled
