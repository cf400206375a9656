import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqjde import CostWeights, Hypothesis, ModelParams
from seqjde.stats import (
    SufficientStats,
    accepts_alternative,
    decide,
    estimate,
    init,
    log_likelihood_ratio,
    running,
    update,
)

finite_obs = st.floats(min_value=-50, max_value=50, allow_nan=False)


def fold(pairs):
    s = init()
    for y, h in pairs:
        s = update(s, y, h)
    return s


class TestSufficientStats:
    def test_init_is_empty(self):
        s = init()
        assert (s.t, s.U, s.V) == (0, 0.0, 0.0)

    def test_single_update(self):
        s = update(init(), y=1.5, h=2.0)
        assert (s.t, s.U, s.V) == (1, 4.0, 3.0)

    def test_zero_gain_carries_no_information(self):
        s = fold([(1.0, 1.0), (5.0, 0.0)])
        assert (s.t, s.U, s.V) == (2, 1.0, 1.0)

    def test_fold_matches_direct_sums(self):
        s = fold([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        assert (s.t, s.U, s.V) == (3, 3.0, 6.0)

    @pytest.mark.parametrize("y, h", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_nonfinite(self, y, h):
        with pytest.raises(ValueError):
            update(init(), y, h)

    @given(st.lists(st.tuples(finite_obs, finite_obs), min_size=1, max_size=30))
    def test_batch_equals_incremental(self, pairs):
        s = fold(pairs)
        U = sum(h * h for _, h in pairs)
        V = sum(y * h for y, h in pairs)
        assert s.t == len(pairs)
        assert s.U == pytest.approx(U, rel=1e-12, abs=1e-12)
        assert s.V == pytest.approx(V, rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(finite_obs, finite_obs), min_size=1, max_size=30))
    def test_energy_nondecreasing(self, pairs):
        s = init()
        for y, h in pairs:
            s2 = update(s, y, h)
            assert s2.U >= s.U
            assert s2.t == s.t + 1
            s = s2


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("p", [ModelParams(0.0, 1.0, 1.0), ModelParams(-0.3, 1.5, 0.7)],
                         ids=["m0", "m3"])
def test_running_rows_are_the_folds_bit_for_bit(p):
    # every prefix at once, as the trace reads it: the sums, and the estimator and
    # log likelihood ratio on arrays, against a per-row fold with update; signed
    # zero gains first make y*h = -0.0, which the fold adds to 0.0
    rng = np.random.default_rng(8)
    h = np.concatenate(([-0.0, 0.0, -0.0], rng.standard_t(3, size=3000)))
    y = np.abs(rng.normal(size=len(h)))
    run = running(y, h)
    folds = [init()]
    for y_t, h_t in zip(y.tolist(), h.tolist()):
        folds.append(update(folds[-1], y_t, h_t))
    assert run.t.tolist() == [s.t for s in folds]
    assert _bits(run.U) == _bits([s.U for s in folds])
    assert _bits(run.V) == _bits([s.V for s in folds])
    assert _bits(estimate(run, p)) == _bits([estimate(s, p) for s in folds])
    assert _bits(log_likelihood_ratio(run, p)) == _bits([log_likelihood_ratio(s, p)
                                                        for s in folds])


class TestEstimator:
    def test_direct_substitution(self):
        p = ModelParams(mu_x=2.0, sigma_x=1.0, sigma=1.0)
        assert estimate(SufficientStats(2, 3.0, 4.0), p) == 1.5

    def test_prior_mean_with_no_data(self):
        p = ModelParams(mu_x=2.0, sigma_x=1.0, sigma=1.0)
        assert estimate(init(), p) == pytest.approx(2.0, abs=1e-15)

    def test_large_energy_limit_is_empirical_ratio(self):
        p = ModelParams(mu_x=2.0, sigma_x=1.0, sigma=1.0)
        s = SufficientStats(1, 1e9, 1e9 * 0.7)
        assert estimate(s, p) == pytest.approx(0.7, abs=1e-8)

    @given(
        U=st.floats(min_value=1e-6, max_value=1e6),
        V=st.floats(min_value=-1e3, max_value=1e3),
        mu=st.floats(min_value=-5, max_value=5),
        sx=st.floats(min_value=0.1, max_value=10),
        sg=st.floats(min_value=0.1, max_value=10),
    )
    def test_shrinkage_identity(self, U, V, mu, sx, sg):
        p = ModelParams(mu_x=mu, sigma_x=sx, sigma=sg)
        s = SufficientStats(1, U, V)
        lam = U / (U + p.kappa)
        blended = lam * (V / U) + (1 - lam) * mu
        assert estimate(s, p) == pytest.approx(blended, rel=1e-9, abs=1e-9)


class TestLogLikelihoodRatio:
    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(0.0, 1.0, 1.0),
            ModelParams(2.0, 0.5, 3.0),
            ModelParams(-1.0, 2.0, 0.7),
        ],
    )
    def test_empty_history_is_zero(self, p):
        assert log_likelihood_ratio(init(), p) == pytest.approx(0.0, abs=1e-12)

    def test_known_values(self):
        p = ModelParams(0.0, 1.0, 1.0)
        assert log_likelihood_ratio(SufficientStats(1, 1.0, 0.0), p) == pytest.approx(
            -0.5 * math.log(2), abs=1e-12
        )
        assert log_likelihood_ratio(SufficientStats(1, 1.0, 2.0), p) == pytest.approx(
            1 - 0.5 * math.log(2), abs=1e-12
        )

    # float.hex of logL at U = 3, V = 2.2, sigma = 1 for sigma_x = 1e-2, 1e-4,
    # ..., 1e-10: mpmath at 80 digits of 0.5*ln(kappa/A) + (V + mu_x*kappa)^2/(2*A)
    # - mu_x^2*kappa/2, A = U + kappa, kappa = 1/sigma_x^2
    PINNED_LOGL = {
        1.0: ['0x1.6656ef68ea155p-1', '0x1.6666660109ed2p-1', '0x1.6666666663ce4p-1',
              '0x1.6666666666667p-1', '0x1.6666666666668p-1'],
        -0.3: ['-0x1.96deefc7e3e26p-1', '-0x1.970a3c54be1fcp-1', '-0x1.970a3d709c928p-1',
               '-0x1.970a3d70a3d6ep-1', '-0x1.970a3d70a3d71p-1'],
    }

    @pytest.mark.parametrize("mu_x", sorted(PINNED_LOGL))
    def test_nearly_known_amplitude_matches_80_digits(self, mu_x):
        # the prior term mu_x^2/(2*sigma_x^2) cancelled against the quadratic
        # term: the error was 0.70 at mu_x = 1, sigma_x = 1e-10
        for sigma_x, pin in zip([1e-2, 1e-4, 1e-6, 1e-8, 1e-10], self.PINNED_LOGL[mu_x]):
            p = ModelParams(mu_x, sigma_x, 1.0)
            got = log_likelihood_ratio(SufficientStats(1, 3.0, 2.2), p)
            want = float.fromhex(pin)
            assert abs(got - want) <= 4 * math.ulp(want), sigma_x

    def test_martingale_mean_one_under_null(self):
        # fixed gain path, deterministic stopping at t=2; the marginal
        # likelihood ratio must average to 1 over null-noise replications
        p = ModelParams(mu_x=0.5, sigma_x=1.0, sigma=2.0)
        h = np.array([1.0, 0.6])
        U = float(np.sum(h * h))
        rng = np.random.default_rng(123)
        n = 20000
        V = rng.normal(0.0, p.sigma, size=(n, 2)) @ h
        lrs = np.array(
            [math.exp(log_likelihood_ratio(SufficientStats(2, U, float(v)), p)) for v in V]
        )
        se = lrs.std(ddof=1) / math.sqrt(n)
        assert abs(lrs.mean() - 1.0) <= 3 * se


def random_points():
    """500 draws of model, costs and history, skipping costs with c1 = ce = 0."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        p = ModelParams(float(rng.normal(0, 2)), float(rng.uniform(0.3, 3)),
                        float(rng.uniform(0.3, 3)))
        c = CostWeights(float(rng.uniform(0.05, 4)), float(rng.uniform(0.0, 4)),
                        float(rng.uniform(0.0, 4)))
        if c.c1 + c.ce == 0:
            continue
        yield p, c, SufficientStats(2, float(rng.uniform(0, 30)), float(rng.normal(0, 5)))


class TestDecide:
    def test_estimation_term_flips_decision(self):
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(c0=1.0, c1=0.2, ce=0.5)
        s = SufficientStats(1, 1.0, 2.0)
        # xhat = 1, L ~ 1.922, rhs ~ 1.346 >= c0
        assert decide(s, p, c) is Hypothesis.H1

    def test_prior_only_decision(self):
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(c0=2.0, c1=1.0, ce=1.0)
        assert decide(init(), p, c) is Hypothesis.H0

    def test_ce_zero_reduces_to_lrt(self):
        p = ModelParams(0.3, 1.2, 0.9)
        c = CostWeights(c0=1.4, c1=0.7, ce=0.0)
        rng = np.random.default_rng(7)
        thresh = math.log(c.c0 / c.c1)
        for _ in range(300):
            s = SufficientStats(3, float(rng.uniform(0, 20)), float(rng.normal(0, 4)))
            lrt = Hypothesis.H1 if log_likelihood_ratio(s, p) >= thresh else Hypothesis.H0
            assert decide(s, p, c) is lrt

    def test_ce_zero_equal_costs_tie_goes_to_h1(self):
        p = ModelParams(0.0, 1.0, 1.0)
        c = CostWeights(c0=1.0, c1=1.0, ce=0.0)
        # empty history has logL = 0 exactly; threshold log(c0/c1) = 0
        assert decide(init(), p, c) is Hypothesis.H1

    def test_degenerate_weight_conventions(self):
        p = ModelParams(0.0, 1.0, 1.0)
        s = init()  # xhat = 0, so c1 + ce*xhat^2 = 0 when c1 = 0
        assert decide(s, p, CostWeights(1.0, 0.0, 1.0)) is Hypothesis.H0

    def test_log_domain_matches_linear_domain(self):
        for p, c, s in random_points():
            logl = log_likelihood_ratio(s, p)
            if abs(logl) > 600:
                continue
            xhat = estimate(s, p)
            lhs, rhs = c.c0, math.exp(logl) * (c.c1 + c.ce * xhat**2)
            if rhs != 0 and abs(lhs - rhs) <= 1e-9 * max(lhs, rhs):
                continue  # exact-tie neighborhood excluded
            linear = Hypothesis.H1 if lhs <= rhs else Hypothesis.H0
            assert decide(s, p, c) is linear

    def test_array_rule_equals_scalar_decide(self):
        # each point's (p, c, U) with its own V and every 10th point's V, as run_arms
        # holds one energy per arm
        points = list(random_points())
        others = [s.V for _, _, s in points[::10]]
        for p, c, s in points:
            V = np.array([s.V] + others)
            terminal = SufficientStats(2, s.U, V)
            logl, xhat = log_likelihood_ratio(terminal, p), estimate(terminal, p)
            scalar = [decide(SufficientStats(2, s.U, v), p, c) is Hypothesis.H1
                      for v in V.tolist()]
            assert accepts_alternative(logl, xhat, c).tolist() == scalar
            # a strided view decides each element as the whole array does
            assert accepts_alternative(logl[1::3], xhat[1::3], c).tolist() == scalar[1::3]

    def test_array_tie_goes_to_h1(self):
        logl = np.array([0.0, -1e-300, 1e-12])
        assert accepts_alternative(logl, np.zeros(3), CostWeights(1.0, 1.0, 0.0)).tolist() \
            == [True, False, True]
        assert accepts_alternative(np.zeros(2), np.zeros(2), CostWeights(2.0, 2.0, 3.0)).all()

    def test_array_zero_weight_decides_h0(self):
        logl = np.array([-5.0, 0.0, 700.0])
        d = accepts_alternative(logl, np.zeros(3), CostWeights(1.0, 0.0, 1.0))
        assert d.tolist() == [False, False, False]
