import numpy as np
import pytest

from seqjde import CostWeights, Hypothesis, ModelParams, run_sequential, solve_gamma
from seqjde.errors import HorizonExhausted
from seqjde.gfunc import Calibration, g_eval, predicted_cost

P = ModelParams(0.0, 1.0, 1.0)
C = CostWeights(1.0, 1.0, 1.0)


def observe(gamma):
    return Calibration(C=1.0, gamma=gamma)


class TestRunSequential:
    def test_constant_gain_first_crossing(self):
        stream = ((0.0, 1.0) for _ in range(10))
        out = run_sequential(stream, observe(3.2), P, C, t_max=100)
        assert out.T == 4
        assert out.U_T == 4.0

    def test_zero_gain_samples_consumed_but_uninformative(self):
        pairs = [(1.0, 2.0), (9.0, 0.0), (9.0, 0.0), (1.0, 1.0)]
        out = run_sequential(iter(pairs), observe(4.5), P, C, t_max=100)
        assert out.T == 4
        assert out.U_T == 5.0

    def test_stop_at_zero_consumes_nothing(self):
        consumed = []

        def stream():
            for k in range(5):
                consumed.append(k)
                yield (1.0, 1.0)

        cal = Calibration(C=2.5, decision=Hypothesis.H1)
        out = run_sequential(stream(), cal, P, C, t_max=10)
        assert out.T == 0
        assert out.decision is Hypothesis.H1
        assert out.estimate == 0.0
        assert out.U_T == out.V_T == out.logL_T == 0.0
        assert consumed == []

    def test_estimate_present_iff_h1(self):
        # strong positive correlation forces H1; pure noise at huge c0 forces H0
        out_h1 = run_sequential(iter([(5.0, 1.0)]), observe(0.5), P, C, 10)
        assert out_h1.decision is Hypothesis.H1
        assert out_h1.estimate is not None

        expensive = CostWeights(50.0, 1.0, 1.0)
        out_h0 = run_sequential(iter([(0.0, 1.0)]), observe(0.5), P, expensive, 10)
        assert out_h0.decision is Hypothesis.H0
        assert out_h0.estimate is None

    def test_first_crossing_minimality(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(0.2, 1.5, size=50)
        y = rng.normal(size=50)
        gamma = 7.7
        out = run_sequential(zip(y, h), observe(gamma), P, C, t_max=100)
        energy = np.cumsum(h * h)
        assert all(energy[t] < gamma for t in range(out.T - 1))
        assert energy[out.T - 1] >= gamma

    def test_horizon_exhausted_at_t_max(self):
        stream = ((0.0, 0.1) for _ in range(1000))
        with pytest.raises(HorizonExhausted) as info:
            run_sequential(stream, observe(100.0), P, C, t_max=20)
        assert info.value.t == 20
        assert info.value.U < 100.0

    def test_horizon_exhausted_on_short_stream(self):
        with pytest.raises(HorizonExhausted):
            run_sequential(iter([(0.0, 1.0)]), observe(5.0), P, C, t_max=50)

    @pytest.mark.parametrize("n, message", [
        (0, "stream ended after 0 samples with energy 0.0 < 5.0"),
        (2, "stream ended after 2 samples with energy 2.0 < 5.0"),
        (3, "energy 3.0 still below threshold 5.0 after t_max=3 samples"),
        (10, "energy 3.0 still below threshold 5.0 after t_max=3 samples"),
    ])
    def test_horizon_message_names_the_cause(self, n, message):
        # a stream as long as t_max exhausts the horizon, not the stream
        stream = iter([(0.0, 1.0)] * n)
        with pytest.raises(HorizonExhausted) as info:
            run_sequential(stream, observe(5.0), P, C, t_max=3)
        assert str(info.value) == message
        assert info.value.t == min(n, 3)
        assert len(list(stream)) == max(n - 3, 0)  # nothing read past t_max

    @pytest.mark.parametrize("pairs", [[(0.0, 1e300)], [(1e300, 1e200), (1e300, 1e200)]])
    def test_overflowing_sums_raise(self, pairs):
        # U or V at inf gave log(0) in the likelihood ratio: a ValueError traceback
        with pytest.raises(OverflowError):
            run_sequential(iter(pairs), observe(1e300), P, C, t_max=5)

    def test_invalid_t_max(self):
        with pytest.raises(ValueError):
            run_sequential(iter([]), observe(1.0), P, C, t_max=0)

    def test_stopping_depends_only_on_gains(self):
        # replacing or rescaling the y values never moves the stopping index
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = 40
            h = rng.normal(0, 1, size=n)
            y1 = rng.normal(0, 3, size=n)
            y2 = rng.normal(5, 0.1, size=n)
            gamma = float(rng.uniform(0.5, 10.0))
            a = run_sequential(zip(y1, h), observe(gamma), P, C, t_max=n)
            b = run_sequential(zip(y2, h), observe(gamma), P, C, t_max=n)
            assert (a.T, a.U_T) == (b.T, b.U_T)


class TestPredictedCost:
    def test_zero_energy_value(self):
        assert predicted_cost(0.0, P, C) == 2.0

    def test_equals_constraint_at_exact_threshold(self):
        cal = solve_gamma(1.5, P, C)
        assert predicted_cost(cal.gamma, P, C) == pytest.approx(1.5, abs=1e-9)

    def test_overshoot_lowers_the_bound(self):
        cal = solve_gamma(1.5, P, C)
        assert predicted_cost(cal.gamma + 0.5, P, C) < 1.5

    def test_outcome_carries_g_identity(self):
        cal = solve_gamma(1.5, P, C)
        out = run_sequential(iter([(0.3, 1.0)] * 5), cal, P, C, 10)
        expect = g_eval(out.U_T, P, C) + C.c1 + C.ce * (P.mu_x**2 + P.sigma_x**2)
        assert out.predicted_cost == expect
        assert out.predicted_cost <= cal.C
