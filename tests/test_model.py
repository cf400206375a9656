import math
import re

import pytest

from seqjde import CostWeights, ModelParams
from seqjde.gfunc import g_limits
from seqjde.model import admissible_cost_bound


@pytest.mark.parametrize(
    "params, costs, expected",
    [
        (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0), 2.0),
        (ModelParams(2.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0), 2.0),  # min(1, 5) + 1
        (ModelParams(3.0, 2.0, 0.5), CostWeights(1.0, 1.0, 0.0), 1.0),  # pure detection
    ],
)
def test_admissible_cost_bound(params, costs, expected):
    assert admissible_cost_bound(params, costs) == expected


def test_kappa_is_derived():
    p = ModelParams(mu_x=1.0, sigma_x=0.5, sigma=2.0)
    assert p.kappa == 2.0**2 / 0.5**2


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_modelparams_rejects_bad_scales(bad):
    with pytest.raises(ValueError):
        ModelParams(mu_x=0.0, sigma_x=bad, sigma=1.0)
    with pytest.raises(ValueError):
        ModelParams(mu_x=0.0, sigma_x=1.0, sigma=bad)


@pytest.mark.parametrize("sigma_x, sigma", [(1.0, 1e-300), (1e-200, 1.0), (1e-5, 1e150),
                                            (1e154, 1.0), (1.0, 1e-154)])
def test_modelparams_rejects_degenerate_kappa(sigma_x, sigma):
    # a variance underflowing to 0 gave kappa = 0 (log(0) in calibration) or 1/0,
    # and sigma^2/sigma_x^2 can overflow to inf; kappa ~ 1e-308 underflowed (U+kappa)^2
    with pytest.raises(ValueError, match="kappa"):
        ModelParams(mu_x=0.0, sigma_x=sigma_x, sigma=sigma)


def test_modelparams_rejects_nonfinite_mean():
    with pytest.raises(ValueError):
        ModelParams(mu_x=math.inf, sigma_x=1.0, sigma=1.0)


def test_modelparams_allows_any_finite_mean():
    for mu in (-3.0, 0.0, 2.5):
        assert ModelParams(mu_x=mu, sigma_x=1.0, sigma=1.0).mu_x == mu


@pytest.mark.parametrize("field", ["c0", "c1", "ce"])
def test_costweights_rejects_negative_and_nonfinite(field):
    base = {"c0": 1.0, "c1": 1.0, "ce": 1.0}
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            CostWeights(**{**base, field: bad})


@pytest.mark.parametrize("costs, message", [
    ((0, 1, 1), "c0 must be positive for calibration, got 0"),
    ((-0.0, 1.0, 1.0), "c0 must be positive for calibration, got -0.0"),
    ((1, 0, 0), "c1 and ce cannot both be zero"),
])
def test_costweights_rejects_a_degenerate_decision_problem(costs, message):
    # the rule c0 <= L*(c1 + ce*xhat^2) and its threshold need c0 > 0 and c1 + ce > 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CostWeights(*costs)


@pytest.mark.parametrize(
    "params, costs",
    [
        (ModelParams(0.0, 1.0, 1.0), CostWeights(1.0, 1.0, 1.0)),
        (ModelParams(1.0, 1.0, 1.0), CostWeights(3.0, 1.0, 1.0)),
        (ModelParams(-2.0, 0.7, 1.3), CostWeights(0.4, 1.0, 2.0)),
        (ModelParams(0.5, 2.0, 0.5), CostWeights(1.0, 0.5, 0.0)),
    ],
)
def test_bound_minus_limit_identity(params, costs):
    # C_max - c1 - ce*(mu^2 + sigma_x^2) collapses to the zero-energy value of G
    c_max = admissible_cost_bound(params, costs)
    G0, _ = g_limits(params, costs)
    lhs = c_max - costs.c1 - costs.ce * (params.mu_x**2 + params.sigma_x**2)
    assert lhs == pytest.approx(G0, abs=1e-12)
