"""Sequential joint detection and estimation for linear Gaussian observations.

Observing pairs ``(y_t, h_t)`` with ``y_t = x*h_t + w_t``, the library
calibrates the energy threshold of the optimal stopping rule, applies the
estimation-aware decision rule and the posterior-mean estimator at the time
of stopping, and validates the closed-form combined cost by Monte Carlo.
"""

from .engine import TripletOutcome, run_sequential
from .errors import (
    ChannelFileError,
    HorizonExhausted,
    InfeasibleConstraint,
    InvalidCosts,
    NumericalError,
    QuadratureNonConvergence,
    SeqjdeError,
)
from .gfunc import (
    Calibration,
    GPoint,
    g_eval,
    g_eval_quadrature,
    g_eval_quadrature_region,
    g_eval_region,
    g_limits,
    g_point,
    g_root,
    predicted_cost,
    region,
    solve_gamma,
    stopping_rule,
    threshold_bound,
)
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound
from .sim import (
    Ar1,
    ChannelModel,
    Constant,
    CostReport,
    FromFile,
    IidGaussian,
    Rayleigh,
    ScenarioConfig,
    compare_schemes,
    gen_channel,
    monte_carlo,
    sample_scenario,
)
from .stats import (
    SufficientStats,
    decide,
    estimate,
    init,
    log_likelihood_ratio,
    update,
)

__version__ = "0.1.0"

__all__ = [
    "Ar1",
    "Calibration",
    "ChannelFileError",
    "ChannelModel",
    "Constant",
    "CostReport",
    "CostWeights",
    "FromFile",
    "GPoint",
    "HorizonExhausted",
    "Hypothesis",
    "IidGaussian",
    "InfeasibleConstraint",
    "InvalidCosts",
    "ModelParams",
    "NumericalError",
    "QuadratureNonConvergence",
    "Rayleigh",
    "ScenarioConfig",
    "SeqjdeError",
    "SufficientStats",
    "TripletOutcome",
    "admissible_cost_bound",
    "compare_schemes",
    "decide",
    "estimate",
    "g_eval",
    "g_eval_quadrature",
    "g_eval_quadrature_region",
    "g_eval_region",
    "g_limits",
    "g_point",
    "g_root",
    "gen_channel",
    "init",
    "log_likelihood_ratio",
    "monte_carlo",
    "predicted_cost",
    "region",
    "run_sequential",
    "sample_scenario",
    "solve_gamma",
    "stopping_rule",
    "threshold_bound",
    "update",
]
