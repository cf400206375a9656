"""Sequential joint detection and estimation for linear Gaussian observations.

Observing pairs ``(y_t, h_t)`` with ``y_t = x*h_t + w_t``, the library
calibrates the energy threshold of the optimal stopping rule, applies the
estimation-aware decision rule and the posterior-mean estimator at the time
of stopping, and validates the closed-form combined cost by Monte Carlo.

The package root exports the names of README's Library example; every other
name is imported from the module that defines it.
"""

from .engine import run_sequential
from .gfunc import solve_gamma
from .model import CostWeights, Hypothesis, ModelParams
from .sim import Constant, ScenarioConfig, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "CostWeights",
    "Hypothesis",
    "ModelParams",
    "ScenarioConfig",
    "monte_carlo",
    "run_sequential",
    "solve_gamma",
]
