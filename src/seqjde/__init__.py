"""Sequential joint detection and estimation for linear Gaussian observations.

Observing pairs ``(y_t, h_t)`` with ``y_t = x*h_t + w_t``, the library
calibrates the energy threshold of the optimal stopping rule, applies the
estimation-aware decision rule and the posterior-mean estimator at the time
of stopping, and validates the closed-form combined cost by Monte Carlo.

The package root exports the names of README's Library example; every other
name is imported from the module that defines it.  ``monte_carlo`` and
``run_sequential`` load NumPy, so they are imported on first access (PEP 562).
"""

import importlib

from .gfunc import solve_gamma
from .model import Constant, CostWeights, Hypothesis, ModelParams, ScenarioConfig

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

_LAZY = {"monte_carlo": "sim", "run_sequential": "engine"}  # name -> its module


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted([*globals(), *_LAZY])
