"""Single-pass runner for the optimal stop/decide/estimate triplet, and its outcome at a stop."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from . import gfunc, stats
from .errors import HorizonExhausted
from .gfunc import Calibration, predicted_cost
from .model import CostWeights, Hypothesis, ModelParams, check_int


@dataclass(frozen=True)
class TripletOutcome:
    """Realized stopping index, decision, estimate, and terminal statistics.

    ``estimate`` is present exactly when the decision is H1.
    ``predicted_cost`` is ``gfunc.predicted_cost`` at the terminal energy.
    """

    T: int
    decision: Hypothesis
    estimate: float | None
    U_T: float
    V_T: float
    logL_T: float
    predicted_cost: float


def outcome(s: stats.SufficientStats, cal: Calibration, p: ModelParams,
            c: CostWeights) -> TripletOutcome:
    """The decision and, on H1, the estimate on stopping at history ``s``: the prior mean
    ``mu_x`` under a prior decision, at ``SufficientStats()``.  OverflowError: sums not finite."""
    if cal.decision is None and not (math.isfinite(s.U) and math.isfinite(s.V)):
        raise OverflowError(f"running sums overflow a float at t={s.t}")
    cost = predicted_cost(s.U, p, c)  # first: a NumericalError where U leaves G's range
    logL, xhat, h1 = 0.0, p.mu_x, cal.decision is Hypothesis.H1
    if cal.decision is None:
        logL, xhat = stats.log_likelihood_ratio(s, p), stats.estimate(s, p)
        h1 = stats.accepts_alternative(logL, xhat, c)
    return TripletOutcome(T=s.t, decision=Hypothesis.H1 if h1 else Hypothesis.H0,
                          estimate=xhat if h1 else None, U_T=s.U, V_T=s.V,
                          logL_T=logL, predicted_cost=cost)


def run_sequential(stream: Iterable[tuple[float, float]], cal: Calibration,
                   p: ModelParams, c: CostWeights, t_max: int) -> TripletOutcome:
    """Consume (y, h) pairs until the running energy reaches the threshold.

    Stops at the first t with ``U_t >= gamma`` and returns the ``outcome`` there.  An
    unsolved ``stopping_rule`` is solved first.  A rule with a prior decision returns it
    immediately and consumes nothing.  Keeps O(1) state; the stream is never buffered.

    Raises HorizonExhausted if the energy has not crossed after ``t_max``
    samples or the stream ends early, and OverflowError if the running sums
    overflow to inf on the way.
    """
    check_int("t_max", t_max, 1)
    s = stats.SufficientStats()
    if cal.decision is not None:
        return outcome(s, cal, p, c)

    gamma = cal.gamma if cal.gamma is not None else gfunc.solve_gamma(cal.C, p, c).gamma
    for y, h in itertools.islice(stream, t_max):
        s = stats.update(s, y, h)
        if s.U >= gamma:
            return outcome(s, cal, p, c)
    message = (f"stream ended after {s.t} samples with energy {s.U} < {gamma}" if s.t < t_max
               else f"energy {s.U} still below threshold {gamma} after t_max={t_max} samples")
    raise HorizonExhausted(message, t=s.t, U=s.U, gamma=gamma)
