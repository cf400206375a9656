"""Single-pass runner for the optimal stop/decide/estimate triplet."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import gfunc, stats
from .errors import HorizonExhausted
from .gfunc import Calibration, Regime
from .model import CostWeights, Hypothesis, ModelParams


@dataclass(frozen=True)
class TripletOutcome:
    """Realized stopping index, decision, estimate, and terminal statistics.

    ``estimate`` is present exactly when the decision is H1.
    ``predicted_cost`` is the closed-form combined cost implied by the
    terminal energy, ``G(U_T) + c1 + ce*(mu_x^2 + sigma_x^2)``.
    """

    T: int
    decision: Hypothesis
    estimate: float | None
    U_T: float
    V_T: float
    logL_T: float
    predicted_cost: float


def predicted_cost(U_T: float, p: ModelParams, c: CostWeights) -> float:
    """Combined cost attained by the optimal triplet at terminal energy U_T."""
    return gfunc.g_eval(U_T, p, c) + c.c1 + c.ce * (p.mu_x**2 + p.sigma_x**2)


def run_sequential(stream: Iterable[tuple[float, float]], cal: Calibration,
                   p: ModelParams, c: CostWeights, t_max: int) -> TripletOutcome:
    """Consume (y, h) pairs until the running energy reaches the threshold.

    Stops at the first t with ``U_t >= gamma``, then applies the decision
    rule and, on H1, the estimator, at exactly that index.  The stop-at-zero
    regime returns immediately with the prior decision and consumes nothing.
    Keeps O(1) state; the stream is never buffered.

    Raises HorizonExhausted if the energy has not crossed after ``t_max``
    samples or the stream ends early, and OverflowError if the running sums
    overflow to inf on the way.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")

    if cal.regime is Regime.STOP_AT_ZERO:
        return TripletOutcome(
            T=0, decision=cal.decision, estimate=cal.estimate,
            U_T=0.0, V_T=0.0, logL_T=0.0,
            predicted_cost=predicted_cost(0.0, p, c),
        )

    gamma = cal.gamma
    s = stats.init()
    it: Iterator[tuple[float, float]] = iter(stream)
    while s.t < t_max:
        try:
            y, h = next(it)
        except StopIteration:
            raise HorizonExhausted(
                f"stream ended after {s.t} samples with energy {s.U} < {gamma}",
                t=s.t, U=s.U, gamma=gamma,
            ) from None
        s = stats.update(s, y, h)
        if s.U >= gamma:
            if not (math.isfinite(s.U) and math.isfinite(s.V)):
                raise OverflowError(f"running sums overflow a float at t={s.t}")
            logL, xhat = stats.log_likelihood_ratio(s, p), stats.estimate(s, p)
            h1 = stats.accepts_alternative(logL, xhat, c)
            return TripletOutcome(
                T=s.t, decision=Hypothesis.H1 if h1 else Hypothesis.H0,
                estimate=xhat if h1 else None,
                U_T=s.U, V_T=s.V, logL_T=logL,
                predicted_cost=predicted_cost(s.U, p, c),
            )
    raise HorizonExhausted(
        f"energy {s.U} still below threshold {gamma} after t_max={t_max} samples",
        t=s.t, U=s.U, gamma=gamma,
    )
