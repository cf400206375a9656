"""Channel generators, scenario sampling, and Monte Carlo cost estimation.

All error probabilities and squared-error terms are estimated conditionally
on one realized gain path: the path is generated from the channel model and
master seed alone, and every replication reuses it.  The stopping index and
the terminal energy are therefore identical across replications of a run,
and since ``(t, U, V)`` is sufficient, Monte Carlo draws each replication's
amplitude and terminal correlation ``V_T`` directly from their exact law
instead of sampling and folding a noise path; one ``stats.accepts_alternative``
call decides a whole arm.  ``sample_scenario`` still draws full observation
paths, for ``simulate`` and as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from . import engine, stats
from .errors import ChannelFileError, HorizonExhausted, InvalidCosts
from .gfunc import Calibration, Regime
from .model import CostWeights, Hypothesis, ModelParams, is_finite_real

# Stream tags keeping the draws independent: sample_scenario keys a
# replication by [seed, arm, rep], the channel by [seed, 2], and Monte Carlo's
# terminal draws by [seed, 3, arm].
_H0_STREAM = 0
_H1_STREAM = 1
_CHANNEL_STREAM = 2
_TERMINAL_STREAM = 3


@dataclass(frozen=True)
class Constant:
    h: float

    def __post_init__(self):
        if not is_finite_real(self.h) or self.h == 0:
            raise ValueError(f"constant gain must be finite and nonzero, got {self.h!r}")


@dataclass(frozen=True)
class IidGaussian:
    std: float

    def __post_init__(self):
        if not (is_finite_real(self.std) and self.std > 0):
            raise ValueError(f"gain std must be finite and positive, got {self.std!r}")


@dataclass(frozen=True)
class Rayleigh:
    """Gain is the magnitude of a circular complex Gaussian; ``scale`` is the
    per-component standard deviation."""

    scale: float

    def __post_init__(self):
        if not (is_finite_real(self.scale) and self.scale > 0):
            raise ValueError(f"Rayleigh scale must be finite and positive, got {self.scale!r}")


@dataclass(frozen=True)
class Ar1:
    phi: float
    innov_std: float
    init_std: float

    def __post_init__(self):
        if not (is_finite_real(self.phi) and abs(self.phi) < 1):
            raise ValueError(f"AR(1) coefficient must satisfy |phi| < 1, got {self.phi!r}")
        for name in ("innov_std", "init_std"):
            v = getattr(self, name)
            if not (is_finite_real(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class FromFile:
    """Plain-text gain path, one decimal value per line, '#' comments allowed."""

    path: str


ChannelModel = Union[Constant, IidGaussian, Rayleigh, Ar1, FromFile]


@dataclass(frozen=True)
class ScenarioConfig:
    truth: Hypothesis
    params: ModelParams
    costs: CostWeights
    channel: ChannelModel
    master_seed: int
    reps: int
    t_max: int

    def __post_init__(self):
        for name, low in (("master_seed", 0), ("reps", 1), ("t_max", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")


@dataclass(frozen=True)
class CostReport:
    """Plug-in Monte Carlo estimates of the combined cost and its pieces.

    Probabilities carry binomial standard errors; squared-error terms carry
    sample standard errors.  ``combined`` is assembled exactly from the other
    fields as c0*p0_d1 + c1*p1_d0 + ce*(mse_d1 + mse_d0).
    """

    reps: int
    p0_d1: float
    p0_d1_se: float
    p1_d0: float
    p1_d0_se: float
    mse_d1: float
    mse_d1_se: float
    mse_d0: float
    mse_d0_se: float
    combined: float
    combined_se: float
    predicted: float
    constraint_C: float


def _parse_channel_file(path: str, t_max: int) -> np.ndarray:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ChannelFileError(f"cannot read channel file {path!r}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            value = float(body)
        except ValueError:
            value = math.nan  # unparseable text is reported like nan and inf
        if not math.isfinite(value):
            raise ChannelFileError(
                f"channel file {path!r} line {lineno}: not a finite number: {body!r}"
            )
        values.append(value)
    if len(values) < t_max:
        raise ChannelFileError(
            f"channel file {path!r} has {len(values)} values, need t_max={t_max}"
        )
    return np.asarray(values[:t_max], dtype=float)


def gen_channel(model: ChannelModel, seed: int, t_max: int) -> np.ndarray:
    """Deterministic length-``t_max`` gain path for (model, seed)."""
    if not isinstance(t_max, int) or t_max < 1:
        raise ValueError(f"t_max must be a positive integer, got {t_max!r}")
    if isinstance(model, FromFile):
        return _parse_channel_file(model.path, t_max)
    if isinstance(model, Constant):
        return np.full(t_max, float(model.h))

    rng = np.random.default_rng(np.random.SeedSequence([seed, _CHANNEL_STREAM]))
    if isinstance(model, IidGaussian):
        return rng.normal(0.0, model.std, size=t_max)
    if isinstance(model, Rayleigh):
        re = rng.normal(0.0, model.scale, size=t_max)
        im = rng.normal(0.0, model.scale, size=t_max)
        return np.hypot(re, im)
    if isinstance(model, Ar1):
        innov = rng.normal(0.0, model.innov_std, size=t_max)
        h = np.empty(t_max)
        h[0] = rng.normal(0.0, model.init_std)
        for t in range(1, t_max):
            h[t] = model.phi * h[t - 1] + innov[t]
        return h
    raise TypeError(f"unknown channel model: {model!r}")


def _rep_rng(master_seed: int, truth: Hypothesis, rep_index: int) -> np.random.Generator:
    arm = _H1_STREAM if truth is Hypothesis.H1 else _H0_STREAM
    return np.random.default_rng(np.random.SeedSequence([master_seed, arm, rep_index]))


def sample_scenario(cfg: ScenarioConfig, rep_index: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Draw one replication: amplitude, observation path, and the shared gain path.

    The gain path depends only on (channel, master_seed); the amplitude and
    noise come from a replication-specific stream, so replications are
    independent conditionally on the one realized path.
    """
    if not 0 <= rep_index < cfg.reps:
        raise ValueError(f"rep_index {rep_index} out of range [0, {cfg.reps})")
    h = gen_channel(cfg.channel, cfg.master_seed, cfg.t_max)
    rng = _rep_rng(cfg.master_seed, cfg.truth, rep_index)
    if cfg.truth is Hypothesis.H1:
        x = rng.normal(cfg.params.mu_x, cfg.params.sigma_x)
    else:
        x = 0.0
    w = rng.normal(0.0, cfg.params.sigma, size=cfg.t_max)
    y = x * h + w
    return x, y, h


@dataclass
class ArmSamples:
    """Per-replication terminal data for one truth arm (shared T and U_T)."""

    truth: Hypothesis
    T: int
    U_T: float
    predicted: float
    x: np.ndarray
    V: np.ndarray
    logL: np.ndarray
    xhat: np.ndarray
    decision: np.ndarray  # bool, the estimation-aware rule

    def squared_errors(self, decision: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-replication ``(xhat - x)^2`` where ``decision`` is H1 and ``x^2`` where it is H0."""
        err_d1 = np.where(decision, (self.xhat - self.x) ** 2, 0.0)
        err_d0 = np.where(decision, 0.0, self.x**2)
        return err_d1, err_d0


def _stopping_index(h: np.ndarray, cal: Calibration, t_max: int) -> tuple[int, float]:
    """First index t with cumulative energy >= gamma, and that energy U_t.

    Returns (0, 0.0) in the prior regime.  ``np.cumsum`` adds in the
    engine's order, so the energy is the engine's ``U_T`` bit for bit.
    """
    if cal.regime is Regime.STOP_AT_ZERO:
        return 0, 0.0
    energy = np.cumsum(h * h)
    idx = int(np.searchsorted(energy, cal.gamma, side="left"))
    if idx >= len(energy):
        # a property of the shared gain path, not of any one replication
        raise HorizonExhausted(
            f"gain path energy {energy[-1] if len(energy) else 0.0} never reaches "
            f"threshold {cal.gamma} within t_max={t_max}",
            t=t_max, U=float(energy[-1]) if len(energy) else 0.0, gamma=cal.gamma,
        )
    return idx + 1, float(energy[idx])


def run_arm(cfg: ScenarioConfig, cal: Calibration) -> ArmSamples:
    """Draw every replication of one truth arm from the exact law of its terminal statistic.

    The shared gain path fixes T and U_T, so a replication is just the
    amplitude x (0 under H0, N(mu_x, sigma_x^2) under H1) and
    V_T ~ N(x*U_T, sigma^2*U_T).  One stream per arm,
    ``SeedSequence([master_seed, 3, arm])``, draws all amplitudes (H1 only),
    then all V_T.  Log likelihood ratio, estimate and decision are the
    ``stats`` functions at (T, U_T, V_T), once for the whole arm; in the prior
    regime nothing is observed and they are the calibration's, as the engine
    returns them.
    """
    p, c, n = cfg.params, cfg.costs, cfg.reps
    h = gen_channel(cfg.channel, cfg.master_seed, cfg.t_max)
    T, U_T = _stopping_index(h, cal, cfg.t_max)
    arm = _H1_STREAM if cfg.truth is Hypothesis.H1 else _H0_STREAM
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, _TERMINAL_STREAM, arm]))
    x = rng.normal(p.mu_x, p.sigma_x, size=n) if cfg.truth is Hypothesis.H1 else np.zeros(n)

    if cal.regime is Regime.OBSERVE:
        V = rng.normal(x * U_T, p.sigma * math.sqrt(U_T))
        terminal = stats.SufficientStats(t=T, U=U_T, V=V)
        logL = stats.log_likelihood_ratio(terminal, p)
        xhat = stats.estimate(terminal, p)
        decision = stats.accepts_alternative(logL, xhat, c)
    else:
        V, logL = np.zeros(n), np.zeros(n)
        prior = stats.estimate(stats.init(), p) if cal.estimate is None else cal.estimate
        xhat = np.full(n, prior)
        decision = np.full(n, cal.decision is Hypothesis.H1)
    return ArmSamples(
        truth=cfg.truth, T=T, U_T=U_T, predicted=engine.predicted_cost(U_T, p, c),
        x=x, V=V, logL=logL, xhat=xhat, decision=decision,
    )


def run_arms(cfg_pair: tuple[ScenarioConfig, ScenarioConfig],
             cal: Calibration) -> tuple[ArmSamples, ArmSamples]:
    """Run both arms of an ``(H0 scenario, H1 scenario)`` pair that agree on every other field."""
    cfg0, cfg1 = cfg_pair
    if cfg0.truth is not Hypothesis.H0 or cfg1.truth is not Hypothesis.H1:
        raise ValueError("config pair must be (H0 scenario, H1 scenario)")
    for field in ("params", "costs", "channel", "master_seed", "t_max", "reps"):
        if getattr(cfg0, field) != getattr(cfg1, field):
            raise ValueError(f"config pair must share {field}")
    return run_arm(cfg0, cal), run_arm(cfg1, cal)


def cost_report(arm1: ArmSamples, d0: np.ndarray, d1: np.ndarray,
                c: CostWeights, constraint_C: float) -> CostReport:
    """Cost report for decisions ``d0`` on the H0 arm and ``d1`` on the H1 arm ``arm1``."""
    n0 = len(d0)
    n1 = len(d1)
    p0 = float(np.mean(d0))
    p0_se = math.sqrt(p0 * (1.0 - p0) / n0)
    miss = ~d1
    p1 = float(np.mean(miss))
    p1_se = math.sqrt(p1 * (1.0 - p1) / n1)

    err_d1, err_d0 = arm1.squared_errors(d1)
    mse_d1 = float(np.mean(err_d1))
    mse_d1_se = float(np.std(err_d1, ddof=1) / math.sqrt(n1))
    mse_d0 = float(np.mean(err_d0))
    mse_d0_se = float(np.std(err_d0, ddof=1) / math.sqrt(n1))

    combined = c.c0 * p0 + c.c1 * p1 + c.ce * (mse_d1 + mse_d0)
    h1_cost = c.c1 * miss + c.ce * (err_d1 + err_d0)
    combined_var = (c.c0**2) * np.var(d0.astype(float), ddof=1) / n0 \
        + np.var(h1_cost, ddof=1) / n1
    combined_se = math.sqrt(float(combined_var))

    return CostReport(
        reps=n1,
        p0_d1=p0, p0_d1_se=p0_se,
        p1_d0=p1, p1_d0_se=p1_se,
        mse_d1=mse_d1, mse_d1_se=mse_d1_se,
        mse_d0=mse_d0, mse_d0_se=mse_d0_se,
        combined=combined, combined_se=combined_se,
        predicted=arm1.predicted, constraint_C=constraint_C,
    )


def monte_carlo(cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration,
                workers: int = 1) -> CostReport:
    """Estimate the combined cost of the calibrated triplet on a shared gain path.

    Draws every replication's terminal statistic under each truth with
    ``run_arm``; the stopping index and terminal energy are common to all
    replications because the gain path is shared.  ``workers`` has no
    effect: it is accepted for compatibility, and identical configs give
    bit-identical reports.
    """
    arm0, arm1 = run_arms(cfg_pair, cal)
    return cost_report(arm1, arm0.decision, arm1.decision, cfg_pair[1].costs, cal.C)


def _separate_costs(c: CostWeights) -> CostWeights:
    """Cost weights of the separate test: the joint rule's with ce = 0."""
    if c.c1 <= 0 or c.c0 <= 0:
        raise InvalidCosts("separate detection needs c0 > 0 and c1 > 0")
    return replace(c, ce=0.0)


def separate_decide(s: stats.SufficientStats, p: ModelParams, c: CostWeights) -> Hypothesis:
    """Estimation-blind baseline: the joint rule with ce = 0, an LRT at threshold c0/c1."""
    return stats.decide(s, p, _separate_costs(c))


def separate_decisions(arm: ArmSamples, c: CostWeights) -> np.ndarray:
    """``separate_decide`` applied to every replication of an arm (True is H1)."""
    return stats.accepts_alternative(arm.logL, arm.xhat, _separate_costs(c))


def compare_schemes(
    cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration, workers: int = 1,
) -> tuple[CostReport, CostReport]:
    """Joint rule versus the separate detect-then-estimate baseline.

    Both schemes share the stopping index, the estimator, and every
    replication draw; only the decision rule differs.  ``workers`` has no
    effect; it is accepted for compatibility.
    """
    arm0, arm1 = run_arms(cfg_pair, cal)
    c = cfg_pair[1].costs
    joint = cost_report(arm1, arm0.decision, arm1.decision, c, cal.C)
    separate = cost_report(arm1, separate_decisions(arm0, c), separate_decisions(arm1, c),
                           c, cal.C)
    return joint, separate
