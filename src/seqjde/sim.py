"""Channel generators, scenario sampling, and Monte Carlo cost estimation.

All error probabilities and squared-error terms are estimated conditionally
on one realized gain path: the path is generated from the channel model and
master seed alone, and every replication reuses it.  The stopping index and
the terminal energy are therefore identical across replications of a run,
and since ``(t, U, V)`` is sufficient, Monte Carlo draws each replication's
amplitude and terminal correlation ``V_T`` directly from their exact law
instead of sampling and folding a noise path; one ``stats.accepts_alternative``
call decides a whole arm.  ``sample_scenario`` draws full observation paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from . import gfunc, stats
from .errors import ConfigError, HorizonExhausted
from .gfunc import Calibration
from .model import CostWeights, Hypothesis, ModelParams, is_finite_real

# Stream tags keeping the draws independent: sample_scenario keys a
# replication by [seed, arm, rep], the channel by [seed, 2], and Monte Carlo's
# terminal draws by [seed, 3, arm].
_H0_STREAM = 0
_H1_STREAM = 1
_CHANNEL_STREAM = 2
_TERMINAL_STREAM = 3
# AR(1) innovations converted to Python floats per block of this many steps
_AR1_BLOCK = 4096


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
        raise ConfigError(f"cannot read channel file {path!r}: {exc}") from exc
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
            raise ConfigError(
                f"channel file {path!r} line {lineno}: not a finite number: {body!r}"
            )
        values.append(value)
    if len(values) < t_max:
        raise ConfigError(
            f"channel file {path!r} has {len(values)} values, need t_max={t_max}"
        )
    return np.asarray(values[:t_max], dtype=float)


def gen_channel(model: ChannelModel, seed: int, t_max: int) -> np.ndarray:
    """Deterministic length-``t_max`` gain path for (model, seed); OverflowError if not finite."""
    if not isinstance(t_max, int) or t_max < 1:
        raise ValueError(f"t_max must be a positive integer, got {t_max!r}")
    if isinstance(model, FromFile):
        return _parse_channel_file(model.path, t_max)
    if isinstance(model, Constant):
        return np.full(t_max, float(model.h))

    rng = np.random.default_rng(np.random.SeedSequence([seed, _CHANNEL_STREAM]))
    if isinstance(model, IidGaussian):
        h = rng.normal(0.0, model.std, size=t_max)
    elif isinstance(model, Rayleigh):  # real part drawn first, then imaginary
        h = np.hypot(rng.normal(0.0, model.scale, size=t_max),
                     rng.normal(0.0, model.scale, size=t_max))
    elif isinstance(model, Ar1):
        innov = rng.normal(0.0, model.innov_std, size=t_max)
        h = np.empty(t_max)
        phi, prev = model.phi, rng.normal(0.0, model.init_std)
        h[0] = prev
        # Python floats round as NumPy scalars do, and make inf - inf a silent
        # nan (refused below) rather than a RuntimeWarning; one block at a time
        # bounds the floats alive
        for start in range(1, t_max, _AR1_BLOCK):
            block = innov[start:start + _AR1_BLOCK].tolist()
            for i, e in enumerate(block):
                prev = block[i] = phi * prev + e
            h[start:start + len(block)] = block
    else:
        raise TypeError(f"unknown channel model: {model!r}")
    # a scale near the float limit makes rng.normal return inf without a warning
    if not np.isfinite(h).all():
        raise OverflowError(f"{type(model).__name__} channel drew a gain that is not finite")
    return h


def sample_scenario(cfg: ScenarioConfig, rep_index: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Draw one replication: amplitude, observation path, and the shared gain path.

    The gain path depends only on (channel, master_seed); the amplitude and
    noise come from a replication-specific stream, so replications are
    independent conditionally on the one realized path.
    """
    h = gen_channel(cfg.channel, cfg.master_seed, cfg.t_max)
    return (*sample_observations(cfg, rep_index, h), h)


def sample_observations(cfg: ScenarioConfig, rep_index: int,
                        h: np.ndarray) -> tuple[float, np.ndarray]:
    """``sample_scenario``'s amplitude and observations on ``h``, the gain path or a prefix:
    NumPy's normal draws are prefix-consistent, so these are the path's first ``len(h)``."""
    if not 0 <= rep_index < cfg.reps:
        raise ValueError(f"rep_index {rep_index} out of range [0, {cfg.reps})")
    arm = _H1_STREAM if cfg.truth is Hypothesis.H1 else _H0_STREAM
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, arm, rep_index]))
    x = rng.normal(cfg.params.mu_x, cfg.params.sigma_x) if arm == _H1_STREAM else 0.0
    return x, x * h + rng.normal(0.0, cfg.params.sigma, size=len(h))


@dataclass
class ArmSamples:
    """Per-replication terminal data for one truth arm (shared T and U_T)."""

    T: int
    U_T: float
    predicted: float
    x: np.ndarray
    V: np.ndarray
    logL: np.ndarray
    xhat: np.ndarray
    decision: np.ndarray  # bool, the estimation-aware rule


def stopping_index(h: np.ndarray, cal: Calibration, p: ModelParams,
                   c: CostWeights) -> tuple[int, float]:
    """First index t with cumulative energy >= gamma on the gain path ``h``, and that energy U_t.

    ``cal`` has no prior decision and ``len(h)`` is the horizon.  ``np.cumsum`` adds
    in the engine's order, so the energy is the engine's ``U_T`` bit for bit.
    An unsolved rule's threshold is resolved only as far as this path needs
    (``gfunc.threshold_bound``), which gives the same T; on horizon exhaustion
    that is the exact gamma, so the error names it.  OverflowError: U_T overflows.
    """
    with np.errstate(over="ignore"):
        energy = np.cumsum(h * h)
    gamma = cal.gamma if cal.gamma is not None else gfunc.threshold_bound(energy, cal.C, p, c)
    idx = int(np.searchsorted(energy, gamma, side="left"))
    if idx >= len(energy):
        # a property of the shared gain path, not of any one replication
        raise HorizonExhausted(
            f"gain path energy {energy[-1]} never reaches threshold {gamma} within t_max={len(h)}",
            t=len(h), U=float(energy[-1]), gamma=gamma)
    if energy[idx] == math.inf:
        raise OverflowError(f"running sums overflow a float at t={idx + 1}")
    return idx + 1, float(energy[idx])


def run_arms(cfg_pair: tuple[ScenarioConfig, ScenarioConfig],
             cal: Calibration) -> tuple[ArmSamples, ArmSamples]:
    """Draw every replication of both arms from the exact law of their terminal statistic.

    ``cfg_pair`` is an ``(H0 scenario, H1 scenario)`` pair that agrees on every
    other field.  The gain path, and with it T, U_T and the predicted cost, is
    computed once for both arms; the path is freed before any arm is drawn.  A
    stop-at-zero rule reads no channel: its (T, U_T) is (0, 0.0).
    A replication is then just the amplitude x (0 under H0,
    N(mu_x, sigma_x^2) under H1) and V_T ~ N(x*U_T, sigma^2*U_T).  One stream
    per arm, ``SeedSequence([master_seed, 3, arm])``, draws all amplitudes (H1
    only), then all V_T.  Log likelihood ratio, estimate and decision are the
    ``stats`` functions at (T, U_T, V_T), once for the whole arm; in the prior
    regime nothing is observed and they are the calibration's, as the engine
    returns them.  ConfigError: fewer than 2 replications, which leave no
    standard error.
    """
    cfg0, cfg1 = cfg_pair
    if cfg0.truth is not Hypothesis.H0 or replace(cfg0, truth=Hypothesis.H1) != cfg1:
        raise ValueError("config pair must be (H0 scenario, H1 scenario) sharing all other fields")
    p, c, n = cfg0.params, cfg0.costs, cfg0.reps
    if n < 2:
        raise ConfigError(f"Monte Carlo needs reps >= 2 for standard errors, got {n}")
    observe = cal.decision is None
    T, U_T = (stopping_index(gen_channel(cfg0.channel, cfg0.master_seed, cfg0.t_max), cal, p, c)
              if observe else (0, 0.0))
    predicted = gfunc.predicted_cost(U_T, p, c)

    arms = []
    for truth, arm in ((Hypothesis.H0, _H0_STREAM), (Hypothesis.H1, _H1_STREAM)):
        seed = np.random.SeedSequence([cfg0.master_seed, _TERMINAL_STREAM, arm])
        rng = np.random.default_rng(seed)
        x = rng.normal(p.mu_x, p.sigma_x, size=n) if truth is Hypothesis.H1 else np.zeros(n)
        if observe:
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
        arms.append(ArmSamples(T=T, U_T=U_T, predicted=predicted,
                               x=x, V=V, logL=logL, xhat=xhat, decision=decision))
    return arms[0], arms[1]


def _mean_var(a: np.ndarray) -> tuple[np.float64, np.float64]:
    """Mean and ddof=1 variance of ``a``, bit for bit ``np.mean(a)`` and ``np.var(a, ddof=1)``.

    It takes the steps of numpy's own ``_var`` but sums ``a`` once for both, so
    an overflow raises at the same step with the same message.
    """
    n = len(a)
    m = np.add.reduce(a) / n
    dev = a - m
    return m, np.add.reduce(np.square(dev)) / (n - 1)


def cost_report(arm1: ArmSamples, d0: np.ndarray, d1: np.ndarray,
                c: CostWeights, constraint_C: float) -> CostReport:
    """Cost report for decisions ``d0`` on the H0 arm and ``d1`` on the H1 arm ``arm1``."""
    n0 = len(d0)
    n1 = len(d1)
    # np.mean of a bool array is this count over n
    p0 = float(np.count_nonzero(d0) / n0)
    p0_se = math.sqrt(p0 * (1.0 - p0) / n0)
    miss = ~d1
    p1 = float(np.count_nonzero(miss) / n1)
    p1_se = math.sqrt(p1 * (1.0 - p1) / n1)

    sq_err = np.where(d1, (arm1.xhat - arm1.x) ** 2, arm1.x**2)  # per replication
    mse_d1, var_d1 = _mean_var(np.where(d1, sq_err, 0.0))
    mse_d0, var_d0 = _mean_var(np.where(d1, 0.0, sq_err))
    mse_d1, mse_d0 = float(mse_d1), float(mse_d0)

    combined = c.c0 * p0 + c.c1 * p1 + c.ce * (mse_d1 + mse_d0)
    h1_cost = c.c1 * miss + c.ce * sq_err
    combined_var = (c.c0**2) * _mean_var(d0.astype(float))[1] / n0 \
        + _mean_var(h1_cost)[1] / n1
    combined_se = math.sqrt(float(combined_var))

    return CostReport(
        reps=n1,
        p0_d1=p0, p0_d1_se=p0_se,
        p1_d0=p1, p1_d0_se=p1_se,
        mse_d1=mse_d1, mse_d1_se=math.sqrt(var_d1) / math.sqrt(n1),
        mse_d0=mse_d0, mse_d0_se=math.sqrt(var_d0) / math.sqrt(n1),
        combined=combined, combined_se=combined_se,
        predicted=arm1.predicted, constraint_C=constraint_C,
    )


def monte_carlo(cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration,
                workers: int = 1) -> CostReport:
    """Estimate the combined cost of the calibrated triplet on a shared gain path.

    Draws every replication's terminal statistic under each truth with
    ``run_arms``; the stopping index and terminal energy are common to all
    replications because the gain path is shared.  ``workers`` has no
    effect: it is accepted for compatibility, and identical configs give
    bit-identical reports.
    """
    arm0, arm1 = run_arms(cfg_pair, cal)
    return cost_report(arm1, arm0.decision, arm1.decision, cfg_pair[1].costs, cal.C)


def _separate_costs(c: CostWeights) -> CostWeights:
    """Cost weights of the separate test: the joint rule's with ce = 0."""
    if c.c1 == 0:
        raise ConfigError("separate detection needs c0 > 0 and c1 > 0")
    return replace(c, ce=0.0)


def separate_decisions(arm: ArmSamples, c: CostWeights) -> np.ndarray:
    """Estimation-blind baseline on every replication of an arm (True is H1).

    The joint rule with ce = 0: a likelihood ratio test at threshold c0/c1.
    """
    return stats.accepts_alternative(arm.logL, arm.xhat, _separate_costs(c))


def separate_predicted_cost(U_T: float, p: ModelParams, c: CostWeights) -> float:
    """Combined cost attained by the separate test at terminal energy U_T.

    G over the separate test's region (the joint rule's at ce = 0) under the
    full costs, as ``gfunc.predicted_cost`` is over the optimal region.  Where
    nothing is observed it is the cost of the separate test's prior decision.
    """
    sep = _separate_costs(c)
    if U_T * (U_T + p.kappa) == 0.0:
        h1 = stats.accepts_alternative(0.0, p.mu_x, sep)
        G = c.c0 - c.c1 - c.ce * p.mu_x**2 if h1 else 0.0
    else:
        G = gfunc.g_eval_region(U_T, *gfunc.region(U_T, p, sep), p, c)
    return gfunc.combined_cost(G, p, c)


def compare_schemes(
    cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration, workers: int = 1,
) -> tuple[CostReport, CostReport]:
    """Joint rule versus the separate detect-then-estimate baseline.

    Both schemes share the stopping index, the estimator, and every
    replication draw; only the decision rule differs, and each report's
    ``predicted`` is its own scheme's exact cost.  ``workers`` has no effect;
    it is accepted for compatibility.
    """
    arm0, arm1 = run_arms(cfg_pair, cal)
    p, c = cfg_pair[1].params, cfg_pair[1].costs
    joint = cost_report(arm1, arm0.decision, arm1.decision, c, cal.C)
    separate = cost_report(arm1, separate_decisions(arm0, c), separate_decisions(arm1, c),
                           c, cal.C)
    return joint, replace(separate, predicted=separate_predicted_cost(arm1.U_T, p, c))
