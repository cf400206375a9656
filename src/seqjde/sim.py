"""Channel generators, scenario sampling, and Monte Carlo cost estimation.

All error probabilities and squared-error terms are estimated conditionally
on one realized gain path: the path is generated from the channel model and
master seed alone, and every replication reuses it.  The stopping index and
the terminal energy are therefore identical across replications of a run,
and since ``(t, U, V)`` is sufficient, Monte Carlo draws each replication's
amplitude and terminal correlation ``V_T`` directly from their exact law
instead of sampling and folding a noise path; one ``stats.accepts_alternative``
call decides both arms.  ``sample_scenario`` draws full observation paths.
The scenario and channel model types are ``model``'s, re-exported here.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import gfunc, stats
from .errors import ConfigError, HorizonExhausted
from .gfunc import Calibration
from .model import (Ar1, ChannelModel, Constant, CostWeights, FromFile, Hypothesis, IidGaussian,
                    ModelParams, Rayleigh, ScenarioConfig, check_int, quoted)

# Stream tags keeping the draws independent: sample_scenario keys a
# replication by [seed, arm, rep], the channel by [seed, 2], and Monte Carlo's
# terminal draws by [seed, 3, arm], where arm is the truth's Hypothesis.value;
# default_rng seeds a SeedSequence with each such list.
_CHANNEL_STREAM = 2
_TERMINAL_STREAM = 3
# AR(1) innovations converted to Python floats per block of this many steps
_AR1_BLOCK = 4096


class CostReport(NamedTuple):
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        reason = exc.strerror if isinstance(exc, OSError) else exc  # str(OSError) repeats path
        raise ConfigError(f"cannot read channel file {quoted(path)}: {reason}") from exc
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
                f"channel file {quoted(path)} line {lineno}: not a finite number: {quoted(body)}"
            )
        values.append(value)
    if len(values) < t_max:
        raise ConfigError(
            f"channel file {quoted(path)} has {len(values)} values, need t_max={t_max}"
        )
    return np.asarray(values[:t_max], dtype=float)


def gen_channel(model: ChannelModel, seed: int, t_max: int) -> np.ndarray:
    """Deterministic length-``t_max`` gain path for (model, seed); OverflowError if not finite.

    Every model but AR(1) draws in time order, so a shorter path is a prefix of a longer one.
    """
    check_int("t_max", t_max, 1, size=True)
    if isinstance(model, FromFile):
        return _parse_channel_file(model.path, t_max)
    if isinstance(model, Constant):
        return np.full(t_max, float(model.h))

    rng = np.random.default_rng(np.random.SeedSequence([seed, _CHANNEL_STREAM]))
    if isinstance(model, IidGaussian):
        h = rng.normal(0.0, model.std, size=t_max)
    elif isinstance(model, Rayleigh):  # each step's real and imaginary parts in turn
        h = np.hypot(*rng.normal(0.0, model.scale, size=(t_max, 2)).T)
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
    rng = np.random.default_rng([cfg.master_seed, cfg.truth.value, rep_index])
    x = rng.normal(cfg.params.mu_x, cfg.params.sigma_x) if cfg.truth is Hypothesis.H1 else 0.0
    return x, x * h + rng.normal(0.0, cfg.params.sigma, size=len(h))


class Arms(NamedTuple):
    """Per-replication terminal data of both truth arms: T, U_T and the predicted cost
    are shared, and each array is ``(2, reps)``, row ``Hypothesis.value`` (H0 = 0, H1 = 1).
    ``x``'s H0 row is 0 (+0.0), the model's amplitude under the null."""

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


def run_arms(cfg: ScenarioConfig, cal: Calibration) -> Arms:
    """Draw every replication of both arms from the exact law of their terminal statistic.

    ``cfg`` gives every field but the truth, which is ignored: both arms are drawn.
    The gain path, and with it T, U_T and the predicted cost, is
    computed once for both arms and freed before any draw; a stop-at-zero rule
    reads no channel: its (T, U_T) is (0, 0.0).  A replication is the amplitude x
    (0 under H0, N(mu_x, sigma_x^2) under H1) and V_T ~ N(x*U_T, sigma^2*U_T).  One
    stream per arm, ``SeedSequence([master_seed, 3, arm])``, draws all amplitudes
    (H1 only), then a standard normal z per V_T: x*U_T + sigma*sqrt(U_T)*z is bit
    for bit ``rng.normal(x*U_T, sigma*sqrt(U_T))``.  Log likelihood ratio, estimate and
    decision are the ``stats`` functions at (T, U_T, V_T), in one pass over both arms;
    in the prior regime nothing is observed, the decision is the calibration's and the
    estimate the prior mean ``mu_x``, as the engine returns them.
    ConfigError: fewer than 2 replications, which leave no standard error.
    """
    p, c, n = cfg.params, cfg.costs, cfg.reps
    if n < 2:
        raise ConfigError(f"Monte Carlo needs reps >= 2 for standard errors, got {n}")
    observe = cal.decision is None
    T, U_T = (stopping_index(gen_channel(cfg.channel, cfg.master_seed, cfg.t_max), cal, p, c)
              if observe else (0, 0.0))
    predicted = gfunc.predicted_cost(U_T, p, c)
    x, z = np.zeros((2, n)), np.zeros((2, n))
    for arm in Hypothesis:
        rng = np.random.default_rng([cfg.master_seed, _TERMINAL_STREAM, arm.value])
        if arm is Hypothesis.H1:
            x[1] = rng.normal(p.mu_x, p.sigma_x, size=n)
        if observe:
            rng.standard_normal(out=z[arm.value])
    if observe:
        V = x * U_T + p.sigma * math.sqrt(U_T) * z
        terminal = stats.SufficientStats(t=T, U=U_T, V=V)
        logL, xhat = stats.log_likelihood_ratio(terminal, p), stats.estimate(terminal, p)
        decision = stats.accepts_alternative(logL, xhat, c)
    else:
        V, logL, xhat = z, np.zeros_like(z), np.full_like(z, p.mu_x)
        decision = np.full(z.shape, cal.decision is Hypothesis.H1)
    return Arms(T=T, U_T=U_T, predicted=predicted,
                x=x, V=V, logL=logL, xhat=xhat, decision=decision)


def _mean_var(a: np.ndarray) -> tuple[np.float64, np.float64]:
    """Mean and ddof=1 variance of ``a``, bit for bit ``np.mean(a)`` and ``np.var(a, ddof=1)``.

    It takes the steps of numpy's own ``_var`` but sums ``a`` once for both, so
    an overflow raises at the same step with the same message.
    """
    n = len(a)
    m = np.add.reduce(a) / n
    dev = a - m
    return m, np.add.reduce(np.square(dev)) / (n - 1)


def _h1_costs(arms: Arms, d1: np.ndarray, c: CostWeights) -> tuple[np.ndarray, np.ndarray]:
    """Squared error and cost of each H1 replication under its decision ``d1``."""
    sq_err = np.where(d1, (arms.xhat[1] - arms.x[1]) ** 2, arms.x[1]**2)
    return sq_err, c.c1 * ~d1 + c.ce * sq_err


def cost_report(arms: Arms, decision: np.ndarray, c: CostWeights,
                constraint_C: float) -> CostReport:
    """Cost report for the ``(2, reps)`` decisions ``decision`` on ``arms``, row H0 then H1."""
    d0, d1 = decision
    n = len(d1)
    # np.mean of a bool array is this count over n
    p0 = float(np.count_nonzero(d0) / n)
    p0_se = math.sqrt(p0 * (1.0 - p0) / n)
    p1 = float(np.count_nonzero(~d1) / n)
    p1_se = math.sqrt(p1 * (1.0 - p1) / n)

    sq_err, h1_cost = _h1_costs(arms, d1, c)
    mse_d1, var_d1 = _mean_var(np.where(d1, sq_err, 0.0))
    mse_d0, var_d0 = _mean_var(np.where(d1, 0.0, sq_err))
    mse_d1, mse_d0 = float(mse_d1), float(mse_d0)

    combined = c.c0 * p0 + c.c1 * p1 + c.ce * (mse_d1 + mse_d0)
    combined_var = (c.c0**2) * _mean_var(d0.astype(float))[1] / n \
        + _mean_var(h1_cost)[1] / n
    combined_se = math.sqrt(float(combined_var))

    return CostReport(
        reps=n, p0_d1=p0, p0_d1_se=p0_se, p1_d0=p1, p1_d0_se=p1_se,
        mse_d1=mse_d1, mse_d1_se=math.sqrt(var_d1) / math.sqrt(n),
        mse_d0=mse_d0, mse_d0_se=math.sqrt(var_d0) / math.sqrt(n),
        combined=combined, combined_se=combined_se,
        predicted=arms.predicted, constraint_C=constraint_C)


def difference_se(arms: Arms, a: np.ndarray, b: np.ndarray, c: CostWeights) -> float:
    """Standard error of ``combined`` under the decisions ``a`` less that under ``b``.

    Both score the same replications of ``arms``, so it is the standard error of the
    per-replication cost difference, summed over the two arms as ``combined_se`` sums
    their costs; it is exactly 0 where ``a`` and ``b`` decide alike.
    """
    n = a.shape[1]
    h0_var = _mean_var(a[0].astype(float) - b[0].astype(float))[1]
    h1_var = _mean_var(_h1_costs(arms, a[1], c)[1] - _h1_costs(arms, b[1], c)[1])[1]
    return math.sqrt(float((c.c0**2) * h0_var / n + h1_var / n))


def _h0_scenario(cfg_pair: tuple[ScenarioConfig, ScenarioConfig]) -> ScenarioConfig:
    """The H0 scenario of an ``(H0 scenario, H1 scenario)`` pair that agrees on every
    other field; ValueError for any other pair."""
    cfg0, cfg1 = cfg_pair
    if cfg0.truth is not Hypothesis.H0 or cfg0._replace(truth=Hypothesis.H1) != cfg1:
        raise ValueError("config pair must be (H0 scenario, H1 scenario) sharing all other fields")
    return cfg0


def monte_carlo(cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration,
                workers: int = 1) -> CostReport:
    """Estimate the combined cost of the calibrated triplet on a shared gain path.

    ``cfg_pair`` is an ``(H0 scenario, H1 scenario)`` pair that agrees on every
    other field.  Draws every replication's terminal statistic under each truth
    with ``run_arms``; the stopping index and terminal energy are common to all
    replications because the gain path is shared.  ``workers`` has no
    effect: it is accepted for compatibility, and identical configs give
    bit-identical reports.
    """
    cfg = _h0_scenario(cfg_pair)
    arms = run_arms(cfg, cal)
    return cost_report(arms, arms.decision, cfg.costs, cal.C)


def separate_costs(c: CostWeights) -> CostWeights:
    """Cost weights of the separate detect-then-estimate baseline: the joint rule's with
    ce = 0, a likelihood ratio test at threshold c0/c1 that ``stats.accepts_alternative``
    applies as it does the joint rule.  ConfigError: c1 = 0, where the test is undefined."""
    if c.c1 == 0:
        raise ConfigError("separate detection needs c1 > 0")
    return c._replace(ce=0.0)


def separate_predicted_cost(U_T: float, p: ModelParams, c: CostWeights) -> float:
    """Combined cost attained by the separate test at terminal energy U_T.

    G over the separate test's region (the joint rule's at ce = 0) under the
    full costs, as ``gfunc.predicted_cost`` is over the optimal region.  Where
    nothing is observed it is the cost of the separate test's prior decision.
    """
    sep = separate_costs(c)
    if U_T * (U_T + p.kappa) == 0.0:
        h1 = stats.accepts_alternative(0.0, p.mu_x, sep)
        G = c.c0 - c.c1 - c.ce * p.mu_x**2 if h1 else 0.0
    else:
        G = gfunc.g_eval_region(U_T, *gfunc.boundary(U_T, p, sep)[1:], p, c)
    return gfunc.combined_cost(G, p, c)


def compare_arms(cfg: ScenarioConfig,
                 cal: Calibration) -> tuple[CostReport, CostReport, float]:
    """Joint rule versus the separate detect-then-estimate baseline on ``run_arms(cfg, cal)``,
    and the standard error of the difference of their combined costs (``difference_se``).

    Both schemes share the stopping index, the estimator, and every
    replication draw; only the decision rule differs, and each report's
    ``predicted`` is its own scheme's exact cost.  The baseline's costs are
    derived before any gain is read, so costs it cannot run (c1 = 0) are a
    ConfigError first.
    """
    p, c = cfg.params, cfg.costs
    sep = separate_costs(c)
    arms = run_arms(cfg, cal)
    decision = stats.accepts_alternative(arms.logL, arms.xhat, sep)
    joint = cost_report(arms, arms.decision, c, cal.C)
    separate = cost_report(arms, decision, c, cal.C)._replace(
        predicted=separate_predicted_cost(arms.U_T, p, c))
    return joint, separate, difference_se(arms, arms.decision, decision, c)


def compare_schemes(
    cfg_pair: tuple[ScenarioConfig, ScenarioConfig], cal: Calibration, workers: int = 1,
) -> tuple[CostReport, CostReport]:
    """``compare_arms``' two reports for an ``(H0, H1)`` scenario pair, as ``monte_carlo``
    takes it.  ``workers`` has no effect; it is accepted for compatibility."""
    return compare_arms(_h0_scenario(cfg_pair), cal)[:2]
