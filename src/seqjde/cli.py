"""Command-line front end: JSON config in, JSON/CSV results out.

Subcommands: calibrate, gtable, simulate, montecarlo, compare.  Every
subcommand is a pure function of the config file bytes and the flags, and all
numeric output carries 17 significant digits so doubles round-trip exactly.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 horizon
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import engine, gfunc, sim, stats
from .errors import HorizonExhausted, NumericalError, QuadratureNonConvergence, SeqjdeError
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound

_GTABLE_QUAD_TOL = 1e-9
# exit codes of the library errors; every other SeqjdeError is a config error (2)
_EXIT_CODES = {NumericalError: 3, QuadratureNonConvergence: 3, HorizonExhausted: 4}


class ConfigError(SeqjdeError):
    """The run configuration is malformed or violates a precondition."""


@dataclass(frozen=True)
class GridSpec:
    u_min: float
    u_max: float
    points: int
    spacing: str

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"grid.spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.u_min) and math.isfinite(self.u_max)) \
                or self.u_min < 0 or self.u_min >= self.u_max:
            raise ValueError(f"grid needs 0 <= u_min < u_max, got [{self.u_min}, {self.u_max}]")
        if self.spacing == "log" and self.u_min <= 0:
            raise ValueError("log spacing needs u_min > 0")
        if self.points < 2:
            raise ValueError(f"grid.points must be >= 2, got {self.points}")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.u_min), math.log10(self.u_max), self.points)
        return np.linspace(self.u_min, self.u_max, self.points)


@dataclass(frozen=True)
class McSpec:
    reps: int
    master_seed: int
    t_max: int

    def __post_init__(self):
        for name, low in (("reps", 1), ("t_max", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"mc.{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    costs: CostWeights
    constraint_C: float
    channel: sim.ChannelModel
    reps: int
    master_seed: int
    t_max: int
    grid: GridSpec | None


def _require_keys(section: dict, allowed: dict[str, bool], where: str) -> None:
    """allowed maps key -> required; unknown keys are rejected."""
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing key {key!r} in {where}")


# JSON types accepted for each field type.  The package postpones
# annotations, so a dataclass field's type is the string "float", "int" or "str".
_JSON_TYPES = {"float": (int, float), "int": int, "str": str}


def _read_value(section: dict, key: str, kind: str, where: str):
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[kind]):
        raise ConfigError(f"{where}.{key} must be of type {kind}, got {v!r}")
    return float(v) if kind == "float" else v


_CHANNEL_TYPES = {
    "constant": sim.Constant,
    "iid_gaussian": sim.IidGaussian,
    "rayleigh": sim.Rayleigh,
    "ar1": sim.Ar1,
    "from_file": sim.FromFile,
}


def _read_section(section, cls, where: str):
    """Build dataclass ``cls`` from a JSON object whose keys are exactly its fields.

    Each field is read by its annotated type (``float``, ``int`` or ``str``);
    a ValueError from the dataclass's own checks becomes a ConfigError.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a JSON object, got {section!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    _require_keys(section, dict.fromkeys(kinds, True), where)
    values = {name: _read_value(section, name, kind, where) for name, kind in kinds.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_channel(section) -> sim.ChannelModel:
    if not isinstance(section, dict) or "type" not in section:
        raise ConfigError("channel section must be an object with a 'type' key")
    kind = section["type"]
    cls = _CHANNEL_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown channel type {kind!r}")
    body = {key: v for key, v in section.items() if key != "type"}
    return _read_section(body, cls, f"channel({kind})")


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, {"model": True, "costs": True, "constraint_C": True,
                        "channel": True, "mc": True, "grid": False}, "config")
    mc = _read_section(raw["mc"], McSpec, "mc")
    return RunConfig(
        params=_read_section(raw["model"], ModelParams, "model"),
        costs=_read_section(raw["costs"], CostWeights, "costs"),
        constraint_C=_read_value(raw, "constraint_C", "float", "config"),
        channel=_parse_channel(raw["channel"]),
        reps=mc.reps, master_seed=mc.master_seed, t_max=mc.t_max,
        grid=_read_section(raw["grid"], GridSpec, "grid") if "grid" in raw else None,
    )


# ---------------------------------------------------------------------------
# deterministic emission: 17 significant digits, stable key order

def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, Hypothesis):
        return json.dumps(v.name)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot format {v!r}")


def _json_lines(v, indent: int) -> str:
    pad = "  " * indent
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_json_lines(val, indent + 1)}" for k, val in v.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_lines(val, indent + 1)}" for val in v)
        return "[\n" + inner + "\n" + pad + "]"
    return _fmt(v)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_json(obj: dict, path: str) -> None:
    _write_text(path, _json_lines(obj, 0) + "\n")


def _write_csv(header: list[str], rows: list[list], path) -> None:
    lines = [",".join(header)]
    lines.extend(",".join("" if v is None else _fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _sidecar(out_path: str, kind: str) -> Path:
    return Path(out_path).with_suffix(f".{kind}.csv")


def _report_dict(r: sim.CostReport) -> dict:
    return {
        "reps": r.reps,
        "p0_d1": {"value": r.p0_d1, "stderr": r.p0_d1_se},
        "p1_d0": {"value": r.p1_d0, "stderr": r.p1_d0_se},
        "mse_d1": {"value": r.mse_d1, "stderr": r.mse_d1_se},
        "mse_d0": {"value": r.mse_d0, "stderr": r.mse_d0_se},
        "combined": {"value": r.combined, "stderr": r.combined_se},
        "predicted": r.predicted,
        "constraint_C": r.constraint_C,
    }


def _scenario_pair(cfg: RunConfig) -> tuple[sim.ScenarioConfig, sim.ScenarioConfig]:
    mk = lambda truth: sim.ScenarioConfig(
        truth=truth, params=cfg.params, costs=cfg.costs, channel=cfg.channel,
        master_seed=cfg.master_seed, reps=cfg.reps, t_max=cfg.t_max,
    )
    return mk(Hypothesis.H0), mk(Hypothesis.H1)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    seed = getattr(args, "seed", None)
    reps = getattr(args, "reps", None)
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if reps is not None and reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {reps}")
    overrides = {"master_seed": seed, "reps": reps}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _mc_config(args: argparse.Namespace) -> RunConfig:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.reps < 2:
        raise ConfigError(f"{args.command} needs reps >= 2 for standard errors, got {cfg.reps}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    p, c = cfg.params, cfg.costs
    cal = gfunc.solve_gamma(cfg.constraint_C, p, c)
    target = cfg.constraint_C - c.c1 - c.ce * (p.mu_x**2 + p.sigma_x**2)
    doc = {
        "regime": cal.regime.value,
        "gamma": cal.gamma,
        "C": cal.C,
        "C_max": admissible_cost_bound(p, c),
        "G_at_gamma": None if cal.gamma is None else gfunc.g_eval(cal.gamma, p, c),
        "target": target,
        "decision": cal.decision,
        "estimate": cal.estimate,
    }
    _write_json(doc, args.out)
    return 0


def cmd_gtable(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.grid is None:
        raise ConfigError("gtable requires a 'grid' section in the config")
    p, c = cfg.params, cfg.costs
    rows = []
    failures = 0
    for U in cfg.grid.values().tolist():
        pt = gfunc.g_point(U, p, c)
        gq = None  # the zero-energy row has no quadrature
        if U != 0.0:
            try:
                gq = gfunc.g_eval_quadrature(U, p, c, tol=_GTABLE_QUAD_TOL)
            except QuadratureNonConvergence:
                failures += 1
        rows.append([U, pt.g, pt.V1, pt.V2, pt.G, gq, None if gq is None else abs(pt.G - gq)])
    _write_csv(["U", "g", "V1", "V2", "G", "G_quadrature", "abs_diff"], rows, args.out)
    if failures:
        print(f"gtable: quadrature failed on {failures} grid point(s)", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    p, c = cfg.params, cfg.costs
    scen = _scenario_pair(cfg)[Hypothesis[args.truth].value]
    x, y, h = sim.sample_scenario(scen, 0)
    if args.x_override is not None:
        if not math.isfinite(args.x_override):
            raise ConfigError(f"--x-override must be finite, got {args.x_override}")
        y = y + (args.x_override - x) * h
        x = args.x_override

    cal = gfunc.solve_gamma(cfg.constraint_C, p, c)
    y_list, h_list = y.tolist(), h.tolist()
    out = engine.run_sequential(zip(y_list, h_list), cal, p, c, cfg.t_max)

    doc = {
        "T": out.T,
        "decision": out.decision,
        "estimate": out.estimate,
        "U_T": out.U_T,
        "V_T": out.V_T,
        "logL_T": out.logL_T,
        "predicted_cost": out.predicted_cost,
    }
    _write_json(doc, args.out)

    trace = []
    s = stats.init()
    for t in range(out.T):
        s = stats.update(s, y_list[t], h_list[t])
        trace.append([s.t, h_list[t], y_list[t], s.U, s.V,
                      stats.log_likelihood_ratio(s, p), stats.estimate(s, p)])
    _write_csv(["t", "h", "y", "U", "V", "logL", "xhat"], trace,
               _sidecar(args.out, "trace"))
    return 0


def _rep_rows(arm: sim.ArmSamples, arm_tag: int) -> list[list]:
    # one of the two squared errors is zero in each row, so their sum is the other
    err_d1, err_d0 = arm.squared_errors(arm.decision)
    columns = (arm.x.tolist(), arm.decision.tolist(), arm.xhat.tolist(),
               (err_d1 + err_d0).tolist())
    return [[rep, arm_tag, x, int(d), xhat if d else None, err]
            for rep, (x, d, xhat, err) in enumerate(zip(*columns))]


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = _mc_config(args)
    cal = gfunc.solve_gamma(cfg.constraint_C, cfg.params, cfg.costs)
    arm0, arm1 = sim.run_arms(_scenario_pair(cfg), cal)
    report = sim.cost_report(arm1, arm0.decision, arm1.decision, cfg.costs, cal.C)
    _write_json(_report_dict(report), args.out)
    rows = _rep_rows(arm0, 0) + _rep_rows(arm1, 1)
    _write_csv(["rep", "arm", "x", "decision", "estimate", "sq_err"], rows,
               _sidecar(args.out, "reps"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _mc_config(args)
    cal = gfunc.solve_gamma(cfg.constraint_C, cfg.params, cfg.costs)
    joint, separate = sim.compare_schemes(_scenario_pair(cfg), cal)
    diff = joint.combined - separate.combined
    diff_se = math.sqrt(joint.combined_se**2 + separate.combined_se**2)
    doc = {
        "joint": _report_dict(joint),
        "separate": _report_dict(separate),
        "difference": {"value": diff, "stderr": diff_se},
    }
    _write_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqjde",
        description="Sequential joint detection and estimation: calibration, "
                    "simulation, and Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, run, mc=False):
        sp.set_defaults(run=run)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", required=True, help="output path (JSON or CSV)")
        if mc:
            sp.add_argument("--seed", type=int, default=None,
                            help="override mc.master_seed")
            sp.add_argument("--reps", type=int, default=None, help="override mc.reps")
            sp.add_argument("--workers", type=int, default=1,
                            help="accepted for compatibility; has no effect")

    common(sub.add_parser("calibrate", help="solve the stopping threshold"), cmd_calibrate)
    common(sub.add_parser("gtable", help="tabulate the energy-cost function on a grid"),
           cmd_gtable)
    sp = sub.add_parser("simulate", help="run one replication with a full trace")
    common(sp, cmd_simulate)
    sp.add_argument("--truth", required=True, choices=["H0", "H1"])
    sp.add_argument("--x-override", type=float, default=None, dest="x_override",
                    help="force the amplitude instead of drawing it")
    sp.add_argument("--seed", type=int, default=None, help="override mc.master_seed")
    common(sub.add_parser("montecarlo", help="estimate all cost terms by Monte Carlo"),
           cmd_montecarlo, mc=True)
    common(sub.add_parser("compare", help="joint rule versus separate detect-then-estimate"),
           cmd_compare, mc=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise"):
            return args.run(args)
    except (OverflowError, FloatingPointError) as exc:
        # a config value too large for float arithmetic: mu_x**2, float(10**400), h = 1e300
        print(f"seqjde: a config value overflows a float: {exc}", file=sys.stderr)
        return 2
    except SeqjdeError as exc:
        print(f"seqjde: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
