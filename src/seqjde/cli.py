"""Command-line front end: JSON config in, JSON/CSV results out.

Subcommands: calibrate, gtable, simulate, montecarlo, compare.  Every
subcommand is a pure function of the config file bytes and the flags, and all
numeric output carries 17 significant digits so doubles round-trip exactly.
simulate, montecarlo and compare find the stop from the gains alone
(``sim.stopping_index``); simulate then draws only the noise up to it.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 horizon exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import engine, gfunc, sim, stats
from .errors import ConfigError, QuadratureNonConvergence, SeqjdeError
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound

_GTABLE_QUAD_TOL = 1e-9
# reps.csv and trace rows formatted per block: bounds the Python floats held by a writer
_REP_BLOCK = 1024
_TRACE_ROW = "%d" + ",%.17g" * 6 + "\n"


def _check_count(name: str, n: int, low: int = 1) -> None:
    """ConfigError unless ``n >= low`` and NumPy can address the bytes of ``n`` doubles."""
    if n < low:
        raise ConfigError(f"{name} must be >= {low}, got {n}")
    if n > sys.maxsize // 8:
        raise ConfigError(f"{name} is a size too large to allocate, got {n}")


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
        _check_count("grid.points", self.points, 2)

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
        _check_count("mc.reps", self.reps)
        _check_count("mc.t_max", self.t_max)
        if self.master_seed < 0:
            raise ValueError(f"mc.master_seed must be >= 0, got {self.master_seed}")


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
    """A JSON scalar: floats with 17 significant digits, a Hypothesis by its name."""
    if isinstance(v, float):
        return format(v, ".17g")
    return json.dumps(v.name if isinstance(v, Hypothesis) else v)


def _json_lines(v, indent: int) -> str:
    if not isinstance(v, dict):
        return _fmt(v)
    pad = "  " * indent
    inner = ",\n".join(
        f"{pad}  {json.dumps(k)}: {_json_lines(val, indent + 1)}" for k, val in v.items()
    )
    return "{\n" + inner + "\n" + pad + "}"


def _write_files(files) -> None:
    """Stream each ``(path, lines)`` in turn; a failure removes every regular file it wrote."""
    written = []
    try:
        for path, lines in files:
            with open(path, "w") as f:
                written.append(Path(path))
                f.writelines(lines)
    except BaseException as exc:
        for done in written:
            if done.is_file() and not done.is_symlink():  # a device or link written through stays
                done.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc
        raise


def _write_json(obj: dict, path: str, *sidecars) -> None:
    # a sidecar is named only once the JSON's path took a file: an --out with
    # no file name ("/", ".", "") then fails as a write, before with_suffix runs
    _write_files(itertools.chain([(path, (_json_lines(obj, 0), "\n"))], (
        (Path(path).with_suffix(f".{kind}.csv"), lines) for kind, lines in sidecars)))


def _report_dict(r: sim.CostReport) -> dict:
    """The report's fields in order, each estimate paired with its ``_se`` field."""
    doc = {name: v for name, v in vars(r).items() if not name.endswith("_se")}
    for name in ("p0_d1", "p1_d0", "mse_d1", "mse_d0", "combined"):
        doc[name] = {"value": doc[name], "stderr": getattr(r, f"{name}_se")}
    return doc


def _scenario(cfg: RunConfig, truth: Hypothesis) -> sim.ScenarioConfig:
    return sim.ScenarioConfig(
        truth=truth, params=cfg.params, costs=cfg.costs, channel=cfg.channel,
        master_seed=cfg.master_seed, reps=cfg.reps, t_max=cfg.t_max,
    )


def _scenario_pair(cfg: RunConfig) -> tuple[sim.ScenarioConfig, sim.ScenarioConfig]:
    return _scenario(cfg, Hypothesis.H0), _scenario(cfg, Hypothesis.H1)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    seed = getattr(args, "seed", None)
    reps = getattr(args, "reps", None)
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if reps is not None:
        _check_count("--reps", reps)
    overrides = {"master_seed": seed, "reps": reps}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommands

def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    p, c = cfg.params, cfg.costs
    cal = gfunc.solve_gamma(cfg.constraint_C, p, c)
    doc = {
        "regime": "observe" if cal.decision is None else "stop_at_zero",
        "gamma": cal.gamma,
        "C": cal.C,
        "C_max": admissible_cost_bound(p, c),
        "G_at_gamma": cal.G,
        "target": gfunc.threshold_target(cfg.constraint_C, p, c),
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
    failures = 0

    def lines():
        nonlocal failures
        yield "U,g,V1,V2,G,G_quadrature,abs_diff\n"
        for U in cfg.grid.values().tolist():
            pt = gfunc.g_point(U, p, c)
            quad = ","  # the zero-energy row has no quadrature
            if U != 0.0:
                try:
                    gq = gfunc.g_eval_quadrature_region(U, pt.V1, pt.V2, p, c, _GTABLE_QUAD_TOL)
                    quad = f"{gq:.17g},{abs(pt.G - gq):.17g}"
                except QuadratureNonConvergence:
                    failures += 1
            yield f"{U:.17g},{pt.g:.17g},{pt.V1:.17g},{pt.V2:.17g},{pt.G:.17g},{quad}\n"

    _write_files([(args.out, lines())])
    if failures:
        print(f"gtable: quadrature failed on {failures} grid point(s)", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    xo = args.x_override
    if xo is not None and not math.isfinite(xo):
        raise ConfigError(f"--x-override must be finite, got {xo}")
    p, c = cfg.params, cfg.costs
    cal = gfunc.stopping_rule(cfg.constraint_C, p, c)
    y = h = np.empty(0)  # a stop-at-zero rule reads no channel
    if cal.decision is None:
        h = sim.gen_channel(cfg.channel, cfg.master_seed, cfg.t_max)
        h = h[:sim.stopping_index(h, cal, p, c)[0]].copy()
        x, y = sim.sample_observations(_scenario(cfg, Hypothesis[args.truth]), 0, h)
        if xo is not None:
            y = y + (xo - x) * h

    run = stats.running(y, h)  # row t after t steps, row 0 before any
    last = stats.SufficientStats(*(a[-1].item() for a in (run.t, run.U, run.V)))
    outcome = asdict(engine.outcome(last, cal, p, c))  # rejects a non-finite U, V before the logs
    with np.errstate(over="ignore"):  # an overflow is an inf, as in the engine's Python floats
        logL, xhat = stats.log_likelihood_ratio(run, p), stats.estimate(run, p)
    table = (run.t[1:], h, y, run.U[1:], run.V[1:], logL[1:], xhat[1:])  # rows t = 1..T

    def trace():
        yield "t,h,y,U,V,logL,xhat\n"
        for start in range(0, len(h), _REP_BLOCK):
            cells = np.column_stack([a[start:start + _REP_BLOCK] for a in table])
            yield _TRACE_ROW * len(cells) % tuple(cells.ravel().tolist())

    _write_json(outcome, args.out, ("trace", trace()))
    return 0


def _rep_lines(arm0: sim.ArmSamples, arm1: sim.ArmSamples):
    """reps.csv: one line per replication, the H0 arm first; no estimate where H0 is decided.

    Yields the header, then one string per block of at most ``_REP_BLOCK`` rows
    of an arm, formatted by one ``%``, so the Python floats alive at a time do
    not grow with the number of replications.
    """
    yield "rep,arm,x,decision,estimate\n"
    for tag, arm in enumerate((arm0, arm1)):
        rows = (f"%d,{tag:d},%.17g,0,\n", f"%d,{tag:d},%.17g,1,%.17g\n")
        for start in range(0, len(arm.x), _REP_BLOCK):
            block = slice(start, start + _REP_BLOCK)
            x, xhat, d = arm.x[block], arm.xhat[block], arm.decision[block]
            # object dtype keeps rep a Python int, which %d formats faster than a float
            rep = np.arange(start, start + len(x), dtype=object)
            keep = d[:, None] | np.array([True, True, False])  # no estimate where H0 is decided
            cells = np.column_stack((rep, x, xhat))[keep].tolist()
            yield "".join(map(rows.__getitem__, d.tolist())) % tuple(cells)


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    cal = gfunc.stopping_rule(cfg.constraint_C, cfg.params, cfg.costs)
    arm0, arm1 = sim.run_arms(_scenario_pair(cfg), cal)
    report = sim.cost_report(arm1, arm0.decision, arm1.decision, cfg.costs, cal.C)
    _write_json(_report_dict(report), args.out, ("reps", _rep_lines(arm0, arm1)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    cal = gfunc.stopping_rule(cfg.constraint_C, cfg.params, cfg.costs)
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


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The parser, which binds each ``cmd_*`` handler, is built on the first call and reused.
    """
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="raise"):
            return args.run(args)
    except (OverflowError, FloatingPointError) as exc:
        # a config value too large for float arithmetic: mu_x**2, float(10**400), h = 1e300
        print(f"seqjde: a config value overflows a float: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an array of mc.reps, mc.t_max or grid.points doubles that memory cannot hold
        print(f"seqjde: a size is too large to allocate: {exc}", file=sys.stderr)
        return 2
    except SeqjdeError as exc:
        print(f"seqjde: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
