"""Command-line front end: JSON config in, JSON/CSV results out.

Subcommands: calibrate, gtable, simulate, montecarlo, compare.  Every
subcommand is a pure function of the config file bytes and the flags, and all
numeric output carries 17 significant digits so doubles round-trip exactly.
simulate, montecarlo and compare find the stop from the gains alone
(``sim.stopping_index``); simulate then draws only the noise up to it.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 horizon exhaustion.
Importing the module, ``load_config`` and calibrate load no NumPy: the other
subcommands import it, and the array modules, only once their config is checked.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import gfunc, model
from .errors import ConfigError, QuadratureNonConvergence, SeqjdeError
from .model import CostWeights, Hypothesis, ModelParams, admissible_cost_bound, check_int, quoted

if TYPE_CHECKING:  # for annotations only: NumPy and sim load in the subcommands
    import numpy as np
    from . import sim

# reps.csv, trace and gtable rows formatted per block: bounds the Python floats held by a
# writer, and each block is one os.write
_REP_BLOCK = 1024
_TRACE_ROW = "%d" + ",%.17g" * 6 + "\n"
# a reps.csv row by arm, then decision: the model fixes H0's amplitude at 0, and a row
# that decides H0 has no estimate, which its template takes as "" by %s
_REP_ROWS = (("%d,0,0,0,%s\n", "%d,0,0,1,%.17g\n"),
             ("%d,1,%.17g,0,%s\n", "%d,1,%.17g,1,%.17g\n"))
# what open(path, "wb") passes, without its buffer: O_BINARY keeps Windows from writing \r\n
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


class GridSpec(model.Record):
    u_min: float
    u_max: float
    points: int
    spacing: str

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"grid.spacing must be 'linear' or 'log', got {quoted(self.spacing)}")
        if not (math.isfinite(self.u_min) and math.isfinite(self.u_max)) \
                or self.u_min < 0 or self.u_min >= self.u_max:
            raise ValueError(f"grid needs 0 <= u_min < u_max, got [{self.u_min}, {self.u_max}]")
        if self.spacing == "log" and self.u_min <= 0:
            raise ValueError("log spacing needs u_min > 0")
        check_int("grid.points", self.points, 2, size=True)

    def values(self) -> np.ndarray:
        import numpy as np
        if self.spacing == "log":
            return np.logspace(math.log10(self.u_min), math.log10(self.u_max), self.points)
        return np.linspace(self.u_min, self.u_max, self.points)


class RunConfig(model.ScenarioConfig):
    """A run config: its H0 arm's scenario, plus the level C and the gtable grid."""

    constraint_C: float
    grid: GridSpec | None


def _require_keys(section: dict, allowed: dict[str, bool], where: str) -> None:
    """allowed maps key -> required; unknown keys are rejected."""
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {quoted(key)} in {where}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing key {key!r} in {where}")


# JSON types accepted for each field type.  The package postpones
# annotations, so a record field's type is the string "float", "int" or "str".
_JSON_TYPES = {"float": (int, float), "int": int, "str": str}


def _read_value(section: dict, key: str, kind: str, where: str):
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[kind]):
        raise ConfigError(f"{where}.{key} must be of type {kind}, got {quoted(v)}")
    return float(v) if kind == "float" else v


_CHANNEL_TYPES = {
    "constant": model.Constant,
    "iid_gaussian": model.IidGaussian,
    "rayleigh": model.Rayleigh,
    "ar1": model.Ar1,
    "from_file": model.FromFile,
}


def _read_section(section, cls, where: str, **given):
    """Build record ``cls`` from ``given`` and a JSON object keyed by exactly its other fields.

    Each field is read by its annotated type (``float``, ``int`` or ``str``);
    a ValueError from the record's own checks becomes a ConfigError.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a JSON object, got {quoted(section)}")
    kinds = {name: kind for name, kind in cls._kinds.items() if name not in given}
    if section.keys() != kinds.keys():
        _require_keys(section, dict.fromkeys(kinds, True), where)
    values = {name: _read_value(section, name, kind, where) for name, kind in kinds.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_channel(section) -> model.ChannelModel:
    if not isinstance(section, dict) or "type" not in section:
        raise ConfigError("channel section must be an object with a 'type' key")
    kind = section["type"]
    cls = _CHANNEL_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown channel type {quoted(kind)}")
    body = {key: v for key, v in section.items() if key != "type"}
    return _read_section(body, cls, f"channel({kind})")


def load_config(path: str, master_seed: int | None = None, reps: int | None = None) -> RunConfig:
    """Read and check a run config; ``truth`` is H0.  A ``master_seed`` or ``reps`` given (the
    ``--seed`` and ``--reps`` flags) replaces the ``mc`` section's, which is checked first, by
    the same rule: the run sizes are ``model.ScenarioConfig``'s."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.loads(f.read())
    except OSError as exc:  # str(exc) repeats the path
        raise ConfigError(f"cannot read config {quoted(path)}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep or long
        raise ConfigError(f"config {quoted(path)} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, {"model": True, "costs": True, "constraint_C": True,
                        "channel": True, "mc": True, "grid": False}, "config")
    given = dict(truth=Hypothesis.H0, params=_read_section(raw["model"], ModelParams, "model"),
                 costs=_read_section(raw["costs"], CostWeights, "costs"),
                 constraint_C=_read_value(raw, "constraint_C", "float", "config"),
                 channel=_parse_channel(raw["channel"]), grid=None)
    cfg = _read_section(raw["mc"], RunConfig, "mc", **given)
    flags = {k: v for k, v in (("master_seed", master_seed), ("reps", reps)) if v is not None}
    if flags:
        cfg = _read_section({**raw["mc"], **flags}, RunConfig, "mc", **given)
    if "grid" in raw:
        cfg = cfg._replace(grid=_read_section(raw["grid"], GridSpec, "grid"))
    return cfg


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
        f"{pad}  {encode_basestring_ascii(k)}: {_json_lines(val, indent + 1)}"
        for k, val in v.items()
    )
    return "{\n" + inner + "\n" + pad + "}"


def _write_files(files) -> None:
    """Write each ``(path, chunks)`` in turn as UTF-8 bytes, one ``os.write`` per chunk
    until it is all written, so every platform writes the same ``\\n``.  The open
    truncates and writes through, as ``open(path, "wb")`` does; a failure removes
    every regular file it wrote."""
    written = []
    try:
        for path, chunks in files:
            fd = os.open(path, _WRITE_FLAGS, 0o666)
            try:
                written.append(path)
                for chunk in chunks:
                    data = memoryview(chunk.encode())
                    while data:
                        data = data[os.write(fd, data):]
            finally:
                os.close(fd)
    except BaseException as exc:
        for done in map(Path, written):
            if done.is_file() and not done.is_symlink():  # a device or link written through stays
                done.unlink()
        if isinstance(exc, OSError):
            # str(exc) repeats the path
            raise ConfigError(f"cannot write {quoted(str(path))}: {exc.strerror or exc}") from exc
        raise


def _write_json(obj: dict, path: str, *sidecars) -> None:
    # a sidecar is named only once the JSON's path took a file: an --out with
    # no file name ("/", ".", "") then fails as a write, before with_suffix runs
    _write_files(itertools.chain([(path, (_json_lines(obj, 0) + "\n",))], (
        (Path(path).with_suffix(f".{kind}.csv"), lines) for kind, lines in sidecars)))


def _blocks(lines):
    """The strings of ``lines`` joined in blocks of at most ``_REP_BLOCK``."""
    while block := "".join(itertools.islice(lines, _REP_BLOCK)):
        yield block


def _report_dict(r: sim.CostReport) -> dict:
    """The report's fields in order, each estimate paired with its ``_se`` field."""
    doc = {name: v for name, v in r._asdict().items() if not name.endswith("_se")}
    for name in ("p0_d1", "p1_d0", "mse_d1", "mse_d0", "combined"):
        doc[name] = {"value": doc[name], "stderr": getattr(r, f"{name}_se")}
    return doc


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
        "estimate": p.mu_x if cal.decision is Hypothesis.H1 else None,
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
            g, V1, V2, G = gfunc.g_point(U, p, c)
            quad = ","  # the zero-energy row has no quadrature
            if U != 0.0:
                try:
                    gq = gfunc.g_eval_quadrature_region(U, V1, V2, p, c)
                    quad = f"{gq:.17g},{abs(G - gq):.17g}"
                except QuadratureNonConvergence:
                    failures += 1
            yield f"{U:.17g},{g:.17g},{V1:.17g},{V2:.17g},{G:.17g},{quad}\n"

    import numpy as np
    with np.errstate(over="raise"):  # an overflow in array work is FloatingPointError, exit 2
        _write_files([(args.out, _blocks(lines()))])
    if failures:
        print(f"gtable: quadrature failed on {failures} grid point(s)", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.seed)
    xo = args.x_override
    if xo is not None and not math.isfinite(xo):
        raise ConfigError(f"--x-override must be finite, got {xo}")
    import numpy as np
    from . import engine, sim, stats
    with np.errstate(over="raise"):
        p, c = cfg.params, cfg.costs
        cal = gfunc.stopping_rule(cfg.constraint_C, p, c)
        y = h = np.empty(0)  # a stop-at-zero rule reads no channel
        if cal.decision is None:
            h = sim.gen_channel(cfg.channel, cfg.master_seed, cfg.t_max)
            h = h[:sim.stopping_index(h, cal, p, c)[0]].copy()
            x, y = sim.sample_observations(cfg._replace(truth=Hypothesis[args.truth]), 0, h)
            if xo is not None:
                y = y + (xo - x) * h

        run = stats.running(y, h)  # row t after t steps, row 0 before any
        last = stats.SufficientStats(*(a[-1].item() for a in run))
        outcome = engine.outcome(last, cal, p, c)._asdict()  # rejects inf/nan U, V before the logs
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


def _rep_lines(arms: sim.Arms):
    """reps.csv: one line per replication, the H0 row first; no estimate where H0 is decided.

    Yields the header, then one string per block of at most ``_REP_BLOCK`` lines
    of each row in turn, formatted by one ``%``, so the Python floats alive at a
    time do not grow with the number of replications.  H0's amplitudes are not
    read: the model fixes them at 0.
    """
    yield "rep,arm,x,decision,estimate\n"
    n = arms.x.shape[1]
    for arm, rows in enumerate(_REP_ROWS):
        w = 2 + arm  # the cells of a row: rep, the amplitude on H1, the estimate
        for start in range(0, n, _REP_BLOCK):
            block = slice(start, min(start + _REP_BLOCK, n))
            d = arms.decision[arm, block]
            estimate = arms.xhat[arm, block].astype(object)
            estimate[~d] = ""
            cells = [None] * (w * len(d))
            cells[0::w] = range(start, block.stop)  # Python ints, which %d formats fastest
            if arm:
                cells[1::w] = arms.x[arm, block].tolist()
            cells[w - 1::w] = estimate.tolist()
            yield "".join([rows[k] for k in d.tolist()]) % tuple(cells)


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.seed, args.reps)
    import numpy as np
    from . import sim
    with np.errstate(over="raise"):
        cal = gfunc.stopping_rule(cfg.constraint_C, cfg.params, cfg.costs)
        arms = sim.run_arms(cfg, cal)
        report = sim.cost_report(arms, arms.decision, cfg.costs, cal.C)
        _write_json(_report_dict(report), args.out, ("reps", _rep_lines(arms)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.seed, args.reps)
    import numpy as np
    from . import sim
    with np.errstate(over="raise"):
        cal = gfunc.stopping_rule(cfg.constraint_C, cfg.params, cfg.costs)
        joint, separate, diff_se = sim.compare_arms(cfg, cal)
        doc = {
            "joint": _report_dict(joint),
            "separate": _report_dict(separate),
            "difference": {"value": joint.combined - separate.combined, "stderr": diff_se},
        }
        _write_json(doc, args.out)
    return 0


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name."""
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
    return parser, dict(sub.choices)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``'s namespace, or its message and exit.

    A known subcommand is parsed by its own parser alone, which is what the top-level
    parser hands it to.  No subcommand, an unknown one, a top-level option, or
    arguments the subcommand leaves unrecognised go to the top-level parser, so every
    message and exit code is its own.
    """
    parser, subcommands = _parsers()  # built on the first call and reused
    argv = sys.argv[1:] if argv is None else argv
    own = subcommands.get(argv[0]) if argv else None
    if own is not None:
        args, rest = own.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]  # as the top-level parser's dest="command" records it
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The parser, which binds each ``cmd_*`` handler, is built on the first call and reused.
    """
    args = _parse_args(argv)
    try:
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
