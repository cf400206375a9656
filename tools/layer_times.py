"""Per-layer times of seqjde, measured inside whole calls on the real call path.

Usage::

    python3 tools/layer_times.py [SRC_DIR] [--batches N] [--calls K]

SRC_DIR is the ``src/`` directory to import ``seqjde`` from (default: this
checkout's).  Each row of ``rows`` runs whole calls with named functions wrapped,
and prints each one's self time or call count: the fastest of N batches (default
100) of K calls (default 20).  Then RUNS fresh interpreters, one at a time, run
each subcommand.  tools/README.md's "Layer times" says what each row runs and prints.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import inspect
import itertools
import json
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
BENCH = str(ROOT / "bench" / "run.py")  # run as a module for its configs, never as __main__
RUNS = 7  # fresh interpreters per subcommand
SAMPLES = 10_000  # the engine row's stream of unit gains, so that it stops at t = SAMPLES
STAGES = (("argparse", "cli._parse_args"), ("load_config", "cli.load_config"),
          ("stopping_rule", "gfunc.stopping_rule"), ("run_arms", "sim.run_arms"),
          ("cost_report", "sim.cost_report"), ("report_json", "cli._json_lines"),
          ("reps_csv", "cli._rep_lines"), ("file_writes", "cli._write_files"))
# runs one subcommand and reports on the last line of standard output: the ms spent
# importing seqjde and running the call, whether the call imported NumPy (the import
# did where it did not), and its peak RSS as VmHWM, since ru_maxrss keeps the peak of
# the process that started it
CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from seqjde import cli
t1 = time.perf_counter()
imported = "numpy" in sys.modules
rc = cli.main(sys.argv[2:])
t2 = time.perf_counter()
loaded = [name for name in sys.modules
          if name.startswith("scipy.") and name.count(".") == 1 and name[6] != "_"]
with open("/proc/self/status") as f:
    hwm = next(line for line in f if line.startswith("VmHWM:"))
print(json.dumps({"import_seqjde": (t1 - t0) * 1e3, "run": (t2 - t1) * 1e3,
                  "run_loads_numpy": int("numpy" in sys.modules and not imported),
                  "scipy": len(loaded), "peak_rss_mb": int(hwm.split()[1]) / 1024}))
sys.exit(rc)
"""


def target(name: str) -> tuple[object, str]:
    """``"cli._parse_args"`` as (the module ``seqjde.cli``, ``"_parse_args"``)."""
    module, attr = name.split(".")
    return importlib.import_module(f"seqjde.{module}"), attr


class Row(NamedTuple):
    name: str
    call: Callable[[], object]  # one whole call
    layers: tuple  # of (label, "module.function", or None for the whole call unwrapped, unit)
    per: int = 1  # replications or samples per whole call
    # files a call writes, unlinked untimed before each call as bench/run.py does: a call
    # then writes new files, where truncating the last call's outputs would cost more
    outputs: tuple = ()


def _argv(tmp: Path, name: str, command: str, config: dict) -> list[str]:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    return [command, "--config", str(path), "--out", str(tmp / f"{name}.out")]


def _main(argv: list[str]) -> None:
    if importlib.import_module("seqjde.cli").main(argv) != 0:
        sys.exit(f"layer_times: {' '.join(argv)} failed")


def rows(tmp: Path) -> list[Row]:
    """Every in-process row, on configs written to ``tmp``."""
    bench = runpy.run_path(BENCH)
    mc, wide = (bench["config_dict"](bench["WORKLOADS"][name], 1)
                for name in ("mc-short", "gtable-wide"))
    gains = tmp / "gains.txt"
    gains.write_text("0.8\n" * mc["mc"]["t_max"])

    def cli_row(name, command, config, layers, per=1):
        argv = _argv(tmp, name, command, config)
        out = Path(argv[-1])
        return Row(name, lambda: _main(argv), tuple(layers), per,
                   (out, out.with_suffix(".reps.csv"), out.with_suffix(".trace.csv")))

    table = [
        cli_row("mc-short", "montecarlo", mc,
                [(label, name, "us") for label, name in STAGES] + [("main", None, "us")]),
        cli_row("gtable-wide", "gtable", wide,
                [(name, f"gfunc.{name}", "us")
                 for name in ("boundary", "g_eval_region", "g_eval_quadrature_region")]),
    ]
    for C in (1.5, 0.2, 0.01):
        # gamma is 84,749.4 at C = 0.01, which mc-short's t_max of 1000 does not reach
        config = {**mc, "constraint_C": C, "mc": {**mc["mc"], "t_max": 100_000}}
        for command, name in (("calibrate", "solve_gamma"), ("montecarlo", "threshold_bound")):
            table.append(cli_row(f"{command}@C={C}", command, config,
                                 [(name, f"gfunc.{name}", "us"),
                                  ("_margin_root", "gfunc._margin_root", "calls")]))
    per_rep = [(name, f"sim.{name}", "us/rep") for name in ("run_arms", "cost_report")]
    for channel in (bench["UNIT_GAIN"], {"type": "iid_gaussian", "std": 1.0},
                    {"type": "rayleigh", "scale": 0.8}, bench["AR1"],
                    {"type": "from_file", "path": str(gains)}):
        config = {**mc, "channel": channel}
        table.append(cli_row(channel["type"], "montecarlo", config, per_rep, mc["mc"]["reps"]))

    engine, gfunc, model = (importlib.import_module(f"seqjde.{name}")
                            for name in ("engine", "gfunc", "model"))
    p, c = model.ModelParams(**mc["model"]), model.CostWeights(**mc["costs"])
    cal = gfunc.Calibration(C=mc["constraint_C"], gamma=float(SAMPLES))
    stream = itertools.repeat((0.5, 1.0))  # (y, h): run_sequential reads SAMPLES of it
    table.append(Row("engine", lambda: engine.run_sequential(stream, cal, p, c, SAMPLES),
                     (("run_sequential", "engine.run_sequential", "ns/sample"),), SAMPLES))
    return table


class Clock:
    """Self time and call count of each wrapped function, over one batch."""

    def __init__(self):
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.open = []  # [label, seconds in wrapped callees] of each timed call under way

    def run(self, label: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its time added to ``label``'s and to its caller's callees'."""
        self.open.append(frame := [label, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - t0
            self.open.pop()
            self.self_s[label] += spent - frame[1]
            if self.open:
                self.open[-1][1] += spent

    def wrap(self, label: str, fn, unit: str):
        def timed(*args, **kwargs):
            if any(frame[0] == label for frame in self.open):  # recursion: the outer call times it
                return fn(*args, **kwargs)
            self.calls[label] += 1
            if unit == "calls":
                return fn(*args, **kwargs)
            return self.run(label, fn, *args, **kwargs)

        def consumed(*args, **kwargs):  # a generator's work runs as it is consumed
            self.calls[label] += 1
            gen, done = fn(*args, **kwargs), object()
            while (item := self.run(label, next, gen, done)) is not done:
                yield item

        return consumed if unit != "calls" and inspect.isgeneratorfunction(fn) else timed


def unlink(paths) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def time_row(row: Row, batches: int, calls: int) -> list[tuple[str, float, str]]:
    """(layer, value, unit) for each of ``row``'s layers, each value the fastest of
    ``batches`` batches of ``calls`` whole calls.  A function never called reads 0."""
    best = {}
    for _ in range(batches):
        clock = Clock()
        with contextlib.ExitStack() as wrapped:  # each patch puts its attribute back on exit
            for label, name, unit in row.layers:
                if name is not None:
                    module, attr = target(name)
                    fn = clock.wrap(label, getattr(module, attr), unit)
                    wrapped.enter_context(mock.patch.object(module, attr, fn))
            for _ in range(calls):
                unlink(row.outputs)
                row.call()
        for label, name, unit in row.layers:
            if name is None:  # the whole call, unwrapped
                spent = 0.0
                for _ in range(calls):
                    unlink(row.outputs)
                    t0 = time.perf_counter()
                    row.call()
                    spent += time.perf_counter() - t0
                clock.self_s[label], clock.calls[label] = spent, calls
            s, n = clock.self_s[label], clock.calls[label]
            value = {"us": s / max(n, 1) * 1e6, "calls": n / calls,
                     "us/rep": s / (calls * row.per) * 1e6,
                     "ns/sample": s / (calls * row.per) * 1e9}[unit]
            best[label] = min(best.get(label, value), value)
    return [(f"{row.name}/{label}", best[label], unit) for label, _, unit in row.layers]


def cold_argvs(tmp: Path) -> list[list[str]]:
    """One argument list for calibrate and for the command of each of ``bench/run.py``'s
    workloads, with its flags, on mc-short's config with gtable-wide's grid."""
    bench = runpy.run_path(BENCH)
    flags = {"calibrate": (), **{w.command: w.flags for w in bench["WORKLOADS"].values()}}
    config = {**bench["config_dict"](bench["WORKLOADS"]["mc-short"], 1),
              "grid": bench["WIDE_GRID"]}
    return [[*_argv(tmp, "cold", command, config), *extra] for command, extra in flags.items()]


def cold_rows(tmp: Path, src: Path):
    def child(argv):  # its stderr is ours; CalledProcessError if it exits non-zero
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                              stdout=subprocess.PIPE, text=True, check=True)
        return time.perf_counter() - t0, json.loads(proc.stdout.splitlines()[-1])

    for argv in cold_argvs(tmp):  # the rows before loaded every library into the file cache
        walls, reports = zip(*(child(argv) for _ in range(RUNS)))
        yield f"cold-{argv[0]}/min_wall", min(walls) * 1e3, "ms"
        yield f"cold-{argv[0]}/median_wall", statistics.median(walls) * 1e3, "ms"
        for layer in ("import_seqjde", "run"):
            yield f"cold-{argv[0]}/{layer}", statistics.median(r[layer] for r in reports), "ms"
        yield f"cold-{argv[0]}/run_loads_numpy", max(r["run_loads_numpy"] for r in reports), "0/1"
        yield f"cold-{argv[0]}/peak_rss", statistics.median(r["peak_rss_mb"] for r in reports), "MB"
        yield f"cold-{argv[0]}/scipy", max(r["scipy"] for r in reports), "subpackages"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("src", nargs="?", type=Path, default=ROOT / "src",
                    help="src/ directory to import seqjde from")
    ap.add_argument("--batches", type=int, default=100, help="batches per row (N)")
    ap.add_argument("--calls", type=int, default=20, help="whole calls per batch (K)")
    args = ap.parse_args(argv)
    if args.batches < 1 or args.calls < 1:
        ap.error("--batches and --calls must be at least 1")
    src = args.src.resolve()
    if not (src / "seqjde" / "__init__.py").is_file():
        ap.error(f"no seqjde package under {src}")
    sys.path.insert(0, str(src))  # every row imports seqjde from here
    print(f"# src={src} python={sys.version.split()[0]} batches={args.batches} calls={args.calls}")
    with tempfile.TemporaryDirectory() as tmp:
        timed = (line for row in rows(Path(tmp))
                 for line in time_row(row, args.batches, args.calls))
        for layer, value, unit in itertools.chain(timed, cold_rows(Path(tmp), src)):
            print(f"{layer} {value:.4g} {unit}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
