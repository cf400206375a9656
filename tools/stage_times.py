"""In-process split of one ``montecarlo`` call on the mc-short config, stage by stage.

Usage::

    python3 tools/stage_times.py [--batches N] [--calls K]

Writes mc-short's config, as ``bench/run.py`` generates it for seed 1, to a
temp directory, and runs ``montecarlo`` on it as ``cli.main`` does, one stage
after another, timing each: parsing the argument list, ``load_config``, ``stopping_rule``, ``run_arms``, ``cost_report``, the
report JSON, the ``reps.csv`` writer and the two file writes.  Each batch is
K such calls in a row (default 20), then K ``cli.main`` calls; after N batches
(default 100), one line per stage, and a last one for the whole ``cli.main``
call, gives the fastest batch's time per call::

    <stage> <us per call>

Each stage runs once per call, as in ``main``, so it pays what a cold stage
pays; the same function called K times in a row would take about half as
long.  So the stages add up to about the whole call.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from seqjde import cli, gfunc, sim  # noqa: E402


def _mc_short() -> tuple[dict, tuple[str, ...]]:
    """mc-short's config at seed 1 and its flags, from bench/run.py, only imported."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # its dataclasses look it up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    workload = bench.WORKLOADS["mc-short"]
    return bench.config_dict(workload, 1), workload.flags


STAGES = ("argparse", "load_config", "stopping_rule", "run_arms", "cost_report",
          "report_json", "reps_csv", "file_writes")


def one_call(argv: list[str], spent: dict) -> None:
    """One montecarlo call, stage by stage as ``cli.main`` runs them, under its
    ``np.errstate``; adds each stage's seconds to ``spent[stage]``."""
    clock = time.perf_counter
    t = [clock()]
    args = cli._parse_args(argv)
    t.append(clock())
    cfg = cli.load_config(args.config, args.seed, args.reps)
    t.append(clock())
    cal = gfunc.stopping_rule(cfg.constraint_C, cfg.params, cfg.costs)
    t.append(clock())
    with np.errstate(over="raise"):
        arms = sim.run_arms(cfg, cal)
        t.append(clock())
        report = sim.cost_report(arms, arms.decision, cfg.costs, cal.C)
        t.append(clock())
    text = cli._json_lines(cli._report_dict(report), 0)
    t.append(clock())
    rows = "".join(cli._rep_lines(arms))
    t.append(clock())
    sidecar = Path(args.out).with_suffix(".reps.csv")
    cli._write_files([(args.out, (text, "\n")), (sidecar, (rows,))])
    t.append(clock())
    for name, start, end in zip(STAGES, t, t[1:]):
        spent[name] += end - start


def stage_times(argv: list[str], batches: int, calls: int) -> dict[str, float]:
    """Each stage's time per call, and the whole ``cli.main`` call's as "main", in us:
    the fastest of ``batches`` batches of ``calls`` calls in a row."""
    best = dict.fromkeys((*STAGES, "main"), float("inf"))
    for _ in range(batches):
        spent = dict.fromkeys(STAGES, 0.0)
        for _ in range(calls):
            one_call(argv, spent)
        t0 = time.perf_counter()
        for _ in range(calls):
            cli.main(argv)
        spent["main"] = time.perf_counter() - t0
        for name, seconds in spent.items():
            best[name] = min(best[name], seconds / calls * 1e6)
    return best


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--batches", type=int, default=100, help="batches per stage (N)")
    ap.add_argument("--calls", type=int, default=20, help="calls per batch (K)")
    args = ap.parse_args(argv)
    if args.batches < 1 or args.calls < 1:
        ap.error("--batches and --calls must be at least 1")
    raw, flags = _mc_short()
    print(f"python={sys.version.split()[0]} batches={args.batches} calls={args.calls}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(raw))
        argv = ["montecarlo", "--config", str(config), "--out", str(Path(tmp, "mc.json")),
                *flags]
        for name, us in stage_times(argv, args.batches, args.calls).items():
            print(f"{name:13s} {us:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
