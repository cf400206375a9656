"""Paired benchmark runs of a parent checkout and this one, summarized as a BENCH file.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR --workload W [--workload W2 ...] \\
        --pairs N --seconds S --seed0 K [--pr PR] > BENCH_<pr>.json

PARENT_DIR is a second source checkout, such as ``git clone`` of the parent
commit.  Pair i uses seed K+i for both sides; every seed is fixed before any
run.  Pair i runs the parent first for even i and this checkout first for odd
i, and within a side the workloads run in the order given.  Each run is::

    python3 bench/run.py --workload W --seed K+i --seconds S --trace 0

in its own checkout, one at a time, and its last JSON line is kept.  The
summary printed on standard output gives, per workload and end-to-end metric
of ``BENCHMARK.json``, each side's runs, median, IQR (numpy's linear
percentiles) and fastest (best) value, the number of pairs the change won
(ties count for neither side), and whether the difference is resolved: one
side wins at least nine tenths of the pairs and the medians differ by more
than the parent's IQR.  ``claim`` and ``note`` are left for the author.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def last_json_line(stdout: str) -> dict:
    """The result object that ``bench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each imports its src/
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {checkout} {workload} seed {seed} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return last_json_line(proc.stdout)


def side_stats(runs: list[float], better: str) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    best = min(runs) if better == "lower" else max(runs)
    return {"median": float(median), "iqr": float(q3 - q1), "runs": runs, "fastest": best}


def compare_metric(parent: list[float], change: list[float], meta: dict) -> dict:
    """One metric's summary over paired runs; ``meta`` is its BENCHMARK.json entry."""
    better = meta["better"]
    sign = 1.0 if better == "lower" else -1.0  # positive: the change is worse
    p, c = side_stats(parent, better), side_stats(change, better)
    gap = sign * (c["median"] - p["median"])
    worse_by = gap / abs(p["median"]) if p["median"] else 0.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    decisive = 10 * max(wins, losses) >= 9 * len(parent)
    return {
        "unit": meta["unit"], "better": better, "bound": meta["bound"],
        "parent": p, "change": c,
        "change_worse_by": worse_by,
        "within_bound": worse_by <= meta["bound"],
        "pairs_change_better": wins,
        "resolved": bool(decisive and abs(gap) > p["iqr"]),
    }


def summarize(results: dict, metrics: list[dict]) -> dict:
    """``results[workload][side]`` lists that side's result objects in pair order."""
    out = {}
    for workload, sides in results.items():
        out[workload] = {
            "correct": {s: all(r["correct"] for r in sides[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": {
                m["name"]: compare_metric(
                    *([r["metrics"][m["name"]]["value"] for r in sides[s]] for s in SIDES), m)
                for m in metrics
            },
        }
    return out


def describe(checkout: Path) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                               text=True).stdout.strip()
    dirty = " with uncommitted changes" if git("status", "--porcelain") else ""
    return f"commit {git('rev-parse', '--short', 'HEAD') or 'unknown'}{dirty}"


def host() -> dict:
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
             if line.startswith("model name")] if cpuinfo.is_file() else []
    return {"nproc": os.cpu_count(), "cpu": names[0] if names else platform.processor(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path, help="the parent commit's source checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--pr", type=int, default=None, help="the number this BENCH file carries")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            ap.error(f"{side} checkout {checkout} has no bench/run.py")
    seeds = [args.seed0 + i for i in range(args.pairs)]
    results = {w: {s: [] for s in SIDES} for w in args.workload}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            for workload in args.workload:
                r = run_bench(checkouts[side], workload, seed, args.seconds)
                results[workload][side].append(r)
                print(f"pair {i} seed {seed} {side} {workload}: wall_s "
                      f"{r['metrics']['wall_s']['value']:.6g}", file=sys.stderr)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "sides": f"parent: {describe(checkouts['parent'])}; "
                 f"change: {describe(checkouts['change'])}",
        "seeds": seeds,
        "order": f"pair i (seed {args.seed0}+i) runs the parent first for even i, the change "
                 f"first for odd i; within a side {', then '.join(args.workload)}. The seeds "
                 "were fixed before any run, and every run is reported",
        "value": "each run's last JSON line; per side: fastest (best) value, median, IQR "
                 "(numpy linear percentiles); change_worse_by is the relative difference of the "
                 "medians in the metric's worse direction; resolved means one side is better in "
                 "at least 9 of 10 pairs and the medians differ by more than the parent's IQR",
        "workloads": summarize(results, metrics),
        "host": host(),
        "claim": None,
        "note": "",
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
