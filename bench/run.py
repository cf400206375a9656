"""seqjde benchmark: CLI workloads driven through ``seqjde.cli.main``.

Run from the root of a source checkout (the package is imported from
``./src``, nothing needs installing):

    python3 bench/run.py --workload mc-short --seed 1 --seconds 50 --trace 0

One client and one process call ``cli.main`` back to back (a closed loop).
Each workload's config is generated from ``--seed``; the program only sees
the generated file.  Every invocation's outputs are checked, and a failed
check, a non-zero exit or an exception counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics: set-up time measured in fresh
interpreters, the fastest iteration's wall time, throughput, peak resident
memory of a fresh process running the workload, and the share of
invocations that succeeded.  ``--trace 1`` is a separate run: it alternates plain iterations
with traced ones, in which the public functions ``cli.main`` calls are timed
beside it on the same inputs, and reports per-layer metrics plus the tracing
overhead.  Spans are kept in memory and written to ``.bench_work/`` at the
end of a traced run.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 9       # fresh interpreters per run, spread over the measured window
GOLDEN_SIM_SEED = 0    # master seed of the pinned simulate-long byte-identity run
MICRO_BLOCKS = 5       # repeated blocks per micro-timing; the median is reported
LOOP_CALLS = 20_000    # calls per block of a micro-timing

MODEL = {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0}
COSTS = {"c0": 1.0, "c1": 1.0, "ce": 1.0}
UNIT_GAIN = {"type": "constant", "h": 1.0}
AR1 = {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5}
WIDE_GRID = {"u_min": 1e-3, "u_max": 1e5, "points": 50, "spacing": "log"}


@dataclass(frozen=True)
class Workload:
    command: str
    constraint_C: float
    channel: dict
    reps: int
    t_max: int
    out_name: str
    flags: tuple[str, ...] = ()
    grid: dict | None = None


# A constant unit gain makes the stopping index seed-independent (T=1 at
# C=1.5, T=116 at C=0.2), so the work per iteration is the same for every
# --seed; an AR(1) path at C=0.2 gives T from 41 to 188 across seeds.
# simulate-long keeps AR(1): over ~64k samples T varies by about 2.5%.
# The gated workloads (mc-short, gtable-wide) are sized to ~25 ms per
# iteration, so that a run holds about a thousand of them (see wall_s in main).
WORKLOADS = {
    "mc-short": Workload("montecarlo", 1.5, UNIT_GAIN, reps=250, t_max=1000,
                         out_name="mc.json", flags=("--workers", "1")),
    "compare-long": Workload("compare", 0.2, UNIT_GAIN, reps=1000, t_max=1000,
                             out_name="cmp.json", flags=("--workers", "2")),
    "gtable-wide": Workload("gtable", 1.5, UNIT_GAIN, reps=1, t_max=1,
                            out_name="gtable.csv", grid=WIDE_GRID),
    "simulate-long": Workload("simulate", 0.01, AR1, reps=1, t_max=1_000_000,
                              out_name="sim.json", flags=("--truth", "H1")),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "cli.load_config_ms": "ms", "cli.self_s": "s", "cli.rows_written": "count",
    "sim.us_per_rep": "us", "sim.fixed_us_per_rep": "us", "sim.T": "count",
    "sim.workers_speedup": "ratio", "sim.gen_channel_ms": "ms",
    "sim.sample_scenario_ms": "ms",
    "engine.ns_per_sample": "ns", "engine.samples": "count",
    "stats.update_ns": "ns", "stats.decide_ns": "ns",
    "stats.log_likelihood_ratio_ns": "ns", "stats.estimate_ns": "ns",
    "gfunc.solve_gamma_ms": "ms", "gfunc.g_eval_us": "us", "gfunc.g_point_us": "us",
    "gfunc.g_eval_quadrature_us": "us", "gfunc.g_root_calls": "count",
    "gfunc.g_root_hit_ratio": "ratio",
    "trace.overhead_s": "s", "host.ref_ms": "ms",
}

# Public calls whose time is subtracted from the cli.main span to give
# cli.self_s (gtable's per-point g_point/g_eval_quadrature time is summed
# separately).
CLI_CHILDREN = ("cli.load_config", "gfunc.solve_gamma", "sim.monte_carlo",
                "sim.compare_schemes", "sim.sample_scenario", "engine.run_sequential")


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


def import_seqjde() -> SimpleNamespace:
    """Import seqjde from ./src of the checkout, never from anywhere else."""
    if not (SRC / "seqjde" / "__init__.py").is_file():
        sys.exit(f"bench: no seqjde sources at {SRC / 'seqjde'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import seqjde
    from seqjde import cli, engine, gfunc, model, sim, stats
    if Path(seqjde.__file__).resolve().parent != (SRC / "seqjde").resolve():
        sys.exit(f"bench: imported seqjde from {seqjde.__file__}, expected {SRC / 'seqjde'}")
    return SimpleNamespace(cli=cli, engine=engine, gfunc=gfunc, model=model, sim=sim,
                           stats=stats)


def config_dict(w: Workload, seed: int) -> dict:
    cfg = {"model": MODEL, "costs": COSTS, "constraint_C": w.constraint_C,
           "channel": w.channel,
           "mc": {"reps": w.reps, "master_seed": seed, "t_max": w.t_max}}
    if w.grid is not None:
        cfg["grid"] = w.grid
    return cfg


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sidecar(out: Path, kind: str) -> Path:
    return out.with_suffix(f".{kind}.csv")


def csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def host_ref_ms() -> float:
    """Fixed pure-Python plus numpy loop; tells a slow host from a slow change."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 200_000)

    def once() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        for _ in range(20):
            acc += float(np.sqrt(a * a + 1.0).sum())
        return (time.perf_counter() - t0) * 1e3

    return median([once() for _ in range(MICRO_BLOCKS)])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def host_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "seed": seed}


def loop_of(fn, *args):
    def block():
        for _ in range(LOOP_CALLS):
            fn(*args)
    return block


def block_ns(block) -> float:
    """Median over MICRO_BLOCKS runs of ``block()``, in ns."""
    times = []
    for _ in range(MICRO_BLOCKS):
        t0 = time.perf_counter()
        block()
        times.append(time.perf_counter() - t0)
    return median(times) * 1e9


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Bench.spans
    iteration: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Bench:
    name: str
    seed: int
    m: SimpleNamespace  # the seqjde modules
    attempted: int = 0
    failed: int = 0
    spans: list[Span] = field(default_factory=list)
    probes: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.w = WORKLOADS[self.name]
        self.dir = WORK / f"{self.name}-{self.seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.write_config(self.seed, "config.json")
        self.out = self.dir / self.w.out_name
        self.g_root_cache = getattr(self.m.gfunc, "_g_root_cached", None)

    # -- invocations ---------------------------------------------------------

    def write_config(self, seed: int, filename: str) -> Path:
        path = self.dir / filename
        path.write_text(json.dumps(config_dict(self.w, seed), indent=1))
        return path

    def argv(self, config: Path, out: Path, flags=None) -> list[str]:
        return [self.w.command, "--config", str(config), "--out", str(out),
                *(self.w.flags if flags is None else flags)]

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.name} seed={self.seed}: {why}", file=sys.stderr)

    def invoke(self, argv: list[str], out: Path, check: bool = True) -> tuple[float, dict | None]:
        """One cli.main call and, with ``check``, its output check.

        Returns the call's seconds and the checked work counts, or None for
        the counts when the invocation failed.
        """
        for path in (out, sidecar(out, "reps"), sidecar(out, "trace")):
            path.unlink(missing_ok=True)
        if self.g_root_cache is not None:
            self.g_root_cache.cache_clear()  # a CLI invocation starts cold
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rc = self.m.cli.main(argv)
        except Exception:  # the program must end every input with an exit code
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.fail(f"{argv[0]} raised")
            return elapsed, None
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"{argv[0]} exit code {rc}")
            return elapsed, None
        if not check:
            return elapsed, {}
        try:
            return elapsed, self.check(out)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(f"output check: {exc}")
            return elapsed, None

    def check(self, out: Path) -> dict:
        """Validate one invocation's outputs; returns its work counts."""
        w = self.w
        if w.command == "montecarlo":
            doc = json.loads(out.read_text())
            comb, se = doc["combined"]["value"], doc["combined"]["stderr"]
            if not comb <= doc["constraint_C"] + 3 * se:
                raise CheckFailed(f"combined {comb} above C + 3 SE")
            # 4 SE, not 3: at 3 SE a correct program fails on 0.27% of seeds
            if not abs(comb - doc["predicted"]) <= 4 * se:
                raise CheckFailed(f"combined {comb} not within 4 SE of {doc['predicted']}")
            rows = len(csv_rows(sidecar(out, "reps")))
            if rows != 2 * w.reps:
                raise CheckFailed(f"reps.csv has {rows} rows, expected {2 * w.reps}")
            return {"items": 2 * w.reps, "rows": rows, "combined": comb}
        if w.command == "compare":
            doc = json.loads(out.read_text())
            diff = doc["difference"]
            joint, sep = doc["joint"]["combined"]["value"], doc["separate"]["combined"]["value"]
            if not (abs(diff["value"]) <= 3 * diff["stderr"] or joint <= sep):
                raise CheckFailed(f"joint {joint} worse than separate {sep} by over 3 SE")
            return {"items": 2 * w.reps, "rows": 0, "combined": joint}
        if w.command == "gtable":
            rows = csv_rows(out)
            if len(rows) != w.grid["points"]:
                raise CheckFailed(f"gtable has {len(rows)} rows, expected {w.grid['points']}")
            if any(row[-1] == "" for row in rows):
                raise CheckFailed("gtable has an empty abs_diff")
            worst = max(float(row[-1]) for row in rows)
            if not worst <= 1e-9:
                raise CheckFailed(f"max abs_diff {worst} above 1e-9")
            return {"items": len(rows), "rows": len(rows)}
        doc = json.loads(out.read_text())
        if not abs(doc["predicted_cost"] - w.constraint_C) <= 1e-6:
            raise CheckFailed(f"predicted_cost {doc['predicted_cost']} not within 1e-6 of C")
        rows = len(csv_rows(sidecar(out, "trace")))
        if rows != doc["T"]:
            raise CheckFailed(f"trace has {rows} rows, expected T={doc['T']}")
        return {"items": doc["T"], "rows": rows, "T": doc["T"]}

    # -- byte-identity checks, outside the timed loop ------------------------

    def identity_checks(self) -> None:
        golden = json.loads((BENCH / "golden.json").read_text())
        cal_out = self.dir / "cal.json"
        self.expect_bytes(["calibrate", "--config", str(self.config), "--out", str(cal_out)],
                          {cal_out: golden["calibrate"][self.name]})
        if self.name == "gtable-wide":
            self.expect_bytes(self.argv(self.config, self.out), {self.out: golden["gtable-wide"]})
        elif self.name == "simulate-long":
            config = self.write_config(GOLDEN_SIM_SEED, "golden-config.json")
            out = self.dir / "golden-sim.json"
            self.expect_bytes(self.argv(config, out),
                              {out: golden["simulate-long"]["out"],
                               sidecar(out, "trace"): golden["simulate-long"]["trace"]})
        elif self.name == "compare-long":
            digests = []
            for workers in ("1", "2"):
                out = self.dir / f"cmp-w{workers}.json"
                if self.invoke(self.argv(self.config, out, ("--workers", workers)), out)[1]:
                    digests.append(sha256(out))
            if len(digests) == 2 and digests[0] != digests[1]:
                self.fail("compare output differs between --workers 1 and 2")

    def expect_bytes(self, argv: list[str], expected: dict[Path, str]) -> None:
        out = next(iter(expected))
        if self.invoke(argv, out, check=argv[0] == self.w.command)[1] is None:
            return
        for path, digest in expected.items():
            if sha256(path) != digest:
                self.fail(f"{argv[0]} output {path.name} differs from bench/golden.json")

    # -- fresh-process probes ------------------------------------------------

    def probe(self, with_workload: bool) -> None:
        """Set-up time, cold solve_gamma and, with ``with_workload``, the peak
        RSS of one run of the workload, in a fresh interpreter."""
        cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), str(self.config)]
        if with_workload:
            cmd += self.argv(self.config, self.dir / f"probe-{self.w.out_name}")
        self.attempted += 1
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            rc = proc.wait()
        if ready.strip() != "ready" or rc != 0:
            self.fail(f"probe exit code {rc}")
            return
        doc = json.loads(rest.strip().splitlines()[-1])
        if doc["rc"] not in (None, 0):
            self.fail(f"probe workload exit code {doc['rc']}")
            return
        doc["setup_s"] = setup_s
        self.probes.append(doc)

    # -- loops ---------------------------------------------------------------

    def measure(self, seconds: float, step, with_workload: bool) -> None:
        """Call ``step()`` back to back for ``seconds``, with the fresh-process
        probes run between steps at evenly spaced times.

        The host's speed drifts over tens of seconds, so spreading the probes
        over the same window as the iterations lets both medians average the
        same drift.
        """
        start = time.perf_counter()
        done = 0
        while True:
            step()
            stop = time.perf_counter() - start >= seconds
            while done < SETUP_PROBES and (
                    stop or time.perf_counter() - start >= (done + 0.5) * seconds / SETUP_PROBES):
                # the first probe also runs the workload, for peak RSS
                self.probe(with_workload and done == 0)
                done += 1
            if stop:
                return

    def timed_loop(self, seconds: float) -> tuple[list[float], list[dict]]:
        """Closed loop of plain iterations; returns walls and work counts of the good ones."""
        walls, facts = [], []
        argv = self.argv(self.config, self.out)

        def step():
            elapsed, f = self.invoke(argv, self.out)
            if f is not None:
                walls.append(elapsed)
                facts.append(f)

        self.measure(seconds, step, with_workload=True)
        return walls, facts

    def traced_loop(self, seconds: float) -> tuple[list[float], list[dict]]:
        """Alternate plain and traced iterations; returns plain walls and traced records."""
        argv = self.argv(self.config, self.out)
        plain, records = [], []

        def step():
            elapsed, f = self.invoke(argv, self.out)
            if f is not None:
                plain.append(elapsed)
            it = len(records) + 1
            root = len(self.spans)
            self.spans.append(Span("iteration", time.perf_counter(), 0.0, None, it))
            t0 = time.perf_counter()
            elapsed, f = self.invoke(argv, self.out)
            self.spans.append(Span("cli.main", t0, t0 + elapsed, root, it))
            # invoke cleared the cache before cli.main, so this is one call's traffic
            info = self.g_root_cache.cache_info() if self.g_root_cache is not None else None
            if f is not None:
                rec = {"main": elapsed, "facts": f,
                       "g_root_calls": info.hits + info.misses if info else 0,
                       "g_root_hits": info.hits if info else 0}
                rec.update(self.side_calls(root, it, f))
                children = sum(s.duration for s in self.spans[root + 1:]
                               if s.parent == root and s.name in CLI_CHILDREN)
                rec["cli_self"] = elapsed - children - rec.get("grid_s", 0.0)
                records.append(rec)
            self.spans[root].end = time.perf_counter()

        self.measure(seconds, step, with_workload=False)
        return plain, records

    def span(self, name: str, parent: int, iteration: int, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.spans.append(Span(name, t0, time.perf_counter(), parent, iteration))
        return result

    def scenario(self, cfg, truth: str, reps: int):
        return self.m.sim.ScenarioConfig(
            truth=self.m.model.Hypothesis[truth], params=cfg.params, costs=cfg.costs,
            channel=cfg.channel, master_seed=cfg.master_seed, reps=reps, t_max=cfg.t_max)

    def side_calls(self, root: int, it: int, facts: dict) -> dict:
        """The public calls cli.main makes, on the same inputs, each timed as a span."""
        cli, engine, gfunc, sim = self.m.cli, self.m.engine, self.m.gfunc, self.m.sim

        def span(name, fn, *args):
            return self.span(name, root, it, fn, *args)

        cfg = span("cli.load_config", cli.load_config, str(self.config))
        p, c = cfg.params, cfg.costs
        if self.w.command == "gtable":
            # Per-point spans would be thousands per iteration: sum the two
            # functions' times instead and keep one span for the whole grid.
            t_point = t_quad = 0.0
            t0 = time.perf_counter()
            for U in cfg.grid.values():
                U = float(U)
                a = time.perf_counter()
                gfunc.g_point(U, p, c)
                b = time.perf_counter()
                gfunc.g_eval_quadrature(U, p, c, tol=1e-9)
                t_point += b - a
                t_quad += time.perf_counter() - b
            self.spans.append(Span("gfunc.grid", t0, time.perf_counter(), root, it))
            return {"g_point_s": t_point, "g_quad_s": t_quad, "grid_s": t_point + t_quad}
        if self.w.command == "simulate":
            _, y, h = span("sim.sample_scenario", sim.sample_scenario,
                           self.scenario(cfg, "H1", 1), 0)
            cal = span("gfunc.solve_gamma", gfunc.solve_gamma, cfg.constraint_C, p, c)
            pairs = zip(y.tolist(), h.tolist())
            out = span("engine.run_sequential", engine.run_sequential, pairs, cal, p, c,
                       cfg.t_max)
            span("sim.gen_channel", sim.gen_channel, cfg.channel, cfg.master_seed, cfg.t_max)
            if out.T != facts["T"]:
                self.fail(f"run_sequential gives T={out.T}, the CLI T={facts['T']}")
            return {"outcome": out, "last_pair": (float(y[out.T - 1]), float(h[out.T - 1]))}
        cal = span("gfunc.solve_gamma", gfunc.solve_gamma, cfg.constraint_C, p, c)
        pair = (self.scenario(cfg, "H0", cfg.reps), self.scenario(cfg, "H1", cfg.reps))
        workers = int(self.w.flags[1])
        if self.w.command == "montecarlo":
            report = span("sim.monte_carlo", sim.monte_carlo, pair, cal, workers)
        else:
            report, _ = span("sim.compare_schemes", sim.compare_schemes, pair, cal, workers)
            span("sim.compare_schemes.workers1", sim.compare_schemes, pair, cal, 1)
        span("sim.gen_channel", sim.gen_channel, cfg.channel, cfg.master_seed, cfg.t_max)
        if report.combined != facts["combined"]:
            self.fail(f"public call gives combined={report.combined}, "
                      f"the CLI {facts['combined']}")
        return {}

    def span_median(self, name: str) -> float:
        return median([s.duration for s in self.spans if s.name == name])

    def write_spans(self) -> Path:
        path = WORK / f"spans-{self.name}-seed{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.name, "seed": self.seed,
            "fields": ["name", "start", "end", "parent", "iteration"],
            "spans": [[s.name, s.start, s.end, s.parent, s.iteration] for s in self.spans],
        }))
        return path

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, plain: list[float], records: list[dict], ref_ms: float) -> dict:
        """Every per-layer metric; 0 for a layer the workload's command does not run."""
        w, engine, gfunc, stats = self.w, self.m.engine, self.m.gfunc, self.m.stats
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m["host.ref_ms"] = ref_ms
        # traced wall_s - untraced wall_s, each the fastest iteration as in main()
        m["trace.overhead_s"] = min(r["main"] for r in records) - min(plain)
        m["cli.load_config_ms"] = self.span_median("cli.load_config") * 1e3
        m["cli.self_s"] = median([r["cli_self"] for r in records])
        m["cli.rows_written"] = records[-1]["facts"]["rows"]
        calls, hits = records[-1]["g_root_calls"], records[-1]["g_root_hits"]
        m["gfunc.g_root_calls"] = calls
        m["gfunc.g_root_hit_ratio"] = hits / calls if calls else 0.0
        if w.command == "gtable":
            n = w.grid["points"]
            m["gfunc.g_point_us"] = median([r["g_point_s"] for r in records]) / n * 1e6
            m["gfunc.g_eval_quadrature_us"] = median([r["g_quad_s"] for r in records]) / n * 1e6
            return m

        m["gfunc.solve_gamma_ms"] = median([d["solve_gamma_ms"] for d in self.probes])
        m["sim.gen_channel_ms"] = self.span_median("sim.gen_channel") * 1e3
        cfg = self.m.cli.load_config(str(self.config))
        p, c = cfg.params, cfg.costs
        if w.command == "simulate":
            out, (y, h) = records[-1]["outcome"], records[-1]["last_pair"]
            m["sim.sample_scenario_ms"] = self.span_median("sim.sample_scenario") * 1e3
            m["engine.ns_per_sample"] = self.span_median("engine.run_sequential") / out.T * 1e9
            m["engine.samples"] = out.T
        else:
            # the engine on this workload's own sampled path (replication 0 under H1)
            cal = gfunc.solve_gamma(cfg.constraint_C, p, c)
            _, y, h = self.m.sim.sample_scenario(self.scenario(cfg, "H1", cfg.reps), 0)
            ys, hs = y.tolist(), h.tolist()
            out = engine.run_sequential(zip(ys, hs), cal, p, c, cfg.t_max)
            y, h = ys[out.T - 1], hs[out.T - 1]
            calls_per_block = max(1, LOOP_CALLS // out.T)

            def engine_block():
                for _ in range(calls_per_block):
                    engine.run_sequential(zip(ys, hs), cal, p, c, cfg.t_max)

            m["engine.ns_per_sample"] = block_ns(engine_block) / (calls_per_block * out.T)
            m["engine.samples"] = 2 * w.reps * out.T
            sim_span = "sim.monte_carlo" if w.command == "montecarlo" else "sim.compare_schemes"
            m["sim.us_per_rep"] = self.span_median(sim_span) / (2 * w.reps) * 1e6
            m["sim.fixed_us_per_rep"] = m["sim.us_per_rep"] - out.T * m["engine.ns_per_sample"] / 1e3
            if w.command == "compare":
                m["sim.workers_speedup"] = (self.span_median("sim.compare_schemes.workers1")
                                            / self.span_median("sim.compare_schemes"))
        m["sim.T"] = out.T

        s = stats.SufficientStats(t=out.T, U=out.U_T, V=out.V_T)
        m["stats.update_ns"] = block_ns(loop_of(stats.update, s, y, h)) / LOOP_CALLS
        m["stats.decide_ns"] = block_ns(loop_of(stats.decide, s, p, c)) / LOOP_CALLS
        m["stats.log_likelihood_ratio_ns"] = \
            block_ns(loop_of(stats.log_likelihood_ratio, s, p)) / LOOP_CALLS
        m["stats.estimate_ns"] = block_ns(loop_of(stats.estimate, s, p)) / LOOP_CALLS
        gfunc.g_eval(out.U_T, p, c)  # warm the g_root cache at U_T
        m["gfunc.g_eval_us"] = block_ns(loop_of(gfunc.g_eval, out.U_T, p, c)) / LOOP_CALLS / 1e3
        return m


def print_table(title: str, metrics: dict, units: dict, extra: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:32s} {value:16.6g} {unit}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(args.workload, args.seed, import_seqjde())
    print("host:", json.dumps(host_record(args.seed)))
    ref_ms = host_ref_ms()

    bench.identity_checks()
    if args.trace:
        plain, records = bench.traced_loop(args.seconds)
        if not records or not plain:
            sys.exit("bench: no traced iteration succeeded")
        metrics = bench.layer_metrics(plain, records, ref_ms)
        units = PER_LAYER_UNITS
        extra = {"traced iterations": (len(records), "count"),
                 "plain iterations": (len(plain), "count")}
        print("spans:", bench.write_spans().relative_to(ROOT))
    else:
        walls, facts = bench.timed_loop(args.seconds)
        rss = [d["peak_rss_mb"] for d in bench.probes if d["rc"] == 0]
        if not walls or not rss:
            sys.exit("bench: no successful iteration to measure")
        # The fastest iteration, not the median: every iteration does the same
        # work, but the host switches between a fast state and states up to
        # ~1.8x slower (CPU time slows down with wall time), in stretches from
        # a fraction of a second to tens of seconds.  The median follows the
        # share of slow time, which differs from run to run; the fastest of
        # about a thousand short iterations follows the program.
        wall = min(walls)
        fail_frac = bench.failed / bench.attempted
        metrics = {
            "setup_s": median([d["setup_s"] for d in bench.probes]),
            "wall_s": wall,
            "items_per_s": median([f["items"] for f in facts]) / wall,
            "peak_rss_mb": median(rss),
            "ok_frac": 1.0 - fail_frac,
        }
        units = END_TO_END_UNITS
        extra = {"fail_frac": (fail_frac, "ratio"),
                 "wall_s samples": (len(walls), "count"),
                 "wall_s median": (median(walls), "s")}
        if len(walls) > 10:
            # the highest percentile with at least ten samples beyond it
            pct = 100 * (len(walls) - 10) / len(walls)
            extra[f"wall_s p{pct:.0f}"] = (sorted(walls)[len(walls) - 11], "s")
        extra["host.ref_ms"] = (ref_ms, "ms")
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics, units, extra)
    shutil.rmtree(bench.dir)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
