"""Cold-start cost of each CLI subcommand, one fresh interpreter per run.

Usage::

    python3 tools/cold_start.py [SRC_DIR]

SRC_DIR is the ``src/`` directory to import ``seqjde`` from; it defaults to
``src/`` of the checkout this script lives in, so the same script can time a
parent checkout and a change.  One generated config is written to a temp
directory.  After one untimed warm-up run, for each of the five subcommands
in turn, RUNS fresh interpreters run ``seqjde.cli.main`` one after another,
never two at once.  Each child reports its exit code, its peak resident set
size from ``resource.getrusage`` and the SciPy subpackages it loaded.  One
line is printed per subcommand::

    <command> min=<s> median=<s> peak_rss=<MB> scipy=<subpackages>

Wall time runs from process start to exit, so it includes interpreter
start-up, the imports, the config load and the work; the work itself is a few
milliseconds for this config.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 7
CONFIG = {
    "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0},
    "costs": {"c0": 1.0, "c1": 1.0, "ce": 1.0},
    "constraint_C": 1.5,
    "channel": {"type": "constant", "h": 1.0},
    "mc": {"reps": 250, "master_seed": 1, "t_max": 1000},
    "grid": {"u_min": 1e-3, "u_max": 1e3, "points": 7, "spacing": "log"},
}
COMMANDS = {
    "calibrate": [],
    "gtable": [],
    "simulate": ["--truth", "H1"],
    "montecarlo": [],
    "compare": [],
}
# runs one subcommand and reports on the last line of standard output
CHILD = """\
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from seqjde import cli
rc = cli.main(sys.argv[2:])
loaded = sorted(name[6:] for name in sys.modules
                if name.startswith("scipy.") and name.count(".") == 1 and name[6] != "_")
print(json.dumps({"rc": rc, "scipy": loaded,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def run_once(src: Path, argv: list[str]) -> tuple[float, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv],
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"cold_start: {argv[0]} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["rc"] != 0:
        sys.exit(f"cold_start: {argv[0]} exited {report['rc']}:\n{proc.stderr}")
    return wall, report


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    if not (src / "seqjde" / "__init__.py").is_file():
        sys.exit(f"cold_start: no seqjde package under {src}")
    print(f"src={src.resolve()} python={sys.version.split()[0]} runs={RUNS}")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.json")
        config.write_text(json.dumps(CONFIG))
        out = str(Path(tmp, "out.json"))
        # untimed, so that the first subcommand timed does not also pay for
        # loading the interpreter and the libraries into the file cache
        run_once(src, ["gtable", "--config", str(config), "--out", out])
        for command, extra in COMMANDS.items():
            walls, rss, loaded = [], [], set()
            for _ in range(RUNS):
                wall, report = run_once(src, [command, "--config", str(config), "--out", out,
                                              *extra])
                walls.append(wall)
                rss.append(report["peak_rss_mb"])
                loaded.update(report["scipy"])
            print(f"{command:10s} min={min(walls):.3f}s median={statistics.median(walls):.3f}s "
                  f"peak_rss={statistics.median(rss):.1f}MB scipy={','.join(sorted(loaded))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
