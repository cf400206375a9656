"""Fresh-interpreter probe for the seqjde benchmark.

Usage: python3 bench/probe.py SRC_DIR CONFIG [CLI_ARG ...]

Imports ``seqjde.cli`` from SRC_DIR, loads CONFIG, and prints ``ready`` as
soon as both are done, so the parent can time interpreter start-up plus
import plus config load from the outside.  It then times the first, cold
``gfunc.solve_gamma`` call of the process, runs ``cli.main(CLI_ARG ...)``
once when arguments are given, and prints one JSON line with the cold
calibration time, the exit code and the peak resident set size.

Kept apart from run.py so that nothing the benchmark itself imports is
counted in the set-up time.
"""

import json
import resource
import sys
import time

sys.path.insert(0, sys.argv[1])

from seqjde import cli, gfunc  # noqa: E402

cfg = cli.load_config(sys.argv[2])
print("ready", flush=True)

t0 = time.perf_counter()
gfunc.solve_gamma(cfg.constraint_C, cfg.params, cfg.costs)
solve_gamma_ms = (time.perf_counter() - t0) * 1e3

rc = cli.main(sys.argv[3:]) if len(sys.argv) > 3 else None
print(json.dumps({
    "solve_gamma_ms": solve_gamma_ms,
    "rc": rc,
    # ru_maxrss is in KiB on Linux
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}), flush=True)
