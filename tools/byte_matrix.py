"""Byte-identity matrix: sha256 of every CLI output over a fixed grid of configs.

Runs ``seqjde.cli.main`` in-process (importing ``./src`` of the checkout the
script lives in) on 180 configs: 4 models x 3 cost sets x 5 channel types x 3
constraint levels.  Each config gets ten invocations: calibrate; gtable on a
linear grid from 0 and on a log grid; simulate H0, H1, and H1 with
``--x-override 0.7 --seed 5``; montecarlo and compare at ``--workers`` 1 and 2
(montecarlo with ``--seed 3``, ``--reps 150`` at one worker and ``--reps 2100``,
more than two 1024-row blocks of ``reps.csv`` per arm, at two).  Prints one
sorted line per invocation and output file::

    <config> <invocation> <file> <sha256> exit=<code> stderr=<json string>

An invocation that writes no file prints one line with file and digest ``-``;
an exception that escapes ``main`` is printed as ``exit=raised:<type>``.
Outputs of two checkouts are equal exactly when every file, exit code and
stderr text is::

    python3 tools/byte_matrix.py > after.txt
    (cd ../seqjde-before && python3 tools/byte_matrix.py) > before.txt
    diff before.txt after.txt

``byte_matrix.digests`` next to this script pins one line per config,
``<config> <sha256>``, the digest of that config's lines (each ending in a
newline, in the listing's order); ``tests/test_cli.py`` checks it, and a
difference names the configs that moved.  A change that moves bytes on
purpose re-pins it with::

    python3 tools/byte_matrix.py --digests > tools/byte_matrix.digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqjde import cli  # noqa: E402
from seqjde.model import CostWeights, ModelParams, admissible_cost_bound  # noqa: E402

MODELS = {
    "m0": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0},
    "m1": {"mu_x": 1.0, "sigma_x": 1.0, "sigma": 1.0},
    "m2": {"mu_x": 0.5, "sigma_x": 0.8, "sigma": 1.2},
    "m3": {"mu_x": -0.3, "sigma_x": 1.5, "sigma": 0.7},
}
COSTS = {
    "ce1": {"c0": 1.0, "c1": 1.0, "ce": 1.0},
    "ce0": {"c0": 1.0, "c1": 1.0, "ce": 0.0},
    "ce5": {"c0": 1.0, "c1": 0.2, "ce": 5.0},
}
CHANNELS = {
    "constant": {"type": "constant", "h": 1.0},
    "iid_gaussian": {"type": "iid_gaussian", "std": 1.0},
    "rayleigh": {"type": "rayleigh", "scale": 0.8},
    "ar1": {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5},
    "from_file": {"type": "from_file", "path": "<gains>"},
}
# fractions of C_max: two observing levels and one that stops at zero
LEVELS = {"C0.6": 0.6, "C0.15": 0.15, "C1.2": 1.2}
T_MAX = 5000
GRIDS = {
    "linear": {"u_min": 0.0, "u_max": 10.0, "points": 6, "spacing": "linear"},
    "log": {"u_min": 1e-3, "u_max": 1e3, "points": 7, "spacing": "log"},
}
INVOCATIONS = {
    "calibrate": ("calibrate", "out.json", "linear", []),
    "gtable-linear": ("gtable", "out.csv", "linear", []),
    "gtable-log": ("gtable", "out.csv", "log", []),
    "simulate-H0": ("simulate", "out.json", "linear", ["--truth", "H0"]),
    "simulate-H1": ("simulate", "out.json", "linear", ["--truth", "H1"]),
    "simulate-H1-x0.7": ("simulate", "out.json", "linear",
                         ["--truth", "H1", "--x-override", "0.7", "--seed", "5"]),
    "montecarlo-w1": ("montecarlo", "out.json", "linear",
                      ["--workers", "1", "--seed", "3", "--reps", "150"]),
    "montecarlo-w2": ("montecarlo", "out.json", "linear",
                      ["--workers", "2", "--seed", "3", "--reps", "2100"]),
    "compare-w1": ("compare", "out.json", "linear", ["--workers", "1"]),
    "compare-w2": ("compare", "out.json", "linear", ["--workers", "2"]),
}


def _configs(gains: Path):
    for (mname, model), (cname, costs), (hname, channel), (lname, level) in itertools.product(
            MODELS.items(), COSTS.items(), CHANNELS.items(), LEVELS.items()):
        c_max = admissible_cost_bound(ModelParams(**model), CostWeights(**costs))
        if channel["type"] == "from_file":
            channel = {**channel, "path": str(gains)}
        raw = {"model": model, "costs": costs, "constraint_C": level * c_max,
               "channel": channel, "mc": {"reps": 200, "master_seed": 11, "t_max": T_MAX}}
        yield f"{mname}/{cname}/{hname}/{lname}", raw


def _run(argv: list[str]) -> tuple[str, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a crash is recorded, not fatal
            code = f"raised:{type(exc).__name__}"
    return code, err.getvalue()


def listing() -> list[str]:
    """The sorted lines of every invocation and output file, as the script prints them."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gains = root / "gains.txt"
        gains.write_text("# gains\n" + "".join(f"{0.4 + (k % 7) * 0.15:.2f}\n"
                                                for k in range(T_MAX)))
        for name, raw in _configs(gains):
            for inv, (command, out_name, grid, extra) in INVOCATIONS.items():
                work = root / "work"
                work.mkdir()
                cfg = work / "cfg.json"
                cfg.write_text(json.dumps({**raw, "grid": GRIDS[grid]}))
                code, err = _run([command, "--config", str(cfg),
                                  "--out", str(work / out_name), *extra])
                outputs = sorted(p for p in work.iterdir() if p != cfg)
                tail = f"exit={code} stderr={json.dumps(err.replace(tmp, '<tmp>'))}"
                for path in outputs:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{name} {inv} {path.name} {digest} {tail}")
                    path.unlink()
                if not outputs:
                    lines.append(f"{name} {inv} - - {tail}")
                cfg.unlink()
                work.rmdir()
    return sorted(lines)


def digests(lines: list[str]) -> dict[str, str]:
    """The sha256 of each config's lines, keyed by config, in the lines' order."""
    groups = {}
    for line in lines:
        groups.setdefault(line.split(" ", 1)[0], hashlib.sha256()).update(f"{line}\n".encode())
    return {name: digest.hexdigest() for name, digest in groups.items()}


if __name__ == "__main__":
    lines = listing()
    if sys.argv[1:] == ["--digests"]:
        lines = [f"{name} {digest}" for name, digest in digests(lines).items()]
    print("\n".join(lines))
