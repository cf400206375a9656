import ast
import builtins
import contextlib
import errno
import importlib.util
import inspect
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import seqjde
from seqjde import Hypothesis, cli, engine, errors, gfunc, sim, stats
from seqjde.cli import main
from seqjde.model import admissible_cost_bound, quoted

BASE_CONFIG = {
    "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0},
    "costs": {"c0": 1.0, "c1": 1.0, "ce": 1.0},
    "constraint_C": 1.5,
    "channel": {"type": "constant", "h": 1.0},
    "mc": {"reps": 400, "master_seed": 42, "t_max": 200},
}


def write_config(tmp_path, overrides=None, **top):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        cfg[key] = val
    cfg.update(top)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"extra": 1})
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_channel_key(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"channel": {"type": "constant", "h": 1, "x": 2}})
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2

    def test_missing_section(self, tmp_path):
        raw = {k: v for k, v in BASE_CONFIG.items() if k != "mc"}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "o.json")]) == 2

    def test_invalid_model_parameter(self, tmp_path):
        cfg = write_config(
            tmp_path, overrides={"model": {"mu_x": 0.0, "sigma_x": -1.0, "sigma": 1.0}}
        )
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2

    def test_not_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("not json at all")
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "o.json")]) == 2

    def test_boolean_is_not_a_number(self, tmp_path):
        cfg = write_config(tmp_path, constraint_C=True)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("overrides", [
        {"model": 5},
        {"model": None},
        {"costs": 5},
        {"mc": None},
        {"grid": 5},
        {"channel": {"type": [1], "h": 1.0}},
        {"channel": {"type": "from_file", "path": 3}},
        {"grid": {"u_min": 1.0, "u_max": 0.5, "points": 4, "spacing": "linear"}},
        {"grid": {"u_min": 0.0, "u_max": 1.0, "points": 4, "spacing": "cubic"}},
        {"grid": {"u_min": 0.0, "u_max": 1.0, "points": 1, "spacing": "linear"}},
        {"mc": {"reps": 0, "master_seed": 42, "t_max": 200}},
        {"mc": {"reps": 400, "master_seed": 42, "t_max": 0}},
        {"mc": {"reps": 400, "master_seed": -1, "t_max": 200}},
        {"channel": 5},
        {"channel": {"h": 1.0}},
    ])
    def test_malformed_section_is_a_one_line_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [None, "[1, 2]"], ids=["unreadable", "array-root"])
    def test_unusable_config_file_is_a_one_line_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.json"
        if text is not None:
            p.write_text(text)
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1

    _UNDECODABLE = {
        "not-utf8": b"\xff" + json.dumps(BASE_CONFIG).encode(),
        "too-deep": b"[" * 100000 + b"]" * 100000,
        "int-too-long": json.dumps(BASE_CONFIG).replace("1.5", "1" * 5000).encode(),
    }

    @pytest.mark.parametrize("overrides, top, length", [
        ({}, {"constraint_C": "x" * 1_000_000}, 1_000_002),
        ({"channel": {"type": "t" * 100_000}}, {}, 100_002),
        ({}, {"k" * 100_000: 1.0}, 100_002),
        ({"mc": {"reps": 10**4000, "master_seed": 42, "t_max": 200}}, {}, 4001),
        ({"grid": {"u_min": 0.0, "u_max": 1.0, "points": 3, "spacing": "s" * 100_000}}, {},
         100_002),
        ({"channel": {"type": "from_file", "path": "gains.txt"}}, {}, 100_002),
        ({"channel": {"type": "from_file", "path": "p" * 1_000_000}}, {}, 1_000_002),
        ({"channel": {"type": "from_file", "path": "./" * 1000 + "short.txt"}}, {}, 2011),
    ], ids=["value", "channel-type", "unknown-key", "int-size", "grid-spacing", "channel-line",
            "unreadable-path", "short-file-path"])
    def test_long_values_are_cut_in_the_message(self, tmp_path, capsys, monkeypatch,
                                                overrides, top, length):
        # the message quotes a value's first characters and its length, on one short line
        monkeypatch.chdir(tmp_path)
        Path("gains.txt").write_text("1.0\n" + "z" * 100_000 + "\n")
        Path("short.txt").write_text("1.0\n")
        cfg = write_config(tmp_path, overrides=overrides, **top)
        assert main(["montecarlo", "--config", cfg, "--out", "o.json"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err[:300]
        assert f"... ({length} characters)" in err
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("command", [["calibrate"], ["montecarlo"]], ids=lambda a: a[0])
    @pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
    def test_undecodable_config_file_is_a_one_line_error(self, tmp_path, capsys, command, text):
        p = tmp_path / "c.json"
        p.write_bytes(text)
        assert main(command + ["--config", str(p), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seqjde: config {quoted(str(p))} is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.glob("o*")) == []

    @pytest.mark.parametrize("command", [["montecarlo"], ["compare"],
                                         ["simulate", "--truth", "H1"]], ids=lambda a: a[0])
    def test_undecodable_channel_file_is_a_one_line_error(self, tmp_path, capsys, command):
        # calibrate reads no channel file, so only the commands that draw a path refuse it
        gains = tmp_path / "gains.txt"
        gains.write_bytes(b"\xff" + b"1.0\n" * 200)
        cfg = write_config(tmp_path, channel={"type": "from_file", "path": str(gains)})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seqjde: cannot read channel file {quoted(str(gains))}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.glob("o*")) == []

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--seed", "-1"],
        ["montecarlo", "--reps", "0"],
        ["simulate", "--truth", "H1", "--x-override", "nan"],
        ["simulate", "--truth", "H1", "--x-override", "inf"],
    ], ids=["seed", "reps", "x-nan", "x-inf"])
    def test_bad_flag_value_is_a_one_line_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        out = tmp_path / "o.json"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate", "--truth", "H1"], ["montecarlo"],
                                         ["compare"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("C", [1.5, 2.5], ids=["observe", "stop_at_zero"])
    @pytest.mark.parametrize("key, flag, value, message", [
        ("master_seed", "--seed", -1, "master_seed must be an integer >= 0, got -1"),
        ("reps", "--reps", 0, "reps must be an integer >= 1, got 0"),
        ("t_max", None, 0, "t_max must be an integer >= 1, got 0"),
    ], ids=["master_seed", "reps", "t_max"])
    def test_run_size_is_refused_alike_in_config_and_flag(self, tmp_path, capsys, command, C,
                                                          key, flag, value, message):
        # sim.ScenarioConfig's rule, even where a stop-at-zero rule draws no scenario
        runs = [({key: value}, [])]
        if flag is not None and (flag, command[0]) != ("--reps", "simulate"):
            runs.append(({}, [flag, str(value)]))
        for mc, flags in runs:
            cfg = write_config(tmp_path, overrides={"mc": {**BASE_CONFIG["mc"], **mc}},
                               constraint_C=C)
            assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")] + flags) == 2
            assert capsys.readouterr().err == f"seqjde: {message}\n", flags
            assert list(tmp_path.glob("o*")) == []

    @pytest.mark.parametrize("command", ["montecarlo", "compare"])
    @pytest.mark.parametrize("mc, flag, message", [
        ({"reps": 0}, "--reps", "reps must be an integer >= 1, got 0"),
        ({"reps": 2.5}, "--reps", "mc.reps must be of type int, got 2.5"),
        ({"reps": "many"}, "--reps", "mc.reps must be of type int, got 'many'"),
        ({"master_seed": -1}, "--seed", "master_seed must be an integer >= 0, got -1"),
        ({"master_seed": True}, "--seed", "mc.master_seed must be of type int, got True"),
    ], ids=["reps-0", "reps-float", "reps-str", "seed-negative", "seed-bool"])
    def test_a_flag_does_not_hide_a_malformed_config_value(self, tmp_path, capsys, command, mc,
                                                           flag, message):
        # the config's own mc values are checked before a flag replaces them
        cfg = write_config(tmp_path, overrides={"mc": {**BASE_CONFIG["mc"], **mc}})
        out = tmp_path / "o.json"
        assert main([command, "--config", cfg, "--out", str(out), flag, "100"]) == 2
        assert capsys.readouterr().err == f"seqjde: {message}\n"
        assert list(tmp_path.glob("o*")) == []

    @pytest.mark.parametrize("costs, message", [
        ({"c0": 0.0, "c1": 1.0, "ce": 1.0}, "c0 must be positive for calibration, got 0.0"),
        ({"c0": 1.0, "c1": 0.0, "ce": 0.0}, "c1 and ce cannot both be zero"),
    ], ids=["c0", "c1-ce"])
    @pytest.mark.parametrize("command", [["calibrate"], ["gtable"], ["simulate", "--truth", "H1"],
                                         ["montecarlo"], ["compare"]], ids=lambda argv: argv[0])
    def test_degenerate_costs_are_one_pinned_line(self, tmp_path, capsys, command, costs,
                                                  message):
        # CostWeights refuses them as the config is read, before any subcommand works
        grid = {"u_min": 0.0, "u_max": 1.0, "points": 2, "spacing": "linear"}
        cfg = write_config(tmp_path, overrides={"costs": costs, "grid": grid})
        out = tmp_path / "o.json"
        assert main(command + ["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"seqjde: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "montecarlo"])
    @pytest.mark.parametrize("overrides", [
        {"model": {"mu_x": 1e300, "sigma_x": 1.0, "sigma": 1.0}},
        {"model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e200}},
        {"constraint_C": 10**400},  # a JSON integer too large for a float
    ], ids=["mu_x", "sigma", "int400"])
    def test_overflowing_value_is_a_one_line_error(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, overrides=overrides)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["montecarlo", "compare"])
    def test_overflowing_energy_is_a_one_line_error(self, tmp_path, capsys, command):
        # h*h overflows in the energy sum: a RuntimeWarning, then inf and nan in the report
        cfg = write_config(tmp_path, overrides={"channel": {"type": "constant", "h": 1e300}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: a config value overflows a float") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["simulate", "--truth", "H1"], ["montecarlo"],
                                         ["compare"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("gains, code", [("1\n1\n1\n1e200\n", 0), ("1e200\n1\n1\n1\n", 2)],
                             ids=["past-the-stop", "at-the-stop"])
    def test_energy_overflows_only_where_the_stop_reads_it(self, tmp_path, capsys, command,
                                                           gains, code):
        # the test stops at T = 1: an energy that overflows at t = 4 is never read,
        # where montecarlo and compare summed the whole path and exited 2
        (tmp_path / "gains.txt").write_text(gains)
        cfg = write_config(tmp_path, overrides={
            "channel": {"type": "from_file", "path": str(tmp_path / "gains.txt")},
            "mc": {"reps": 10, "master_seed": 1, "t_max": 4}})
        out = tmp_path / "o.json"
        assert main(command + ["--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == ("" if code == 0 else "seqjde: a config value "
                                           "overflows a float: running sums overflow a float at t=1\n")
        if command[0] == "simulate" and code == 0:
            assert json.loads(out.read_text())["T"] == 1
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("command", [["simulate", "--truth", "H1"], ["montecarlo"],
                                         ["compare"]], ids=lambda argv: argv[0])
    def test_energy_outside_the_log_domain_at_the_stop_exits_3(self, tmp_path, capsys, command):
        # kappa = 1e-154 and U_T = 1e300: kappa/(U_T + kappa) is 0, whose log was
        # a ValueError traceback in simulate once it stopped solving gamma in full
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-77},
            "channel": {"type": "constant", "h": 1e150},
            "mc": {"reps": 10, "master_seed": 1, "t_max": 5}})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("seqjde: energy U=") and err.count("\n") == 1
        assert "is out of range for kappa" in err

    @pytest.mark.parametrize("command", [["simulate", "--truth", "H1"], ["montecarlo"],
                                         ["compare"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_non_finite_gain_is_a_one_line_error(self, tmp_path, capsys, command, seed):
        # these seeds draw an infinite gain at t = 1, before the engine's overflow check
        cfg = write_config(tmp_path, overrides={
            "channel": {"type": "iid_gaussian", "std": 1.7976931348623157e308},
            "mc": {"reps": 10, "master_seed": seed, "t_max": 200}})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["simulate", "--truth", "H1"], ["montecarlo"],
                                         ["compare"]], ids=lambda argv: argv[0])
    def test_non_finite_ar1_gain_is_a_one_line_error(self, tmp_path, capsys, command):
        # an infinite innovation made the recursion inf - inf, which printed a
        # RuntimeWarning before the message
        cfg = write_config(tmp_path, overrides={
            "channel": {"type": "ar1", "phi": 0.5, "innov_std": 1.7976931348623157e308,
                        "init_std": 1.0},
            "mc": {"reps": 10, "master_seed": 2, "t_max": 50}})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == ("seqjde: a config value overflows a float: "
                                           "Ar1 channel drew a gain that is not finite\n")


class TestRunConfig:
    """A loaded config is its run's H0 scenario, plus the level C and the grid."""

    GRID = {"u_min": 0.001, "u_max": 10.0, "points": 4, "spacing": "log"}

    def test_declares_only_the_level_and_the_grid(self):
        inherited = list(sim.ScenarioConfig._fields)
        names = list(cli.RunConfig._fields)
        assert issubclass(cli.RunConfig, sim.ScenarioConfig)
        assert names == inherited + ["constraint_C", "grid"]

    def test_load_config_is_the_h0_scenario(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, grid=self.GRID))
        # BASE_CONFIG's H0 scenario, built by hand
        scenario = sim.ScenarioConfig(
            truth=Hypothesis.H0, params=seqjde.ModelParams(mu_x=0.0, sigma_x=1.0, sigma=1.0),
            costs=seqjde.CostWeights(c0=1.0, c1=1.0, ce=1.0), channel=sim.Constant(1.0),
            master_seed=42, reps=400, t_max=200)
        assert isinstance(cfg, sim.ScenarioConfig) and cfg.truth is Hypothesis.H0
        for name in sim.ScenarioConfig._fields:
            assert getattr(cfg, name) == getattr(scenario, name), name
        assert (cfg.constraint_C, cfg.grid) == (1.5, cli.GridSpec(0.001, 10.0, 4, "log"))
        assert cli.load_config(write_config(tmp_path)).grid is None

    @pytest.mark.parametrize("C", [1.5, 2.5], ids=["observe", "stop_at_zero"])
    def test_arms_match_a_hand_built_pair(self, tmp_path, C):
        cfg = cli.load_config(write_config(tmp_path, channel={"type": "rayleigh", "scale": 0.7},
                                           constraint_C=C))
        cal = gfunc.stopping_rule(C, cfg.params, cfg.costs)
        pair = [sim.ScenarioConfig(truth=truth, params=cfg.params, costs=cfg.costs,
                                   channel=cfg.channel, master_seed=42, reps=400, t_max=200)
                for truth in (Hypothesis.H0, Hypothesis.H1)]
        got = sim.run_arms(cfg, cal)
        want = sim.run_arms(pair[0], cal)
        for name in sim.Arms._fields:
            a, b = (np.asarray(getattr(arms, name)) for arms in (got, want))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_flags_keep_the_level_and_the_grid(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, grid=self.GRID, constraint_C=2.0),
                              master_seed=7, reps=100)
        assert (cfg.master_seed, cfg.reps, cfg.t_max, cfg.truth) == (7, 100, 200, Hypothesis.H0)
        assert (cfg.constraint_C, cfg.grid) == (2.0, cli.GridSpec(0.001, 10.0, 4, "log"))

    @pytest.mark.parametrize("mc, flags, message", [
        ({"reps": 0}, [], "reps must be an integer >= 1, got 0"),
        ({}, ["--reps", "0"], "reps must be an integer >= 1, got 0"),
        ({}, ["--seed", "-1"], "master_seed must be an integer >= 0, got -1"),
    ], ids=["mc", "reps-flag", "seed-flag"])
    def test_run_sizes_are_checked_before_the_grid(self, tmp_path, capsys, mc, flags, message):
        bad_grid = {**self.GRID, "points": 1}
        cfg = write_config(tmp_path, grid=bad_grid, mc={**BASE_CONFIG["mc"], **mc})
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o.json")]
                    + flags) == 2
        assert capsys.readouterr().err == f"seqjde: {message}\n"


class TestCalibrate:
    def test_observe_regime_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["regime"] == "observe"
        assert doc["gamma"] > 0
        assert doc["C"] == 1.5
        assert doc["C_max"] == 2.0
        assert doc["target"] == -0.5
        assert abs(doc["G_at_gamma"] - doc["target"]) <= 1e-9
        assert doc["decision"] is None

    def test_stop_at_zero_output(self, tmp_path):
        cfg = write_config(tmp_path, constraint_C=2.5)
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["regime"] == "stop_at_zero"
        assert doc["gamma"] is None
        assert doc["decision"] == "H1"
        assert doc["estimate"] == 0.0

    def test_stop_at_zero_estimate_is_the_prior_mean_bit_for_bit(self, tmp_path):
        # at this model the posterior mean with no data, (0 + mu_x*kappa)/(0 + kappa),
        # rounds to 0.8899999999999999: the prior H1 estimate must be mu_x itself
        cfg = write_config(tmp_path, overrides={"model": {"mu_x": 0.89, "sigma_x": 0.8,
                                                          "sigma": 2.8}}, constraint_C=2.0)
        run = cli.load_config(cfg)
        p = run.params
        assert stats.estimate(stats.SufficientStats(), p) != p.mu_x
        assert admissible_cost_bound(p, run.costs) <= run.constraint_C  # C_max = 1.64
        bits = struct.pack("<d", 0.89)
        for argv in (["calibrate"], ["simulate", "--truth", "H0"],
                     ["simulate", "--truth", "H1"]):
            out = tmp_path / "o.json"
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["decision"] == "H1"
            assert struct.pack("<d", doc["estimate"]) == bits, argv
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "mc.json")]) == 0
        rows = [line.split(",") for line in (tmp_path / "mc.reps.csv").read_text().splitlines()]
        assert len(rows) == 1 + 2 * BASE_CONFIG["mc"]["reps"]
        assert {row[4] for row in rows[1:]} == {"0.89000000000000001"}
        cal = gfunc.stopping_rule(run.constraint_C, run.params, run.costs)
        arms = sim.run_arms(run, cal)
        assert arms.T == 0 and arms.decision.all()
        assert (arms.xhat == p.mu_x).all()

    def test_zero_constraint_is_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, constraint_C=0.0)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "infeasible constraint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["calibrate"], ["simulate", "--truth", "H1"],
                                         ["montecarlo"], ["compare"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("C, code", [(0.5, 3), (2.0, 0)])
    def test_overflowing_prior_shift_fails_only_where_a_root_is_needed(self, tmp_path, capsys,
                                                                       command, C, code):
        # kappa = 1e10: (mu_x*kappa)^2 overflows, but only a margin root needs it,
        # and at C >= C_max = 1 the rule stops at zero and solves none
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 1e145, "sigma_x": 1e-5, "sigma": 1.0},
            "costs": {"c0": 1.0, "c1": 1.0, "ce": 0.0}}, constraint_C=C)
        out = tmp_path / "o.json"
        assert main(command + ["--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err == ("" if code == 0 else "seqjde: (mu_x*kappa)^2 overflows "
                                           "a float: mu_x=1e+145, kappa=9999999999.999998\n")
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("tiny", [1e-17, 1e-300])
    def test_undetermined_threshold_exits_3(self, tmp_path, capsys, tiny):
        cfg = write_config(tmp_path, constraint_C=tiny)  # mc.reps = 400
        for command in (["calibrate"], ["simulate", "--truth", "H1"], ["montecarlo"],
                        ["compare"]):
            assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("seqjde: threshold not determined"), command
            assert err.count("\n") == 1 and list(tmp_path.glob("o*")) == [], command

    @pytest.mark.parametrize("tiny", [1e-17, 1e-300])
    @pytest.mark.parametrize("command, overrides, message", [
        (["montecarlo"], {"mc": {"reps": 1, "master_seed": 42, "t_max": 200}},
         "Monte Carlo needs reps >= 2 for standard errors, got 1"),
        (["compare"], {"mc": {"reps": 1, "master_seed": 42, "t_max": 200}},
         "Monte Carlo needs reps >= 2 for standard errors, got 1"),
        (["simulate", "--truth", "H1"], {"channel": {"type": "from_file", "path": "missing.txt"}},
         "cannot read channel file 'missing.txt'"),
        (["montecarlo"], {"channel": {"type": "from_file", "path": "missing.txt"}},
         "cannot read channel file 'missing.txt'"),
        (["compare"], {"channel": {"type": "iid_gaussian", "std": 1.7976931348623157e308}},
         "a config value overflows a float: IidGaussian channel drew a gain that is not finite"),
    ], ids=["montecarlo-reps", "compare-reps", "simulate-file", "montecarlo-file", "compare-gain"])
    def test_config_errors_precede_an_undetermined_threshold(self, tmp_path, capsys, monkeypatch,
                                                             command, overrides, message, tiny):
        # whether C determines gamma is checked where gamma is solved: after the
        # replication floor, the channel file and the gains
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, overrides=overrides, constraint_C=tiny)
        assert main(command + ["--config", cfg, "--out", "o.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seqjde: {message}") and err.count("\n") == 1
        assert list(tmp_path.glob("o*")) == []

    def test_exit_code_follows_the_error_class(self, tmp_path, capsys, monkeypatch):
        class Subclass(errors.NumericalError):
            pass

        def fail(*args):
            raise Subclass("a numerical failure of a new kind")

        monkeypatch.setattr(gfunc, "solve_gamma", fail)
        cfg = write_config(tmp_path)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
        assert capsys.readouterr().err == "seqjde: a numerical failure of a new kind\n"


class TestGtable:
    def test_table_structure_and_oracle_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"grid": {"u_min": 0.0, "u_max": 5.0, "points": 6,
                                "spacing": "linear"}},
        )
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "U,g,V1,V2,G,G_quadrature,abs_diff"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        # zero-energy row: closed form only, quadrature cells empty
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][4]) == 0.0
        assert rows[0][5] == "" and rows[0][6] == ""
        gs = [float(r[4]) for r in rows]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        assert all(float(r[6]) <= 1e-7 for r in rows[1:])

    def test_requires_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gtable", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 2

    def test_energy_too_large_for_kappa_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-70},
            "grid": {"u_min": 1e300, "u_max": 1e308, "points": 3, "spacing": "log"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("seqjde: energy U=1e+300 ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("ce", [0.0, 1.0])
    def test_overflowing_root_exits_3(self, tmp_path, capsys, ce):
        # kappa = 1e-140: the root was inf (ce = 0) or -inf (ce = 1), and every
        # row printed G = nan, with exit 0 for ce = 0
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-70},
            "costs": {"c0": 1.0, "c1": 1.0, "ce": ce},
            "grid": {"u_min": 1e170, "u_max": 1e180, "points": 3, "spacing": "log"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("seqjde: energy U=1e+170 ") and err.count("\n") == 1
        assert not out.exists()

    def test_quadrature_overflow_exits_3_with_the_table(self, tmp_path, capsys):
        # exp(log_lr - z^2/2) overflows in the quadrature integrand at this
        # mu_x*kappa; gtable exited 2, "a config value overflows a float"
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": -1.23e9, "sigma_x": 1.0, "sigma": 1.87e-10},
            "costs": {"c0": 1.37e230, "c1": 8.8e-81, "ce": 0.0},
            "grid": {"u_min": 0.0, "u_max": 2.0, "points": 3, "spacing": "linear"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "gtable: quadrature failed on 2 grid point(s)\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.0, 1.0, 2.0]
        assert all(row[5:] == ["", ""] for row in rows)
        assert all(math.isfinite(float(x)) for row in rows for x in row[:5])

    def test_quadrature_below_the_infinite_energy_limit_fails_the_row(self, tmp_path, capsys):
        # the integrand's exponent cancels two huge terms in this wide core, and
        # each core quad returned -2.2e174 with error estimate 0: the row printed
        # G_quadrature = -4.5e174 with exit 0, though G >= limit = -4.8e140
        U = 3.775896748181862e+26
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 1.1852249545775236e-22, "sigma_x": 3.3584933399124e+23,
                      "sigma": 1.0181164410228953e+29},
            "costs": {"c0": 9.358433318920415e+131, "c1": 4.779038261474787e+140, "ce": 0.0},
            "grid": {"u_min": 0.0, "u_max": U, "points": 2, "spacing": "linear"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "gtable: quadrature failed on 1 grid point(s)\n"
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[0]) == U
        assert row[5:] == ["", ""]
        assert math.isfinite(float(row[4]))

    def test_negative_quadrature_error_estimate_fails_the_row(self, tmp_path, capsys):
        # both core quad calls return a negative error estimate here (-1.7e94
        # and -7.5e94), so the sum passed the tolerance check: the row printed
        # G_quadrature = -9.3e-96 against G = -1.1e7 with exit 0
        U = 1.917644899271261e+54
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 1.2733932891996643e+29, "sigma_x": 2.731869096227883e+31,
                      "sigma": 1.5039447791993765e-45},
            "costs": {"c0": 7.124807172536587e-49, "c1": 11226210.219135704, "ce": 0.0},
            "grid": {"u_min": 0.0, "u_max": U, "points": 2, "spacing": "linear"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "gtable: quadrature failed on 1 grid point(s)\n"
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[0]) == U
        assert row[5:] == ["", ""]
        assert math.isfinite(float(row[4]))

    def test_tail_noise_no_longer_fails_the_table(self, tmp_path, capsys):
        # a row of a log-uniform probe: the float integrand beyond the core is
        # rounding noise here, and integrating it over the infinite tails
        # failed the quadrature (exit 3); the core alone meets tol
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 0.0, "sigma_x": 3.375202115888247e-32, "sigma": 22539424.858644355},
            "costs": {"c0": 2.243039497912325e+299, "c1": 1.6547558302722903e-120, "ce": 0.0},
            "grid": {"u_min": 0.0, "u_max": 2.5880704162350616e+101, "points": 2,
                     "spacing": "linear"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[0]) == 2.5880704162350616e+101
        assert 0.0 < float(row[6]) <= 1e-9

    def test_ce_zero_cost_ratio_underflow_runs(self, tmp_path, capsys):
        # c0/c1 underflows to 0: log(c0/c1) ended in a ValueError traceback
        cfg = write_config(tmp_path, overrides={
            "model": {"mu_x": 0.5, "sigma_x": 1.0, "sigma": 1.0},
            "costs": {"c0": 5e-324, "c1": 3.0, "ce": 0.0},
            "grid": {"u_min": 0.0, "u_max": 4.0, "points": 5, "spacing": "linear"}})
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [[float(x) for x in line.split(",") if x]
                for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 and all(math.isfinite(x) for row in rows for x in row)
        # the region is the whole line, so G = c0 - c1 - ce*mu_x^2 ~ -3 everywhere
        assert all(row[4] == pytest.approx(-3.0) for row in rows)
        assert all(row[6] <= 1e-9 for row in rows[1:])

    def test_log_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"grid": {"u_min": 0.01, "u_max": 100.0, "points": 5,
                                "spacing": "log"}},
        )
        out = tmp_path / "g.csv"
        assert main(["gtable", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert float(rows[0][0]) == pytest.approx(0.01)
        assert float(rows[-1][0]) == pytest.approx(100.0)


class TestSimulate:
    def test_trace_matches_outcome(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--truth", "H1"]) == 0
        doc = json.loads(out.read_text())
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0] == "t,h,y,U,V,logL,xhat"
        assert len(trace) - 1 == doc["T"]
        last = trace[-1].split(",")
        assert float(last[3]) == doc["U_T"]
        assert float(last[4]) == doc["V_T"]

    def test_x_override_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--truth", "H1", "--x-override", "0.7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()

    def test_h0_truth_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--truth", "H0"]) == 0
        assert json.loads(out.read_text())["T"] >= 1

    def test_draws_noise_up_to_the_stop_only(self, tmp_path, monkeypatch):
        drawn = []
        draw = sim.sample_observations
        monkeypatch.setattr(sim, "sample_observations",
                            lambda cfg, rep, h: drawn.append(len(h)) or draw(cfg, rep, h))
        cfg = write_config(tmp_path, overrides={"channel": {"type": "iid_gaussian", "std": 1.0}})
        out = tmp_path / "run.json"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--truth", "H1"]) == 0
        T = json.loads(out.read_text())["T"]
        assert drawn == [T] and 1 < T < BASE_CONFIG["mc"]["t_max"]

    def test_horizon_exhaustion_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"channel": {"type": "constant", "h": 0.01},
                       "mc": {"reps": 10, "master_seed": 1, "t_max": 5}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"),
                     "--truth", "H1"]) == 4


_STOPPING_COMMANDS = [["simulate", "--truth", "H0"], ["simulate", "--truth", "H1"],
                      ["montecarlo"], ["compare"]]


def _command_id(argv):
    return "-".join(a for a in argv if a != "--truth")


def _reference_simulate(cfg_path: str, truth: str, x_override: float | None):
    """``simulate``'s outcome and trace text by the online procedure.

    The engine folds ``sample_scenario``'s full path under the solved
    threshold, and the trace folds each of the T pairs again with ``stats.update``.
    """
    cfg = cli.load_config(cfg_path)
    p, c = cfg.params, cfg.costs
    scen = sim.ScenarioConfig(truth=Hypothesis[truth], params=p, costs=c, channel=cfg.channel,
                              master_seed=cfg.master_seed, reps=cfg.reps, t_max=cfg.t_max)
    x, y, h = sim.sample_scenario(scen, 0)
    if x_override is not None:
        y = y + (x_override - x) * h
    ys, hs = y.tolist(), h.tolist()
    cal = gfunc.solve_gamma(cfg.constraint_C, p, c)
    out = engine.run_sequential(zip(ys, hs), cal, p, c, cfg.t_max)
    lines = ["t,h,y,U,V,logL,xhat\n"]
    s = stats.SufficientStats()
    for y_t, h_t in zip(ys[:out.T], hs):
        s = stats.update(s, y_t, h_t)
        lines.append(f"{s.t:d},{h_t:.17g},{y_t:.17g},{s.U:.17g},{s.V:.17g},"
                     f"{stats.log_likelihood_ratio(s, p):.17g},{stats.estimate(s, p):.17g}\n")
    return out, "".join(lines)


def _simulate_matches_reference(tmp_path, cfg: str, truth: str, x_override) -> int:
    """Run ``simulate``, check its JSON and trace against the reference, and return its T."""
    out = tmp_path / "run.json"
    flags = [] if x_override is None else ["--x-override", repr(x_override)]
    assert main(["simulate", "--config", cfg, "--out", str(out), "--truth", truth, *flags]) == 0
    ref, trace = _reference_simulate(cfg, truth, x_override)
    expected = ref._asdict() | {"decision": ref.decision.name}
    assert list(json.loads(out.read_text()).items()) == list(expected.items())
    assert (tmp_path / "run.trace.csv").read_text() == trace
    return ref.T


_SIMULATE_RUNS = [("H0", None), ("H1", None), ("H1", 0.7)]
_SIMULATE_CHANNELS = {
    "constant": {"type": "constant", "h": 1.0},
    "iid_gaussian": {"type": "iid_gaussian", "std": 1.0},
    "rayleigh": {"type": "rayleigh", "scale": 0.8},
    "ar1": {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5},
    "from_file": {"type": "from_file", "path": "gains.txt"},
}


class TestSimulateReference:
    """``simulate`` stops on the gains first and draws T noise values; the
    online engine on the full path and a per-step trace give the same bytes."""

    @pytest.mark.parametrize("truth, x_override", _SIMULATE_RUNS)
    @pytest.mark.parametrize("channel", sorted(_SIMULATE_CHANNELS))
    def test_every_channel(self, tmp_path, channel, truth, x_override):
        spec = dict(_SIMULATE_CHANNELS[channel])
        if channel == "from_file":
            # signed zeros first: the running sum V starts at 0.0 + -0.0 = 0.0
            gains = np.random.default_rng(5).standard_t(3, size=3000).tolist()
            (tmp_path / "gains.txt").write_text("-0\n0\n-0\n" + "".join(f"{g!r}\n" for g in gains))
            spec["path"] = str(tmp_path / "gains.txt")
        # 0.2 observes, 2.5 is above C_max = 2 and stops at zero
        for C, seed in ((0.2, 11), (0.2, 12), (2.5, 11)):
            cfg = write_config(tmp_path, overrides={
                "channel": spec, "mc": {"reps": 3, "master_seed": seed, "t_max": 3000}},
                constraint_C=C)
            T = _simulate_matches_reference(tmp_path, cfg, truth, x_override)
            assert (T == 0) == (C > 2)

    @pytest.mark.parametrize("truth, x_override", _SIMULATE_RUNS)
    @pytest.mark.parametrize("T", [1, 2, 1023, 1024, 1025, 2049])
    def test_stop_at_a_block_edge_and_the_horizon(self, tmp_path, T, truth, x_override):
        # a constant gain whose energy first reaches gamma at step T (the trace
        # writes rows per block of 1024); at t_max = T it is the horizon's last step
        model, costs = BASE_CONFIG["model"], BASE_CONFIG["costs"]
        gamma = gfunc.solve_gamma(1.5, seqjde.ModelParams(**model), seqjde.CostWeights(**costs)).gamma
        for t_max in (T + 3, T):
            cfg = write_config(tmp_path, overrides={
                "channel": {"type": "constant", "h": math.sqrt(gamma / (T - 0.5))},
                "mc": {"reps": 1, "master_seed": 7, "t_max": t_max}})
            assert _simulate_matches_reference(tmp_path, cfg, truth, x_override) == T


class TestMonteCarlo:
    @pytest.mark.parametrize("command", _STOPPING_COMMANDS, ids=_command_id)
    def test_horizon_exhaustion_names_the_exact_gamma(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path,
            overrides={"channel": {"type": "constant", "h": 0.01},
                       "mc": {"reps": 10, "master_seed": 1, "t_max": 5}},
        )
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "o.json")]) == 4
        cli_cfg = cli.load_config(cfg)
        gamma = gfunc.solve_gamma(1.5, cli_cfg.params, cli_cfg.costs).gamma
        energy = float(np.cumsum(np.full(5, 0.01) ** 2)[-1])
        assert capsys.readouterr().err == (f"seqjde: gain path energy {energy} never reaches "
                                           f"threshold {gamma} within t_max=5\n")

    @pytest.mark.parametrize("command", _STOPPING_COMMANDS, ids=_command_id)
    def test_stop_at_zero_reads_no_channel(self, tmp_path, capsys, command):
        # C = 2.5 is above C_max = 2 on this model: the test decides from the
        # prior, so a channel file that does not exist is never opened
        outputs = {}
        for kind, channel in (("constant", {"type": "constant", "h": 1.0}),
                              ("missing", {"type": "from_file",
                                           "path": str(tmp_path / "no_such_gains.txt")})):
            cfg = write_config(tmp_path, overrides={"channel": channel}, constraint_C=2.5)
            out = tmp_path / kind / "o.json"
            out.parent.mkdir()
            assert main(command + ["--config", cfg, "--out", str(out)]) == 0
            outputs[kind] = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
        assert capsys.readouterr().err == ""
        assert outputs["missing"] == outputs["constant"]
        assert "o.json" in outputs["constant"]

    def test_report_fields_and_rep_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["reps"] == 400
        assert doc["constraint_C"] == 1.5
        combined = doc["combined"]["value"]
        assert combined <= 1.5 + 3 * doc["combined"]["stderr"]
        rows = (tmp_path / "mc.reps.csv").read_text().splitlines()
        assert rows[0] == "rep,arm,x,decision,estimate"
        assert len(rows) - 1 == 2 * 400
        # null arm first, amplitude pinned at zero
        first = rows[1].split(",")
        assert first[1] == "0" and float(first[2]) == 0.0

    @pytest.mark.parametrize("overrides, C", [
        ({}, 1.5),  # T = 1
        ({}, 0.2),  # T = 116
        ({"model": {"mu_x": 0.5, "sigma_x": 0.8, "sigma": 1.2},
          "costs": {"c0": 1.0, "c1": 0.2, "ce": 5.0}}, 2.1),  # T = 3
    ])
    def test_rep_csv_alone_reproduces_the_report(self, tmp_path, overrides, C):
        # each row's own values give the report's detection and estimation terms
        # bit for bit, by cost_report's operations: no derived column is needed
        cfg = write_config(tmp_path, overrides=overrides, constraint_C=C)
        out = tmp_path / "mc.json"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = [line.split(",") for line in out.with_suffix(".reps.csv").read_text().splitlines()]
        assert rows[0] == ["rep", "arm", "x", "decision", "estimate"]
        arms = [[r for r in rows[1:] if r[1] == tag] for tag in ("0", "1")]
        d0, d1 = (np.array([r[3] == "1" for r in arm]) for arm in arms)
        assert 0 < d0.sum() < len(d0) and 0 < d1.sum() < len(d1)  # both decisions in each arm
        x = np.array([float(r[2]) for r in arms[1]])
        xhat = np.array([float(r[4]) if r[3] == "1" else math.nan for r in arms[1]])
        n0, n1 = len(d0), len(d1)
        sq_err = np.where(d1, (xhat - x) ** 2, x**2)
        recomputed = {
            "p0_d1": float(np.count_nonzero(d0) / n0),
            "p1_d0": float(np.count_nonzero(~d1) / n1),
            "mse_d1": float(np.add.reduce(np.where(d1, sq_err, 0.0)) / n1),
            "mse_d0": float(np.add.reduce(np.where(d1, 0.0, sq_err)) / n1),
        }
        for name, value in recomputed.items():
            assert value.hex() == doc[name]["value"].hex(), name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_seed_and_reps_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        assert main(["montecarlo", "--config", cfg, "--out", str(out1),
                     "--seed", "7", "--reps", "100"]) == 0
        assert main(["montecarlo", "--config", cfg, "--out", str(out2),
                     "--seed", "8", "--reps", "100"]) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert d1["reps"] == d2["reps"] == 100
        assert d1["combined"]["value"] != d2["combined"]["value"]

    @pytest.mark.parametrize("n, decided", [
        (72, "mixed"), (72, "H0"), (72, "H1"), (2, "mixed"),
        (cli._REP_BLOCK - 1, "mixed"), (cli._REP_BLOCK, "mixed"), (cli._REP_BLOCK + 1, "mixed"),
        (2 * cli._REP_BLOCK + 1, "mixed"), (2 * cli._REP_BLOCK + 1, "H0"),
        (2 * cli._REP_BLOCK + 1, "H1")])
    def test_rep_lines_match_the_f_string_writer(self, n, decided):
        # the block %-templates must print what the per-row f-string printed,
        # also across block boundaries
        specials = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    0.1, 1 / 3, 0.0, -1.5]
        rng = np.random.default_rng(20261018)
        size = max(64, n)
        bits = rng.integers(0, 2**64, size=(2, size), dtype=np.uint64, endpoint=False)
        amplitude, estimate = (np.array(first + row.view(np.float64).tolist())[:n]
                               for first, row in zip((specials, specials[::-1]), bits))
        decision = {"mixed": np.arange(n) % 3 == 1, "H0": np.zeros(n, bool),
                    "H1": np.ones(n, bool)}[decided]
        # H0's amplitudes are +0.0, as run_arms draws them; the other rows differ,
        # so a swapped or repeated row shows
        x, xhat = np.stack([np.zeros(n), amplitude]), np.stack([estimate, estimate[::-1]])
        arms = sim.Arms(T=3, U_T=2.0, predicted=1.0, x=x, V=xhat, logL=xhat, xhat=xhat,
                        decision=np.stack([decision, decision]))

        def f_string_writer(arms):
            yield "rep,arm,x,decision,estimate\n"
            for tag in (0, 1):
                columns = (arms.x[tag].tolist(), arms.decision[tag].tolist(),
                           arms.xhat[tag].tolist())
                for rep, (x, d, xhat) in enumerate(zip(*columns)):
                    estimate = f"{xhat:.17g}" if d else ""
                    yield f"{rep:d},{tag:d},{x:.17g},{d:d},{estimate}\n"

        expect = "".join(f_string_writer(arms)).splitlines(keepends=True)
        got = "".join(cli._rep_lines(arms)).splitlines(keepends=True)
        assert len(got) == 1 + 2 * n
        # name the first differing line: a diff of two ~4100-line strings takes minutes
        for i, (line, want) in enumerate(zip(got, expect)):
            if line != want:
                pytest.fail(f"line {i} differs: {line!r} != {want!r}")
        assert len(got) == len(expect)

    @pytest.mark.parametrize("command", ["montecarlo", "compare"])
    def test_one_replication_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "mc.json"
        assert main([command, "--config", cfg, "--out", str(out), "--reps", "1"]) == 2
        assert capsys.readouterr().err == \
            "seqjde: Monte Carlo needs reps >= 2 for standard errors, got 1\n"
        assert not out.exists()


class TestCompare:
    def test_output_has_both_schemes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"model": {"mu_x": 1.0, "sigma_x": 1.0, "sigma": 1.0},
                       "costs": {"c0": 1.0, "c1": 0.2, "ce": 5.0}},
            constraint_C=3.0,
        )
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"joint", "separate", "difference"}
        assert doc["difference"]["value"] == pytest.approx(
            doc["joint"]["combined"]["value"] - doc["separate"]["combined"]["value"]
        )
        # the paired standard error: both schemes score the same replications
        run = cli.load_config(cfg)
        _, _, se = sim.compare_arms(run, gfunc.stopping_rule(3.0, run.params, run.costs))
        assert doc["difference"]["stderr"] == se > 0

    def test_ce_zero_difference_is_exactly_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"costs": {"c0": 1.0, "c1": 1.0, "ce": 0.0}},
            constraint_C=0.6,
        )
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["difference"] == {"value": 0.0, "stderr": 0.0}

    # costs 1/0/1 on the reference model (C_max = 1): a run that ends in
    # horizon exhaustion, an undetermined threshold and an unreadable channel
    # file, each of which the joint rule reaches, since it is defined at c1 = 0
    @pytest.mark.parametrize("setup, montecarlo_code", [
        ({"channel": {"type": "constant", "h": 1e-3},
          "mc": {"reps": 400, "master_seed": 42, "t_max": 10}, "constraint_C": 0.3}, 4),
        ({"constraint_C": 1e-17}, 3),
        ({"channel": {"type": "from_file", "path": "no_such_gains.txt"},
          "constraint_C": 0.3}, 2),
    ], ids=["horizon", "undetermined", "missing_file"])
    def test_separate_costs_are_refused_before_any_gain_is_read(
            self, tmp_path, capsys, monkeypatch, setup, montecarlo_code):
        monkeypatch.chdir(tmp_path)  # the channel file's path is relative
        costs = {"c0": 1.0, "c1": 0.0, "ce": 1.0}
        cfg = write_config(tmp_path, overrides=dict(setup, costs=costs))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["compare", "--config", cfg, "--out", str(out / "cmp.json")]) == 2
        assert capsys.readouterr().err == "seqjde: separate detection needs c1 > 0\n"
        assert list(out.iterdir()) == []
        code = main(["montecarlo", "--config", cfg, "--out", str(out / "mc.json")])
        assert code == montecarlo_code
        assert "separate detection" not in capsys.readouterr().err


class TestWorkCounts:
    """Each energy's margin root is solved once per call, its quadrature over two
    finite intervals, and the gain path once per run."""

    GTABLE_GRID = {"u_min": 1e-3, "u_max": 1e5, "points": 12, "spacing": "log"}

    def test_gtable_solves_one_root_per_row(self, tmp_path, root_solves):
        cfg = write_config(tmp_path, overrides={"grid": self.GTABLE_GRID})
        assert main(["gtable", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 0
        assert len(root_solves) == 12

    def test_gtable_integrates_two_finite_intervals_per_row(self, tmp_path, monkeypatch):
        # the core's two region intervals only, not the infinite tails beyond
        # it (30 more integrand calls per row); the integrand count is pinned
        import scipy.integrate

        quad = scipy.integrate.quad
        bounds, evals = [], []

        def counting(func, a, b, **kwargs):
            def counted(z):
                evals.append(z)
                return func(z)

            bounds.append((a, b))
            return quad(counted, a, b, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting)
        cfg = write_config(tmp_path, overrides={"grid": self.GTABLE_GRID})
        assert main(["gtable", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 0
        assert len(bounds) == 2 * 12
        assert all(math.isfinite(a) and math.isfinite(b) for a, b in bounds)
        assert len(evals) == 7224

    @pytest.mark.parametrize("command", ["calibrate", "montecarlo", "compare"])
    def test_calibrated_commands_solve_few_roots(self, tmp_path, root_solves, command):
        # calibrate bisects to the end, G at gamma among its roots.  On the unit
        # gain the Monte Carlo commands solve one root to bracket gamma in
        # (0, 1], which already fixes T = 1, then the predicted cost's root,
        # and compare also the separate test's region
        cfg = write_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
        solves = len(root_solves)
        root_solves.clear()
        cli_cfg = cli.load_config(cfg)
        gfunc.solve_gamma(cli_cfg.constraint_C, cli_cfg.params, cli_cfg.costs)
        assert len(root_solves) <= 39
        assert solves == {"calibrate": len(root_solves), "montecarlo": 2, "compare": 3}[command]

    @pytest.mark.parametrize("C, channel, lazy, drained", [
        (1.5, {"type": "constant", "h": 1.0}, 2, 40),
        (1.5, {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5}, 5, 40),
        (0.2, {"type": "constant", "h": 1.0}, 15, 42),
        (0.2, {"type": "rayleigh", "scale": 0.8}, 18, 42),
    ])
    def test_montecarlo_halves_only_until_t_is_fixed(self, tmp_path, root_solves,
                                                     C, channel, lazy, drained):
        # drained: the calibration's roots plus the predicted cost's, which is
        # what montecarlo solved when it calibrated eagerly
        cfg = write_config(tmp_path, overrides={"channel": channel}, constraint_C=C)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
        solves = len(root_solves)
        root_solves.clear()
        cli_cfg = cli.load_config(cfg)
        gfunc.solve_gamma(C, cli_cfg.params, cli_cfg.costs)
        assert (solves, len(root_solves) + 1) == (lazy, drained)

    @pytest.mark.parametrize("command, C, runs", [
        pytest.param(command, C, runs, id=command + tag)
        for C, runs, tag in ((1.5, 1, ""), (2.5, 0, "-stop_at_zero"))
        for command in ("montecarlo", "compare")
    ])
    def test_one_gain_path_per_run(self, tmp_path, monkeypatch, command, C, runs):
        # a rule that stops at zero reads no gain, so it generates no path
        paths = []
        gen_channel = sim.gen_channel

        def counting(*args):
            paths.append(args)
            return gen_channel(*args)

        monkeypatch.setattr(sim, "gen_channel", counting)
        cfg = write_config(tmp_path, overrides={
            "channel": {"type": "ar1", "phi": 0.9, "innov_std": 0.5, "init_std": 0.5}},
            constraint_C=C)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
        assert len(paths) == runs


class TestScaleInvariance:
    """Scaling every cost and C by one factor leaves gamma, and every exit code, as it is.

    Scaling the noise by ``a`` scales gamma by ``a^2``: ``y = x*h + w`` keeps
    its law when the gains are multiplied by ``a`` and the noise too, so
    ``gamma/kappa`` stays as it is.
    """

    @pytest.mark.parametrize("model, costs, C", [
        ({"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1.0}, (1.0, 1.0, 1.0), 1.5),
        ({"mu_x": 0.5, "sigma_x": 0.8, "sigma": 1.2}, (1.0, 1.0, 1.0), 0.3),
        ({"mu_x": 1.0, "sigma_x": 1.0, "sigma": 1.0}, (1.0, 0.2, 5.0), 1.1),
    ])
    def test_scaled_costs_calibrate_alike(self, tmp_path, model, costs, C):
        gammas = {}
        for k in range(-10, 13):
            s = 10.0**k
            cfg = write_config(tmp_path, overrides={
                "model": model,
                "costs": dict(zip(("c0", "c1", "ce"), (s * v for v in costs))),
            }, constraint_C=s * C)
            for command in ("calibrate", "montecarlo", "compare"):
                out = tmp_path / f"{command}.json"
                assert main([command, "--config", cfg, "--out", str(out), *(
                    [] if command == "calibrate" else ["--reps", "20"])]) == 0, (k, command)
            gammas[k] = json.loads((tmp_path / "calibrate.json").read_text())["gamma"]
        for k, gamma in gammas.items():
            assert gamma == pytest.approx(gammas[0], rel=1e-9), k

    @pytest.mark.parametrize("mu_x, sigma_x", [(0.0, 1.0), (0.5, 0.8), (-0.3, 1.5)])
    @pytest.mark.parametrize("costs", [(1.0, 1.0, 1.0), (1.0, 0.2, 5.0), (1.0, 1.0, 0.0)])
    def test_scaled_noise_calibrates_alike(self, tmp_path, mu_x, sigma_x, costs):
        c = dict(zip(("c0", "c1", "ce"), costs))
        C = 0.5 * admissible_cost_bound(seqjde.ModelParams(mu_x, sigma_x, 1.0),
                                        seqjde.CostWeights(**c))
        ratios = {}
        for k in (-60, -30, -10, -6, -3, -2, 0, 10, 40, 70, 75):
            sigma = 10.0**k * sigma_x
            cfg = write_config(tmp_path, overrides={
                "model": {"mu_x": mu_x, "sigma_x": sigma_x, "sigma": sigma}, "costs": c},
                constraint_C=C)
            out = tmp_path / "calibrate.json"
            assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0, k
            ratios[k] = json.loads(out.read_text())["gamma"] / (sigma**2 / sigma_x**2)
        for k, ratio in ratios.items():
            assert ratio == pytest.approx(ratios[0], rel=1e-9), k


class TestOutput:
    def test_unwritable_out_is_a_one_line_error(self, tmp_path, capsys):
        grid = {"u_min": 0.0, "u_max": 1.0, "points": 2, "spacing": "linear"}
        cfg = write_config(tmp_path, overrides={"grid": grid})
        for command, name in (("calibrate", "o.json"), ("gtable", "g.csv")):
            out = tmp_path / "missing" / name
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("seqjde: cannot write") and err.count("\n") == 1
        # the primary JSON is writable, its CSV sidecar is an existing directory:
        # a run that exits non-zero leaves no output file
        for argv, name, sidecar in ((["montecarlo", "--reps", "10"], "m.json", "m.reps.csv"),
                                    (["simulate", "--truth", "H1"], "s.json", "s.trace.csv")):
            (tmp_path / sidecar).mkdir()
            assert main(argv + ["--config", cfg, "--out", str(tmp_path / name)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("seqjde: cannot write") and err.count("\n") == 1
            assert not (tmp_path / name).exists()
            assert (tmp_path / sidecar).is_dir()
        # an --out that links elsewhere (such as /dev/stdout) is written through, never removed
        (tmp_path / "l.json").symlink_to(tmp_path / "target.json")
        (tmp_path / "l.reps.csv").mkdir()
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "l.json")]) == 2
        assert (tmp_path / "l.json").is_symlink() and (tmp_path / "target.json").is_file()

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_long_paths_are_cut_in_the_message(self, tmp_path, capsys, monkeypatch, flag):
        # a path too long to open is quoted by its first characters, and the OS
        # error by its reason alone, since str(OSError) repeats the path
        monkeypatch.chdir(tmp_path)
        paths = {"--config": write_config(tmp_path), "--out": "o.json", flag: "p" * 3000}
        assert main(["montecarlo", "--config", paths["--config"],
                     "--out", paths["--out"]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err[:300]
        assert "... (3002 characters): " in err and "p" * 61 not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("out", ["/", ".", ""])
    @pytest.mark.parametrize("command", [["montecarlo"], ["simulate", "--truth", "H1"]],
                             ids=lambda argv: argv[0])
    def test_out_without_a_file_name_is_a_one_line_error(self, tmp_path, capsys, monkeypatch,
                                                          command, out):
        # the CSV sidecar is named from --out, which here has no name to take a suffix
        cfg = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"seqjde: cannot write {quoted(out)}: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _open_fds() -> int | None:
    """How many descriptors this process holds, where the platform lists them."""
    return len(os.listdir("/proc/self/fd")) if sys.platform.startswith("linux") else None


class TestOsWrites:
    # each output chunk is one os.write, repeated until the kernel took all of it
    RUNS = (["montecarlo", "--reps", str(cli._REP_BLOCK + 2)], ["simulate", "--truth", "H1"],
            ["gtable"])

    def _outputs(self, tmp_path, name, cfg):
        (tmp_path / name).mkdir()
        for argv in self.RUNS:
            out = tmp_path / name / f"{argv[0]}.out"
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 0, argv
        return {path.name: path.read_bytes() for path in sorted((tmp_path / name).iterdir())}

    def test_short_writes_write_the_same_bytes(self, tmp_path, monkeypatch):
        grid = {"u_min": 0.0, "u_max": 4.0, "points": 5, "spacing": "linear"}
        cfg = write_config(tmp_path, overrides={"grid": grid})
        whole = self._outputs(tmp_path, "whole", cfg)
        write, sizes = cli.os.write, []

        def short_write(fd, data):
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(cli.os, "write", short_write)
        before = _open_fds()
        assert self._outputs(tmp_path, "short", cfg) == whole
        assert _open_fds() == before
        assert list(whole) == ["gtable.out", "montecarlo.out", "montecarlo.reps.csv",
                               "simulate.out", "simulate.trace.csv"]
        assert sum(sizes) == sum(map(len, whole.values())) and max(sizes) == 7

    @pytest.mark.parametrize("argv, sidecar", [(["montecarlo"], "reps"),
                                               (["simulate", "--truth", "H1"], "trace")],
                             ids=["montecarlo", "simulate"])
    def test_a_full_disk_on_the_sidecar_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                       argv, sidecar):
        cfg = write_config(tmp_path)
        out = tmp_path / "run" / "o.json"
        out.parent.mkdir()
        open_, write, paths, opened = cli.os.open, cli.os.write, {}, []

        def record_open(path, *args):
            fd = open_(path, *args)
            paths[fd] = str(path)  # a closed file's descriptor is reused
            opened.append(Path(path).name)
            return fd

        def full_sidecar(fd, data):
            if paths[fd].endswith(f".{sidecar}.csv"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        monkeypatch.setattr(cli.os, "open", record_open)
        monkeypatch.setattr(cli.os, "write", full_sidecar)
        before = _open_fds()
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert _open_fds() == before
        err = capsys.readouterr().err
        assert err == (f"seqjde: cannot write {quoted(str(out.with_suffix(f'.{sidecar}.csv')))}: "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert list(out.parent.iterdir()) == []
        assert opened == ["o.json", f"o.{sidecar}.csv"]


def test_byte_matrix_digests_are_pinned():
    # every output byte, exit code and stderr line of tools/byte_matrix.py's
    # 180 configs x 10 invocations is hashed into its config's pinned digest;
    # a change that moves bytes on purpose re-pins the file as the tool says
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location("byte_matrix", tools / "byte_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    pinned = dict(line.split() for line in (tools / "byte_matrix.digests").read_text().splitlines())
    found = matrix.digests(matrix.listing())
    moved = sorted(name for name in pinned.keys() | found.keys()
                   if pinned.get(name) != found.get(name))
    assert moved == [], f"{len(moved)} configs moved: {' '.join(moved)}"


def _layer_times():
    spec = importlib.util.spec_from_file_location(
        "layer_times", Path(__file__).resolve().parents[1] / "tools" / "layer_times.py")
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    return layer_times


def test_layer_times_rows_run_on_the_real_call_path(tmp_path, capsys, monkeypatch):
    # tools/layer_times.py's in-process rows, once each: a wrapped function that is no
    # longer called reads 0, and a renamed one fails to wrap.  No interpreter is started.
    # Each call writes new files, as bench/run.py's calls do, not over the last call's
    layer_times = _layer_times()
    rows = layer_times.rows(tmp_path)
    fresh = []

    def main(argv, main=cli.main):
        out = Path(argv[argv.index("--out") + 1])
        fresh.append(not out.exists() and not out.with_suffix(".reps.csv").exists())
        return main(argv)

    monkeypatch.setattr(cli, "main", main)
    originals = {name: getattr(*layer_times.target(name))
                 for row in rows for _, name, _ in row.layers if name is not None}
    found = {layer: value for row in rows for layer, value, _ in layer_times.time_row(row, 1, 1)}
    assert all(value > 0 for value in found.values())
    assert all(getattr(*layer_times.target(name)) is fn for name, fn in originals.items())
    assert [layer[9:] for layer in found if layer.startswith("mc-short/")] == [
        "argparse", "load_config", "stopping_rule", "run_arms", "cost_report", "report_json",
        "reps_csv", "file_writes", "main"]
    # TestWorkCounts' pins; montecarlo at C = 0.01 stops its bisection on a 100,000-step path
    roots = {layer[:-13]: n for layer, n in found.items() if layer.endswith("/_margin_root")}
    assert roots == {"calibrate@C=1.5": 39, "calibrate@C=0.2": 41, "calibrate@C=0.01": 46,
                     "montecarlo@C=1.5": 2, "montecarlo@C=0.2": 15, "montecarlo@C=0.01": 35}
    assert capsys.readouterr().err == ""
    assert fresh and all(fresh)


def test_cold_start_config_runs_every_command(tmp_path, capsys, monkeypatch):
    # what tools/layer_times.py's cold rows run in fresh interpreters: its child
    # script, once per subcommand in-process, exits 0 and reports every field
    layer_times = _layer_times()
    src = str(Path(cli.__file__).resolve().parents[1])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src first
    for argv in layer_times.cold_argvs(tmp_path):
        monkeypatch.setattr(sys, "argv", ["-c", src, *argv])
        with pytest.raises(SystemExit) as exit_:
            exec(layer_times.CHILD, {})
        assert exit_.value.code == 0, argv[0]
        assert Path(argv[argv.index("--out") + 1]).is_file(), argv[0]
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out.splitlines()[-1])
        assert list(report) == ["import_seqjde", "run", "run_loads_numpy", "scipy",
                                "peak_rss_mb"]
        assert all(value >= 0 for value in report.values()), argv[0]


def test_benchmark_golden_pins_hold(tmp_path, monkeypatch):
    # bench/golden.json pins the bytes bench/run.py checks: calibrate on each
    # workload's config, gtable on gtable-wide, and simulate-long at its golden
    # seed; the configs come from bench/run.py itself, which is only read
    bench_dir = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_run", bench_dir / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    spec.loader.exec_module(bench)
    golden = json.loads((bench_dir / "golden.json").read_text())

    def run(name, seed, command, *flags):
        cfg = tmp_path / f"{name}-{seed}.json"
        cfg.write_text(json.dumps(bench.config_dict(bench.WORKLOADS[name], seed)))
        out = tmp_path / f"{command}-{name}.json"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
        return out

    pinned = {**{f"calibrate {name}": d for name, d in golden["calibrate"].items()},
              "gtable-wide": golden["gtable-wide"],
              **{f"simulate-long {kind}": d for kind, d in golden["simulate-long"].items()}}
    found = {f"calibrate {name}": bench.sha256(run(name, 1, "calibrate"))
             for name in bench.WORKLOADS}
    found["gtable-wide"] = bench.sha256(run("gtable-wide", 1, "gtable"))
    long_run = bench.WORKLOADS["simulate-long"]
    out = run("simulate-long", bench.GOLDEN_SIM_SEED, long_run.command, *long_run.flags)
    found["simulate-long out"] = bench.sha256(out)
    found["simulate-long trace"] = bench.sha256(bench.sidecar(out, "trace"))
    assert len(pinned) == 7
    moved = sorted(name for name in pinned.keys() | found.keys()
                   if pinned.get(name) != found.get(name))
    assert moved == [], f"{len(moved)} pins moved: {', '.join(moved)}"


def test_only_gtable_loads_the_quadrature_stack(tmp_path):
    # SciPy is about half of a cold start: importing seqjde and running any
    # subcommand but gtable loads none of it; gtable's quadrature oracle loads
    # scipy.integrate.  NumPy is the rest: the import, load_config, calibrate and a
    # config load_config rejects load none of it; each array subcommand loads it.  Nor
    # do those four add dataclasses or inspect, counted against the modules loaded
    # before the import (NumPy imports inspect itself).  One interpreter per array
    # subcommand runs calibrate and the rejected config first
    src = str(Path(seqjde.__file__).resolve().parents[1])
    cfg = write_config(tmp_path, overrides={
        "grid": {"u_min": 0.0, "u_max": 1.0, "points": 2, "spacing": "linear"}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE_CONFIG, "channel": {"type": "rayleigh", "scale": -1.0}}))
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "loaded = lambda: ['numpy' in sys.modules, "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
             "sorted({'dataclasses', 'inspect'} & sys.modules.keys() - before)]; "
             "import seqjde.cli, seqjde.gfunc; steps = [loaded()]; "
             "seqjde.cli.load_config(sys.argv[2]); steps.append(loaded()); "
             "steps += [[seqjde.cli.main(argv), *loaded()] for argv in json.loads(sys.argv[3])]; "
             "print(json.dumps(steps))")

    def argv(command, config=cfg):
        extra = ["--truth", "H1"] if command == "simulate" else []
        return [command, "--config", str(config), "--out", str(tmp_path / "o.json"), *extra]

    for command in ("simulate", "montecarlo", "compare", "gtable"):
        argvs = [argv("calibrate"), argv("montecarlo", bad), argv(command)]
        run = subprocess.run([sys.executable, "-c", child, src, cfg, json.dumps(argvs)],
                             capture_output=True, text=True, check=True)
        imported, configured, calibrated, rejected, (rc, numpy, scipy, _) = json.loads(run.stdout)
        assert imported == configured == [False, [], []], command
        assert calibrated == [0, False, [], []] and rejected == [2, False, [], []], run.stderr
        assert rc == 0 and numpy, (command, run.stderr)
        if command == "gtable":
            assert "scipy.integrate" in scipy
        else:
            assert scipy == [], command


def test_cached_parser_keeps_no_state(tmp_path):
    # main reuses one parser per process: each argv must parse as it would on
    # a freshly built parser, whatever ran before it in the same process
    cfg = write_config(tmp_path)
    runs = [
        ["montecarlo"],
        ["montecarlo", "--seed", "5", "--reps", "40"],
        ["simulate", "--truth", "H1", "--x-override", "0.7"],
        ["simulate", "--truth", "H1"],
        ["montecarlo"],
        ["montecarlo", "--seed", "42", "--reps", "400"],  # the config's own values
    ]

    def run(i, argv, fresh):
        out = tmp_path / f"{'fresh' if fresh else 'cached'}{i}" / "o.json"
        out.parent.mkdir()
        argv = argv + ["--config", cfg, "--out", str(out)]
        if fresh:
            args = cli.build_parser().parse_args(argv)
            assert args.run(args) == 0
        else:
            assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}

    outputs = []
    for i, argv in enumerate(runs):
        outputs.append(run(i, argv, fresh=False))
        assert outputs[-1] == run(i, argv, fresh=True), argv
        if i == 1:
            with pytest.raises(SystemExit) as exc:
                main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "bad.json"),
                      "--no-such-flag"])
            assert exc.value.code == 2
    assert outputs[4] == outputs[0]
    assert outputs[5] == outputs[0]
    assert outputs[1] != outputs[0] and outputs[3] != outputs[2]
    assert json.loads(outputs[0]["o.json"])["reps"] == 400
    assert json.loads(outputs[1]["o.json"])["reps"] == 40
    assert cli._parsers() is cli._parsers()


_IO = ["--config", "c.json", "--out", "o.json"]


@pytest.mark.parametrize("argv", [
    *([command, "-h"] for command in ("calibrate", "gtable", "simulate", "montecarlo",
                                      "compare")),
    ["montecarlo", "--out", "o.json"],
    ["montecarlo", *_IO, "--no-such-flag"],
    ["calibrate", *_IO, "stray"],
    ["compare", *_IO, "--reps", "x"],
    ["simulate", *_IO, "--truth", "H2"],
    ["simulate", *_IO],
    ["simulate", *_IO, "--truth", "H1", "--", "extra"],
    ["no-such-command", *_IO],
    [],
    ["-h"],
    ["-h", "montecarlo"],
], ids=" ".join)
def test_dispatch_exits_as_the_top_level_parser(capsys, argv):
    # main parses a known subcommand with that subcommand's own parser; every
    # refusal and help text must still be the one the whole parser gives
    def exit_of(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    want = exit_of(cli.build_parser().parse_args)
    assert exit_of(main) == want
    assert want[0] in (0, 2) and want[1:] != ("", "")


@pytest.mark.parametrize("argv", [
    ["montecarlo", *_IO],
    ["compare", "--out", "o.json", "--seed", "5", "--config", "c.json", "--reps", "40"],
    ["simulate", *_IO, "--truth", "H1", "--x-override", "0.7", "--seed", "5"],
    ["gtable", "--conf", "c.json", "--out=o.json"],
], ids=" ".join)
def test_dispatch_parses_as_the_top_level_parser(argv):
    assert vars(cli._parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_cli_uses_no_private_sim_names():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sim" and node.attr.startswith("_")
    ]
    assert private == []


def test_exception_classes_are_defined_in_errors_only():
    # errors.py owns every error class and so every exit code: each class there
    # is a SeqjdeError, and no other module derives from an exception class
    package = Path(errors.__file__).parent

    def classes(path):
        return [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)]

    def base_names(node):
        return {b.id if isinstance(b, ast.Name) else b.attr
                for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}

    own = [node.name for node in classes(package / "errors.py")]
    assert all(issubclass(getattr(errors, name), errors.SeqjdeError) for name in own)
    exceptions = set(own) | {name for name, obj in vars(builtins).items()
                             if isinstance(obj, type) and issubclass(obj, BaseException)}
    strays = [f"{path.name}: {node.name}" for path in sorted(package.glob("*.py"))
              if path.name != "errors.py" for node in classes(path)
              if base_names(node) & exceptions]
    assert strays == []


def test_benchmark_reads_only_existing_names(tmp_path):
    # bench/run.py drives these modules directly, and its --trace 1 mode is not
    # otherwise exercised by the suite; bench/probe.py runs on the gated set-up path.
    # Both read a run's fields off ``cfg``, the result of cli.load_config
    modules = {"sim", "gfunc", "engine", "stats", "cli", "model"}
    bench = Path(__file__).resolve().parents[1] / "bench"
    reads, cfg_reads = set(), set()
    for script in ("run.py", "probe.py"):
        for node in ast.walk(ast.parse((bench / script).read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value  # ``sim.X`` or ``self.m.sim.X``
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in modules:
                reads.add((name, node.attr))
            elif name == "cfg" and isinstance(owner, ast.Name):
                cfg_reads.add(node.attr)
    assert {m for m, _ in reads} == modules
    missing = [f"{m}.{a}" for m, a in sorted(reads) if not hasattr(getattr(seqjde, m), a)]
    assert missing == []
    assert cfg_reads == {"params", "costs", "constraint_C", "channel", "master_seed", "reps",
                         "t_max", "grid"}
    grid = {"u_min": 0.001, "u_max": 10.0, "points": 4, "spacing": "log"}
    cfg = cli.load_config(write_config(tmp_path, grid=grid))
    assert [a for a in sorted(cfg_reads) if not hasattr(cfg, a)] == []
    assert callable(cfg.grid.values)
    # the traced mode passes (pair, cal, workers) positionally
    for fn in (seqjde.sim.monte_carlo, seqjde.sim.compare_schemes):
        inspect.signature(fn).bind(None, None, 1)


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; this catches newer
    # grammar (such as ``except*``) on a newer interpreter
    root = Path(__file__).resolve().parents[1]
    files = sorted(f for d in ("src", "tests", "tools", "bench") for f in (root / d).rglob("*.py"))
    assert len(files) >= 20
    for f in files:
        ast.parse(f.read_text(), filename=str(f), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


class TestNumericFormatting:
    def test_17_digit_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, constraint_C=1.1)  # 1.1 is not dyadic
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert '"C": 1.1000000000000001' in text
        doc = json.loads(text)
        assert doc["C"] == 1.1


# ---------------------------------------------------------------------------
# fuzzing: any config, valid or not, ends in a known exit code and one line

_WILD = st.one_of(
    st.floats(), st.integers(min_value=-10**20, max_value=10**400), st.booleans(),
    st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.sampled_from([0, -1, 1e-300, 1e300, -1e300, 5e-324]),
)
# sizes stay small even when wild: no huge reps, t_max or grid.points
_WILD_SIZE = st.one_of(st.integers(max_value=0), st.floats(), st.booleans(), st.text(max_size=2))
_SECTIONS = {
    "model": {"mu_x": st.floats(-2, 2), "sigma_x": st.floats(0.2, 3), "sigma": st.floats(0.2, 3)},
    "costs": {"c0": st.floats(0, 3), "c1": st.floats(0, 3), "ce": st.floats(0, 3)},
    "mc": {"reps": st.integers(1, 50), "t_max": st.integers(1, 2000),
           "master_seed": st.integers(0, 2**64)},
    "grid": {"u_min": st.one_of(st.just(0.0), st.floats(1e-3, 10)),
             "u_max": st.floats(10.5, 1e4), "points": st.integers(2, 5),
             "spacing": st.sampled_from(["linear", "log"])},
}
_CHANNEL_FIELDS = {
    "constant": {"h": st.floats(-2, 2)},
    "iid_gaussian": {"std": st.floats(0.1, 2)},
    "rayleigh": {"scale": st.floats(0.1, 2)},
    "ar1": {"phi": st.floats(-0.95, 0.95), "innov_std": st.floats(0.1, 1),
            "init_std": st.floats(0.1, 1)},
    "from_file": {"path": st.sampled_from(["<gains>", "<gains>", "<short>", "<nan>",
                                           "<missing>"])},
}


@st.composite
def _configs(draw):
    """A config of sane values with up to two faults: a wrong-kind value, a
    missing or unknown key, or a section that is not an object or is absent."""
    kind = draw(st.sampled_from(sorted(_CHANNEL_FIELDS)))
    raw = {name: {k: draw(v) for k, v in fields.items()} for name, fields in _SECTIONS.items()}
    raw["channel"] = {"type": kind, **{k: draw(v) for k, v in _CHANNEL_FIELDS[kind].items()}}
    raw["constraint_C"] = draw(st.one_of(st.floats(1e-3, 4), st.sampled_from([1e-17, 1e-6])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        name = draw(st.sampled_from(sorted(raw)))
        wild = _WILD_SIZE if name in ("mc", "grid") else _WILD
        fault = draw(st.sampled_from(["value", "drop", "extra"]))
        section = raw[name]
        if isinstance(section, dict) and section and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(section)))
        else:
            section, key = raw, name
        if fault == "value":
            section[key] = draw(wild)
        elif fault == "drop":
            del section[key]
        else:
            section["extra"] = draw(_WILD)
    return raw


_FUZZ_COMMANDS = [["calibrate"], ["gtable"], ["simulate", "--truth", "H0"],
                  ["simulate", "--truth", "H1", "--x-override", "0.5"],
                  ["montecarlo"], ["compare"]]


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=_configs())
# one replication has no standard error: np.std(ddof=1) warned and wrote nan
@example(raw={**BASE_CONFIG, "mc": {"reps": 1, "master_seed": 0, "t_max": 1}})
# a denormal energy underflowed U*(U+kappa) to 0 in g_eval: ZeroDivisionError
@example(raw={**BASE_CONFIG, "grid": {"u_min": 5e-324, "u_max": 1.0, "points": 2,
                                      "spacing": "linear"}})
# the separate test's ln(c0/c1) was log(0) for a denormal c0: ValueError in compare
@example(raw={**BASE_CONFIG, "costs": {"c0": 5e-324, "c1": 3.0, "ce": 1.0}})
# sigma**2 underflowed to kappa = 0: log(0) in calibrate
@example(raw={**BASE_CONFIG, "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-300}})
# h*h overflowed: log(0) at inf energy in simulate, inf and nan in montecarlo
@example(raw={**BASE_CONFIG, "channel": {"type": "constant", "h": 1e300}})
# c0/c1 underflowed to 0 in the ce = 0 closed root: log(0) in gtable
@example(raw={**BASE_CONFIG, "costs": {"c0": 1e-200, "c1": 1e200, "ce": 0.0},
              "grid": {"u_min": 0.0, "u_max": 4.0, "points": 3, "spacing": "linear"}})
# (U+kappa)/kappa and (U+kappa)^2 overflowed: g = +-inf and G = nan, exit 0 at ce = 0
@example(raw={**BASE_CONFIG, "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-70},
              "costs": {"c0": 1.0, "c1": 1.0, "ce": 0.0},
              "grid": {"u_min": 1e170, "u_max": 1e180, "points": 3, "spacing": "log"}})
@example(raw={**BASE_CONFIG, "model": {"mu_x": 0.0, "sigma_x": 1.0, "sigma": 1e-70},
              "grid": {"u_min": 1e170, "u_max": 1e180, "points": 3, "spacing": "log"}})
# x*h overflowed in the sampler: RuntimeWarning, then inf observations
@example(raw={**BASE_CONFIG, "model": {"mu_x": 1.7976931348623157e308, "sigma_x": 1.0,
                                       "sigma": 1.0},
              "channel": {"type": "iid_gaussian", "std": 1.0}})
def test_fuzzed_configs_end_in_a_known_exit_code(raw):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"<gains>": "# gains\n" + "0.8\n-1.1\n" * 1000, "<short>": "1.0\n",
                 "<nan>": "1.0\nnan\n"}
        for token, text in files.items():
            Path(tmp, token.strip("<>")).write_text(text)
        channel = raw.get("channel")
        if isinstance(channel, dict) and channel.get("path") in (*files, "<missing>"):
            channel["path"] = str(Path(tmp, channel["path"].strip("<>")))
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(raw))
        for argv in _FUZZ_COMMANDS:
            for old in Path(tmp).glob("out*"):
                old.unlink()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--config", str(cfg), "--out", str(Path(tmp, "out.json"))])
            text = err.getvalue()
            assert code in (0, 2, 3, 4), (argv, code, text)
            assert text.count("\n") == (code != 0) and "Traceback" not in text, (argv, text)
            # a run that succeeds prints no nan
            assert code != 0 or not any("nan" in out.read_text()
                                        for out in Path(tmp).glob("out*")), argv


@pytest.mark.parametrize("channel", [
    {"type": "constant", "h": -0.5},
    {"type": "iid_gaussian", "std": 1.0},
    {"type": "rayleigh", "scale": 0.8},
    {"type": "from_file", "path": "gains.txt"},
], ids=lambda channel: channel["type"])
def test_outputs_do_not_depend_on_an_unreached_horizon(tmp_path, monkeypatch, channel):
    # T is the first t with U_t >= gamma on the gains, so no horizon past T moves a byte
    monkeypatch.chdir(tmp_path)
    Path("gains.txt").write_text("\n".join(map(repr, np.linspace(0.1, 1.0, 400).tolist())))

    def run(t_max):
        mc = {"reps": 50, "master_seed": 42, "t_max": t_max}
        cfg = write_config(tmp_path, overrides={"channel": channel, "mc": mc}, constraint_C=0.5)
        codes = [main(["simulate", "--truth", "H1", "--config", cfg, "--out", "s.json"]),
                 main(["montecarlo", "--config", cfg, "--out", "m.json"])]
        files = ("s.json", "s.trace.csv", "m.json", "m.reps.csv")
        return codes, [Path(f).read_bytes() for f in files if Path(f).exists()]

    codes, outputs = run(400)
    T = json.loads(outputs[0])["T"]
    assert codes == [0, 0] and 1 < T < 200
    for t_max in (T, T + 1, 2 * T):
        assert run(t_max) == (codes, outputs), t_max
    for f in tmp_path.glob("[sm].*"):
        f.unlink()
    assert run(T - 1) == ([4, 4], [])


@pytest.mark.parametrize("argv, key, size", [
    (["montecarlo"], "mc.reps", 10**15),
    (["compare"], "mc.reps", 10**15),
    (["montecarlo", "--reps", str(10**15)], None, None),
    (["compare", "--reps", str(10**15)], None, None),
    (["montecarlo"], "mc.t_max", 10**15),
    (["simulate", "--truth", "H1"], "mc.t_max", 10**15),
    (["gtable"], "grid.points", 10**15),
    (["montecarlo"], "mc.t_max", 2**70),
    (["simulate", "--truth", "H0"], "mc.t_max", 2**70),
])
def test_sizes_too_large_to_allocate_are_config_errors(tmp_path, capsys, argv, key, size):
    # sizes NumPy refuses before it touches memory: 10**15 doubles are 8 PB,
    # and 2**70 is past the largest length it can index
    raw = {**json.loads(json.dumps(BASE_CONFIG)),
           "grid": {"u_min": 0.001, "u_max": 10.0, "points": 4, "spacing": "log"}}
    if key is not None:
        section, name = key.split(".")
        raw[section][name] = size
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("seqjde: ") and err.count("\n") == 1 and "too large to allocate" in err
    assert list(tmp_path.glob("out*")) == []
