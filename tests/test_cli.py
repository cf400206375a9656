import ast
import inspect
import json
from pathlib import Path

import pytest

import seqjde
from seqjde import cli
from seqjde.cli import main

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
    ])
    def test_malformed_section_is_a_one_line_error(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("seqjde: ") and err.count("\n") == 1

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

    def test_zero_constraint_is_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, constraint_C=0.0)
        assert main(["calibrate", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        assert "infeasible constraint" in capsys.readouterr().err


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

    def test_horizon_exhaustion_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"channel": {"type": "constant", "h": 0.01},
                       "mc": {"reps": 10, "master_seed": 1, "t_max": 5}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r.json"),
                     "--truth", "H1"]) == 4


class TestMonteCarlo:
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
        assert rows[0] == "rep,arm,x,decision,estimate,sq_err"
        assert len(rows) - 1 == 2 * 400
        # null arm first, amplitude pinned at zero
        first = rows[1].split(",")
        assert first[1] == "0" and float(first[2]) == 0.0

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

    def test_ce_zero_difference_is_exactly_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"costs": {"c0": 1.0, "c1": 1.0, "ce": 0.0}},
            constraint_C=0.6,
        )
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["difference"]["value"] == 0.0


class TestOutput:
    def test_unwritable_out_is_a_one_line_error(self, tmp_path, capsys):
        grid = {"u_min": 0.0, "u_max": 1.0, "points": 2, "spacing": "linear"}
        cfg = write_config(tmp_path, overrides={"grid": grid})
        for command, name in (("calibrate", "o.json"), ("gtable", "g.csv")):
            out = tmp_path / "missing" / name
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("seqjde: cannot write") and err.count("\n") == 1


def test_cli_uses_no_private_sim_names():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sim" and node.attr.startswith("_")
    ]
    assert private == []


def test_benchmark_reads_only_existing_names():
    # bench/run.py drives these modules directly, and its --trace 1 mode is not
    # otherwise exercised by the suite
    modules = {"sim", "gfunc", "engine", "stats", "cli", "model"}
    bench = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    tree = ast.parse(bench.read_text())
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value  # ``sim.X`` or ``self.m.sim.X``
        name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if name in modules:
            reads.add((name, node.attr))
    assert {m for m, _ in reads} == modules
    missing = [f"{m}.{a}" for m, a in sorted(reads) if not hasattr(getattr(seqjde, m), a)]
    assert missing == []
    # the traced mode passes (pair, cal, workers) positionally
    for fn in (seqjde.sim.monte_carlo, seqjde.sim.compare_schemes):
        inspect.signature(fn).bind(None, None, 1)


class TestNumericFormatting:
    def test_17_digit_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, constraint_C=1.1)  # 1.1 is not dyadic
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert '"C": 1.1000000000000001' in text
        doc = json.loads(text)
        assert doc["C"] == 1.1
