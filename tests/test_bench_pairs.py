"""tools/bench_pairs.py's summary of paired benchmark runs, on canned result lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
META = {m["name"]: m for m in METRICS}


def result_line(wall_s, correct=True, failed=0, attempted=100):
    """One ``bench/run.py`` result, as the last line of its output."""
    values = {"setup_s": 0.2, "wall_s": wall_s, "items_per_s": 250 / wall_s,
              "peak_rss_mb": 41.5, "ok_frac": 1.0 - failed / attempted}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": v, "unit": META[name]["unit"]}
                                   for name, v in values.items()}})


def test_the_result_is_the_last_line():
    stdout = "  wall_s  1.0 ms\n" + result_line(1e-3) + "\n"
    assert bench_pairs.last_json_line(stdout)["metrics"]["wall_s"]["value"] == 1e-3


def test_summary_of_canned_pairs():
    parent = [1.00, 1.10, 1.05, 1.20, 0.95, 1.02, 1.08, 1.03, 1.01, 1.04]
    change = [0.90, 1.00, 0.96, 1.10, 0.97, 0.93, 0.99, 0.94, 0.92, 0.95]  # pair 4 lost
    lines = {"parent": [result_line(v * 1e-3) for v in parent],
             "change": [result_line(v * 1e-3, failed=i == 3) for i, v in enumerate(change)]}
    out = bench_pairs.summarize(
        {"mc-short": {s: [bench_pairs.last_json_line(t) for t in lines[s]] for s in lines}},
        METRICS)["mc-short"]
    assert out["correct"] == {"parent": True, "change": True}
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 1000, "change": 1000}
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [v * 1e-3 for v in parent]
    assert wall["parent"]["median"] == pytest.approx(1.035e-3)
    assert wall["parent"]["iqr"] == pytest.approx((1.0725 - 1.0125) * 1e-3)
    assert wall["parent"]["fastest"] == 0.95 * 1e-3 and wall["change"]["fastest"] == 0.90 * 1e-3
    assert wall["pairs_change_better"] == 9
    assert wall["change_worse_by"] == pytest.approx(0.955 / 1.035 - 1)
    assert wall["within_bound"] and wall["resolved"]
    # items_per_s is better higher: the fastest run is the largest, and the same 9 pairs win
    items = out["metrics"]["items_per_s"]
    assert items["change"]["fastest"] == 250 / (0.90 * 1e-3)
    assert items["pairs_change_better"] == 9 and items["change_worse_by"] < 0
    # equal runs are ties, which count for neither side and resolve nothing
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["pairs_change_better"] == 0 and not rss["resolved"]
    assert rss["change_worse_by"] == 0.0 and rss["within_bound"]
    assert out["metrics"]["ok_frac"]["change_worse_by"] == pytest.approx(0.0)


@pytest.mark.parametrize("change, resolved", [
    ([0.9] * 8 + [1.2] * 2, False),  # 8 of 10 pairs won
    ([0.999] * 10, False),  # every pair won, by less than the parent's IQR
    ([1.2] * 9 + [0.9], True),  # 9 of 10 pairs lost, beyond the IQR: resolved, worse
])
def test_resolved_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr(change, resolved):
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    got = bench_pairs.compare_metric(parent, change, META["wall_s"])
    assert got["resolved"] is resolved


@pytest.mark.parametrize("bench", sorted(ROOT.glob("BENCH_[23]*.json")), ids=lambda p: p.stem)
def test_summary_rebuilds_the_recorded_bench_files(bench):
    # BENCH_20 to BENCH_28 were summarized by hand in this layout, from their runs,
    # and later files by this tool
    doc = json.loads(bench.read_text())
    for workload in doc["workloads"].values():
        for name, recorded in workload["metrics"].items():
            runs = (recorded[side]["runs"] for side in ("parent", "change"))
            assert bench_pairs.compare_metric(*runs, META[name]) == recorded, name


def test_a_checkout_with_cached_bytecode_is_refused(tmp_path, capsys):
    # a probe that imports seqjde from cached bytecode leaves compiling out of setup_s
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    assert bench_pairs.refusal("parent", tmp_path) is None
    (tmp_path / "src" / "seqjde" / "__pycache__").mkdir(parents=True)
    assert "src/seqjde/__pycache__" in bench_pairs.refusal("parent", tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), "--workload", "mc-short", "--pairs", "1",
                          "--seconds", "1", "--seed0", "1"])
    assert exc.value.code == 2
    assert f"parent checkout {tmp_path} has cached bytecode" in capsys.readouterr().err
    assert "has no bench/run.py" in bench_pairs.refusal("change", tmp_path / "src")


def test_runs_write_no_bytecode(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append(env)
        return subprocess.CompletedProcess(cmd, 0, stdout=result_line(1e-3) + "\n", stderr="")

    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_bench(tmp_path, "mc-short", 1, 1.0)
    assert result["metrics"]["wall_s"]["value"] == 1e-3
    assert calls[0]["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPATH" not in calls[0]
