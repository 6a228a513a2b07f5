"""Smoke tests: both experiment scripts run end to end on a small grid; the
bench pair runner's schedule and summary on synthetic runs."""

import errno
import importlib.util
import os
import pathlib
import statistics
import subprocess
import sys

import pytest

from teleportsim.cli import main, sweep_csv_lines
from teleportsim.explorer import (
    SweepRecord,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
POINTS = 5


def _run(script, *args, cwd, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_run_sweeps(tmp_path):
    out = tmp_path / "data"
    stdout = _run("run_sweeps.py", "--density", str(POINTS), "--outdir", str(out),
                  cwd=tmp_path).stdout
    sweeps = {
        "sweep_case1.csv": sweep_case1(POINTS),
        "sweep_case2.csv": sweep_case2(POINTS),
        "sweep_degenerate.csv": sweep_degenerate(POINTS),
    }
    assert sorted(p.name for p in out.iterdir()) == sorted([*sweeps, "bounds.csv"])
    for name, result in sweeps.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == ",".join(SweepRecord._fields)
        assert len(lines) == len(result.records) + 2  # header, records, skipped footer
        assert lines[-1] == f"# skipped={result.skipped}"
        assert (out / name).read_text() == "".join(sweep_csv_lines(result))
    bounds = (out / "bounds.csv").read_bytes()
    assert bounds.splitlines()[0] == b"e,lower,upper"
    assert len(bounds.splitlines()) == POINTS + 1
    # byte for byte the table of `teleportsim bounds --density POINTS`
    assert main(["bounds", "--density", str(POINTS), "--out", str(tmp_path / "cli.csv")]) == 0
    assert bounds == (tmp_path / "cli.csv").read_bytes()
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        "sweep_case1", "sweep_case2", "sweep_degenerate", "bounds"]


def test_degenerate_profile(tmp_path):
    lines = _run("degenerate_profile.py", "--points", str(POINTS), cwd=tmp_path).stdout.splitlines()
    assert lines[0].split() == ["theta1", "E12", "H12", "sum"]
    records = sweep_degenerate(POINTS).records
    assert len(records) == POINTS
    rows = [[float(x) for x in line.split()] for line in lines[1:1 + POINTS]]
    for row, r in zip(rows, records):
        assert row == [float(f"{r.theta1:.6f}"), float(f"{r.e12:.8f}"),
                       float(f"{r.h12:.8f}"), float(f"{r.sum:.8f}")]
    assert lines[1 + POINTS] == ""
    assert lines[2 + POINTS].startswith("max sum ")
    assert len(lines) == POINTS + 3


@pytest.mark.parametrize("script, flag, value", [("run_sweeps.py", "--density", "1"),
                                                 ("degenerate_profile.py", "--points", "1"),
                                                 ("degenerate_profile.py", "--points", "0")])
def test_grid_below_2_is_a_usage_error(script, flag, value, tmp_path):
    proc = _run(script, flag, value, cwd=tmp_path, returncode=2)
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {flag} must be at least 2")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "data").exists()  # run_sweeps' default --outdir


@pytest.mark.parametrize("script, flag", [("run_sweeps.py", "--density"),
                                          ("degenerate_profile.py", "--points")])
def test_grid_numpy_refuses_exits_1(script, flag, tmp_path):
    # 2^63 - 1 points: numpy refuses the grid by its size, before allocating;
    # each script gives the CLI's out-of-memory line and exit 1, no traceback
    proc = _run(script, flag, str(2**63 - 1), cwd=tmp_path, returncode=1)
    assert proc.stdout == ""
    assert proc.stderr == (f"error: out of memory: a grid of {2**63 - 1} points "
                           "is larger than numpy can allocate\n")
    assert not (tmp_path / "data").exists()  # run_sweeps' default --outdir


@pytest.mark.parametrize("outdir, code", [("file/data", errno.ENOTDIR), ("file", errno.EEXIST)])
def test_run_sweeps_unusable_outdir_exits_1(outdir, code, tmp_path):
    # a path under a regular file, or the file itself: the CLI's error line
    # and exit 1, no traceback, and nothing written
    (tmp_path / "file").write_text("kept\n")
    proc = _run("run_sweeps.py", "--density", str(POINTS), "--outdir", outdir,
                cwd=tmp_path, returncode=1)
    assert proc.stdout == ""
    assert proc.stderr == f"error: [Errno {code}] {os.strerror(code)}: '{outdir}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("script", ["run_sweeps.py", "degenerate_profile.py"])
def test_no_seed_flag(script, tmp_path):
    # the sweeps draw no random numbers, so neither script takes a seed
    proc = _run(script, "--seed", "0", cwd=tmp_path, returncode=2)
    assert "unrecognized arguments: --seed 0" in proc.stderr
    assert not (tmp_path / "data").exists()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_schedule_alternates_across_workloads():
    plan = _bench_pairs().schedule(["w1", "w2"], 3, 100)
    assert [(r["workload"], r["pair"], r["seed"], r["side"], r["ran_first_in_pair"]) for r in plan] == [
        ("w1", 0, 100, "parent", True), ("w1", 0, 100, "change", False),
        ("w1", 1, 101, "change", True), ("w1", 1, 101, "parent", False),
        ("w1", 2, 102, "parent", True), ("w1", 2, 102, "change", False),
        ("w2", 0, 103, "change", True), ("w2", 0, 103, "parent", False),
        ("w2", 1, 104, "parent", True), ("w2", 1, 104, "change", False),
        ("w2", 2, 105, "change", True), ("w2", 2, 105, "parent", False)]


def test_bench_pairs_summary():
    # five pairs of synthetic records: wall_s (lower is better) and
    # units_per_s (higher is better); the change is faster in four pairs
    # and its median is 10% off the parent's, at a bound of 0.1 on wall_s
    # and 0.05 on units_per_s
    parent_wall = [1.0, 1.2, 0.9, 1.1, 1.0]
    change_wall = [0.9, 1.0, 1.0, 0.9, 0.8]
    runs = []
    for pair, (pw, cw) in enumerate(zip(parent_wall, change_wall)):
        for side, wall in (("parent", pw), ("change", cw)):
            metrics = {"wall_s": {"value": wall, "unit": "s"},
                       "units_per_s": {"value": 100.0 / wall, "unit": "1/s"}}
            result = {"correct": True, "attempted": 10 * (pair + 1), "failed": 0, "metrics": metrics}
            runs.append({"side": side, "workload": "w", "trace": 0, "pair": pair,
                         "record": {"result": result}})
    # an unfinished pair (one side wrote no record) is left out
    runs.append({"side": "parent", "workload": "w", "trace": 0, "pair": 5,
                 "record": {"result": {"metrics": {}}}})
    runs.append({"side": "change", "workload": "w", "trace": 0, "pair": 5, "record": None})
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.1},
                  {"name": "units_per_s", "better": "higher", "bound": 0.05}]
    summary = _bench_pairs().summarize(runs, end_to_end)["w"]
    wall = summary["wall_s"]
    q1, median, q3 = statistics.quantiles(parent_wall, n=4, method="inclusive")
    assert wall["parent"] == {"median": median, "q1": q1, "q3": q3, "n": 5}
    assert (q1, median, q3) == (1.0, 1.0, 1.1)
    assert wall["change"]["median"] == 0.9 and wall["change"]["n"] == 5
    assert wall["pairs"] == [list(p) for p in zip(parent_wall, change_wall)]
    assert wall["change_better_in"] == "4 of 5"
    assert wall["median_change_pct"] == -10.0
    assert wall["parent_iqr_pct_of_median"] == 10.0
    assert wall["within_bound"] is True
    rate = summary["units_per_s"]
    assert rate["change_better_in"] == "4 of 5"
    assert rate["median_change_pct"] == round((100.0 / 0.9 / 100.0 - 1.0) * 100.0, 2)
    assert rate["within_bound"] is True
    # a change slower than the bound allows is out of bound, on either side of "better"
    slow = [{**r, "record": {"result": {**r["record"]["result"], "metrics": {
        k: {"value": v["value"] * (2.0 if k == "wall_s" else 0.5), "unit": v["unit"]}
        for k, v in r["record"]["result"]["metrics"].items()}}}}
        if r["side"] == "change" and r["record"] else r for r in runs]
    slow_summary = _bench_pairs().summarize(slow, end_to_end)["w"]
    assert slow_summary["wall_s"]["within_bound"] is False
    assert slow_summary["units_per_s"]["within_bound"] is False
    assert slow_summary["wall_s"]["change_better_in"] == "0 of 5"
    assert summary["attempted_units"] == {"parent": 30, "change": 30}
    assert summary["failed_units"] == {"parent": 0, "change": 0}
    # 4 of 5 pairs is under 9 of 10: no gain is shown, however large the gap
    assert wall["gain_shown"] is False and rate["gain_shown"] is False
    assert slow_summary["wall_s"]["gain_shown"] is False


def _wall_runs(parent_wall, change_wall):
    return [{"side": side, "workload": "w", "trace": 0, "pair": pair, "record": {"result": {
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "units_per_s": {"value": 1.0 / wall, "unit": "1/s"}}}}}
            for pair, pc in enumerate(zip(parent_wall, change_wall))
            for side, wall in zip(("parent", "change"), pc)]


def test_bench_pairs_gain_shown():
    bench = _bench_pairs()
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.1},
                  {"name": "units_per_s", "better": "higher", "bound": 0.1}]
    # parent q1, q3 = 1.0, 1.1 (IQR 0.1); the change is faster in 9 of 10
    # pairs, and its median, 0.85, is 0.2 below the parent's 1.05
    parent_wall = [1.0, 1.1, 0.9, 1.05, 1.0, 1.1, 1.05, 1.0, 1.1, 1.2]
    change_wall = [0.85] * 9 + [1.3]
    summary = bench.summarize(_wall_runs(parent_wall, change_wall), end_to_end)
    wall = summary["w"]["wall_s"]
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (1.0, 1.1)
    assert wall["change_better_in"] == "9 of 10" and wall["gain_shown"] is True
    assert summary["w"]["units_per_s"]["gain_shown"] is True
    # 8 of 10 faster pairs show no gain
    summary = bench.summarize(_wall_runs(parent_wall, [0.85] * 8 + [1.3, 1.3]), end_to_end)
    assert summary["w"]["wall_s"]["change_better_in"] == "8 of 10"
    assert summary["w"]["wall_s"]["gain_shown"] is False
    # 10 of 10, but the medians differ by less than the parent's IQR
    summary = bench.summarize(_wall_runs(parent_wall, [p - 0.05 for p in parent_wall]),
                              end_to_end)
    assert summary["w"]["wall_s"]["change_better_in"] == "10 of 10"
    assert summary["w"]["wall_s"]["gain_shown"] is False
    assert summary["w"]["units_per_s"]["gain_shown"] is False
    # a slower change shows no gain, on either side of "better"
    summary = bench.summarize(_wall_runs(parent_wall, [2.0 * p for p in parent_wall]),
                              end_to_end)
    assert summary["w"]["wall_s"]["gain_shown"] is False
    assert summary["w"]["units_per_s"]["gain_shown"] is False
    # one printed line per workload and metric, the unit counts left out
    lines = bench.summary_lines(summary)
    assert len(lines) == 2
    assert lines[0] == ("w wall_s: parent 1.05, change 2.1 (+100.00%), better in 0 of 10, "
                        "parent IQR 9.52%, OUT OF bound, gain not shown")
    assert lines[1].startswith("w units_per_s: parent 0.952381, change 0.47619 (-50.00%), ")


def test_bench_pairs_rss_per_unit():
    # peak_rss_mb = side's base + 100 B per unit; the change runs more
    # units and sits 0.5 MB higher at equal units. The slope takes one
    # intercept per side: one line through both sides' runs would read the
    # 0.5 MB step as a steeper slope
    bench = _bench_pairs()
    units = {"parent": [1000, 3000, 2000, 4000, 5000], "change": [6000, 4000, 8000, 5000, 7000]}
    base = {"parent": 50.0, "change": 50.5}
    runs = [{"side": side, "workload": "w", "trace": 0, "pair": pair, "record": {"result": {
                "correct": True, "attempted": n, "failed": 0,
                "metrics": {"peak_rss_mb": {"value": base[side] + 100e-6 * n, "unit": "MB"}}}}}
            for side in ("parent", "change") for pair, n in enumerate(units[side])]
    end_to_end = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summary = bench.summarize(runs, end_to_end)["w"]
    assert summary["attempted_units"] == {"parent": 3000, "change": 6000}
    # the raw move, 50.5 + 0.6 against 50.0 + 0.3 MB, is 0.8 MB; the units
    # explain 0.3 MB of it
    assert summary["peak_rss_mb"]["median_change_pct"] == round((51.1 / 50.3 - 1.0) * 100.0, 2)
    assert summary["peak_rss_per_unit"] == {
        "bytes_per_unit": 100.0, "net_move_mb": 0.5, "net_move_pct": round(0.5 / 50.3 * 100.0, 2)}
    assert bench.summary_lines({"w": summary})[-1] == (
        "w peak_rss_mb per unit: 100.0 B, move net of units +0.5000 MB (+0.99%)")
    # no slope where no side's unit count varies, or a run lacks the metric
    flat = [{**r, "record": {"result": {**r["record"]["result"], "attempted": 10}}} for r in runs]
    assert "peak_rss_per_unit" not in bench.summarize(flat, end_to_end)["w"]
    assert "peak_rss_per_unit" not in bench.summarize(_wall_runs([1.0], [0.9]), [
        {"name": "wall_s", "better": "lower", "bound": 0.1}])["w"]
