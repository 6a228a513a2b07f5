"""Smoke tests: both experiment scripts run end to end on a small grid."""

import os
import pathlib
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


@pytest.mark.parametrize("script", ["run_sweeps.py", "degenerate_profile.py"])
def test_no_seed_flag(script, tmp_path):
    # the sweeps draw no random numbers, so neither script takes a seed
    proc = _run(script, "--seed", "0", cwd=tmp_path, returncode=2)
    assert "unrecognized arguments: --seed 0" in proc.stderr
    assert not (tmp_path / "data").exists()
