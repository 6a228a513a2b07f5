import json
import math

import numpy as np
import pytest

from teleportsim.cli import main
from teleportsim.explorer import (
    bounds_table,
    record_fields,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)
from teleportsim.qlinalg import LOG2_3

E12_BALANCED = 0.9056390622295664
SUM_UPPER_AT_HALF = 3.4056390622295667
SUM_MAX = 3.584962500721156


def _check_records(result):
    assert result.records, "sweep produced no records"
    for r in result.records:
        assert r.sum == pytest.approx(r.e12 + r.h12, abs=1e-12)
        assert r.sum >= r.bound_lower - 1e-9
        if r.bound_upper is not None:
            assert r.sum <= r.bound_upper + 1e-9


class TestSweeps:
    def test_case1_records_respect_bounds(self):
        result = sweep_case1(density=40, seed=1)
        _check_records(result)
        assert result.skipped == 0

    def test_case1_optimal_rows_meet_upper_bound(self):
        # the theta2 = pi/4 rows of each channel sit exactly on the upper curve
        result = sweep_case1(density=25, seed=1)
        on_curve = [r for r in result.records
                    if abs(math.sin(r.theta2) ** 2 - 0.5) <= 1e-12]
        assert len(on_curve) >= 25
        for r in on_curve:
            assert r.sum == pytest.approx(r.bound_upper, abs=1e-9)

    def test_case2_records_respect_bounds(self):
        result = sweep_case2(density=40, seed=2)
        _check_records(result)
        assert result.skipped == 0
        assert all(r.bound_upper is None for r in result.records)
        assert all(abs(r.a1**2 - 0.5) <= 1e-12 for r in result.records)

    def test_degenerate_profile(self):
        grid = np.linspace(0.0, math.pi / 2, 41)
        result = sweep_degenerate(grid, seed=3)
        assert result.skipped == 0
        sums = [r.sum for r in result.records]
        # endpoints reach the two-qubit floor, the midpoint the maximum
        assert sums[0] == pytest.approx(3.0, abs=1e-10)
        assert sums[-1] == pytest.approx(3.0, abs=1e-10)
        assert max(sums) == pytest.approx(SUM_UPPER_AT_HALF, abs=1e-9)
        assert result.records[20].e12 == pytest.approx(E12_BALANCED, abs=1e-9)
        # symmetric in theta1 about pi/4
        assert np.allclose(sums, sums[::-1], atol=1e-9)

    def test_degenerate_range_checked(self):
        with pytest.raises(ValueError):
            sweep_degenerate([math.pi], seed=0)

    def test_density_validated(self):
        with pytest.raises(ValueError):
            sweep_case1(density=1, seed=0)
        with pytest.raises(ValueError):
            sweep_case2(density=0, seed=0)


class TestBoundsTable:
    def test_endpoints(self):
        rows = bounds_table([1.0 + 1e-9, LOG2_3])
        e0, lo0, up0 = rows[0]
        assert lo0 == pytest.approx(3.0, abs=1e-6)
        # the optimal curve stays strictly above the floor as E -> 1
        assert up0 == pytest.approx(SUM_UPPER_AT_HALF, abs=1e-6)
        e1, lo1, up1 = rows[1]
        assert lo1 == pytest.approx(SUM_MAX, abs=1e-9)
        assert up1 == pytest.approx(SUM_MAX, abs=1e-9)

    def test_fields_are_plain_floats(self):
        for row in bounds_table([1.0 + 1e-9, 1.2, 1.5, 1.55, LOG2_3]):
            assert [type(x) for x in row] == [float] * 3

    def test_upper_dominates_lower(self):
        for _, lo, up in bounds_table(np.linspace(1.0 + 1e-6, LOG2_3, 60)):
            assert up >= lo - 5e-6

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            bounds_table([0.5])
        with pytest.raises(ValueError):
            bounds_table([LOG2_3 + 0.01])


SYMMETRIC_ARG = "0.5773502691896258,0.5773502691896258,0.5773502691896258"


class TestCli:
    def test_verify_symmetric(self, capsys):
        assert main(["verify", "--channel", SYMMETRIC_ARG, "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["mean_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert all(b["fidelity"] >= 1 - 1e-10 for b in payload["report"]["branches"])

    def test_verify_truncated_decimals_accepted(self, capsys):
        assert main(["verify", "--channel", "0.577,0.577,0.577"]) == 0
        capsys.readouterr()

    def test_verify_incapable_exits_2(self, capsys):
        assert main(["verify", "--channel", "0.447,0.775,0.447"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_verify_bad_triple_exits_1(self, capsys):
        assert main(["verify", "--channel", "0.9,0.9,0.9"]) == 1
        assert main(["verify", "--channel", "0.5,0.5"]) == 1
        capsys.readouterr()

    def test_unknown_flag_exits_64(self, capsys):
        assert main(["verify", "--channel", SYMMETRIC_ARG, "--bogus"]) == 64
        assert main(["no-such-command"]) == 64
        capsys.readouterr()

    def test_report_payload(self, capsys):
        assert main(["report", "--channel", "0,0.7071067811865476,0.7071067811865476"]) == 0
        payload = json.loads(capsys.readouterr().out)
        res = payload["resources"]
        assert res["sum"] == pytest.approx(res["e12"] + res["h12"], abs=1e-12)
        assert sum(res["probabilities"]) == pytest.approx(1.0, abs=1e-12)
        # the a0 = 0 triple canonicalizes with the largest weight first
        assert payload["permutation"] == [1, 0, 2] or payload["canonical_channel"]["a"][1] >= 0.7

    def test_sweep_csv_structure(self, capsys):
        assert main(["sweep-case1", "--density", "8", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(record_fields())
        assert lines[-1].startswith("# skipped=")
        first = lines[1].split(",")
        assert len(first) == len(record_fields())
        float(first[0])  # parseable payload

    def test_sweep_json_structure(self, capsys):
        assert main(["sweep-case2", "--density", "6", "--seed", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"records", "skipped"}
        assert set(payload["records"][0]) == set(record_fields())

    @pytest.mark.parametrize("command",
                             ["sweep-case1", "sweep-case2", "sweep-degenerate", "bounds"])
    def test_density_below_2_exits_1(self, command, capsys):
        assert main([command, "--density", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "density must be at least 2" in captured.err

    def test_bounds_csv(self, capsys):
        assert main(["bounds", "--density", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "e,lower,upper"
        assert len(lines) == 11

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["sweep-degenerate", "--density", "9", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        text = path.read_text()
        assert text.startswith(",".join(record_fields()))
        assert text.rstrip().endswith("# skipped=0")

    def test_deterministic_output(self, tmp_path):
        for cmd in (["sweep-case1", "--density", "12"],
                    ["sweep-case2", "--density", "12"],
                    ["sweep-degenerate", "--density", "12"],
                    ["bounds", "--density", "12"]):
            contents = []
            for name in ("a.csv", "b.csv"):
                p = tmp_path / name
                assert main(cmd + ["--seed", "11", "--out", str(p)]) == 0
                contents.append(p.read_bytes())
            assert contents[0] == contents[1]

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("TELEPORTSIM_SEED", "42")
        assert main(["verify", "--channel", SYMMETRIC_ARG]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("cmd", [["sweep-degenerate", "--density", "5"],
                                     ["verify", "--channel", SYMMETRIC_ARG]])
    @pytest.mark.parametrize("env, flag, message", [
        ("abc", [], "TELEPORTSIM_SEED must be a non-negative integer, got 'abc'"),
        ("1.5", [], "TELEPORTSIM_SEED must be a non-negative integer, got '1.5'"),
        ("-1", [], "TELEPORTSIM_SEED must be a non-negative integer, got '-1'"),
        ("0", ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ])
    def test_bad_seed_exits_1(self, cmd, env, flag, message, capsys, monkeypatch):
        monkeypatch.setenv("TELEPORTSIM_SEED", env)
        assert main(cmd + flag) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("cmd", [["sweep-degenerate", "--density", "5"],
                                     ["verify", "--channel", SYMMETRIC_ARG]])
    def test_out_into_missing_directory_exits_1(self, cmd, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert main(cmd + ["--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out.txt" in err
        assert not path.parent.exists()
