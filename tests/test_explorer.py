import itertools
import json
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest
from helpers import GOLDEN_DIR
from oracles import a1_from_entropy_exact

from teleportsim import cli, explorer, resources, scheme, teleport
from teleportsim.channel import make_channel
from teleportsim.cli import bounds_csv, main, sweep_csv_lines
from teleportsim.explorer import (
    SweepRecord,
    SweepResult,
    bounds_table,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)
from teleportsim.qlinalg import LOG2_3
from teleportsim.resources import gour_e12
from teleportsim.scheme import InfeasibleError

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
        result = sweep_case1(density=40)
        _check_records(result)
        assert result.skipped == 0

    def test_case1_optimal_rows_meet_upper_bound(self):
        # the theta2 = pi/4 rows of each channel sit exactly on the upper curve
        result = sweep_case1(density=25)
        on_curve = [r for r in result.records
                    if abs(math.sin(r.theta2) ** 2 - 0.5) <= 1e-12]
        assert len(on_curve) >= 25
        for r in on_curve:
            assert r.sum == pytest.approx(r.bound_upper, abs=1e-9)

    def test_case2_records_respect_bounds(self):
        result = sweep_case2(density=40)
        _check_records(result)
        assert result.skipped == 0
        assert all(r.bound_upper is None for r in result.records)
        assert all(abs(r.a1**2 - 0.5) <= 1e-12 for r in result.records)

    def test_degenerate_profile(self):
        result = sweep_degenerate(41)
        assert result.skipped == 0
        sums = [r.sum for r in result.records]
        # endpoints reach the two-qubit floor, the midpoint the maximum
        assert sums[0] == pytest.approx(3.0, abs=1e-10)
        assert sums[-1] == pytest.approx(3.0, abs=1e-10)
        assert max(sums) == pytest.approx(SUM_UPPER_AT_HALF, abs=1e-9)
        assert result.records[20].e12 == pytest.approx(E12_BALANCED, abs=1e-9)
        # symmetric in theta1 about pi/4
        assert np.allclose(sums, sums[::-1], atol=1e-9)

    def test_records_share_run_constant_objects(self, monkeypatch):
        # sweep_csv_lines formats a column once per run of records holding
        # the very same object there: every record of a channel holds that
        # channel's ch.entropy object, and every record of one case-1
        # channel, and of the degenerate sweep, one theta3 object
        accounted, report = [], explorer.resource_report

        def spy(ch, params):
            accounted.append(ch)
            return report(ch, params)

        monkeypatch.setattr(explorer, "resource_report", spy)
        for name, run in _sweeps(8, 9):
            accounted.clear()
            records = run().records
            assert len(records) == len(accounted) > 1
            assert all(r.e_channel is ch.entropy for r, ch in zip(records, accounted))
            if name == "case2":  # theta3 is what case 2 sweeps
                continue
            runs: dict = {}
            for r, ch in zip(records, accounted):
                runs.setdefault(id(ch), []).append(r.theta3)
            assert max(map(len, runs.values())) > 1
            assert all(t is thetas[0] for thetas in runs.values() for t in thetas)
            if name == "degenerate":
                assert len(runs) == 1

    def test_density_validated(self):
        with pytest.raises(ValueError):
            sweep_case1(density=1)
        with pytest.raises(ValueError):
            sweep_case2(density=0)
        for density in (1, 0):
            with pytest.raises(ValueError, match="density must be at least 2"):
                sweep_degenerate(density)


def _sweeps(density=6, n_degenerate=9):
    """Each sweep on a small grid, as (name, thunk)."""
    return [("case1", lambda: sweep_case1(density=density)),
            ("case2", lambda: sweep_case2(density=density)),
            ("degenerate", lambda: sweep_degenerate(n_degenerate))]


def _spy_certified(monkeypatch, log=None):
    """Record each call of the solver's gate, scheme.certify_scheme, as its
    record's (channel, scheme angles); with `log`, append ("certify",
    angles) to it too."""
    certified, certify = [], scheme.certify_scheme

    def spy(ch, params):
        certified.append((ch.a, params.theta))
        if log is not None:
            log.append(("certify", params.theta))
        return certify(ch, params)

    monkeypatch.setattr(scheme, "certify_scheme", spy)
    return certified


def _emitted(records):
    """Each record's (channel, scheme angles), in emission order."""
    return [((r.a0, r.a1, r.a2), (r.theta1, r.theta2, r.theta3)) for r in records]


class TestSweepDriver:
    """Each sweep solves every point first, in channel order, and the solver
    certifies each solved scheme with one certify_scheme call and no basis
    or correction kernel; then the sweep accounts each kept record with one
    resource_report call. The gate applies record by record, and no random
    numbers are drawn."""

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_each_scheme_certified_once_in_emission_order(self, name, monkeypatch):
        certified = _spy_certified(monkeypatch)
        result = dict(_sweeps())[name]()
        assert result.skipped == 0
        assert certified == _emitted(result.records)

    def test_no_basis_and_no_kernel(self, monkeypatch):
        # the sweeps certify from closed forms: no basis is built (each
        # MeasurementBasis checks its unitarity) and Bob's correction kernel
        # never runs
        calls = []

        def refuse(name):
            def spy(*args):
                calls.append(name)
                raise AssertionError(f"a sweep called {name}")
            return spy

        monkeypatch.setattr(scheme, "check_unitary", refuse("check_unitary"))
        monkeypatch.setattr(teleport, "_corrections", refuse("_corrections"))
        for _, run in _sweeps(200, 200):
            assert run().records
        assert calls == []

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_infeasible_point_is_skipped_uncertified(self, name, monkeypatch):
        run = dict(_sweeps())[name]
        want = run()
        # the first channel with two points or more loses its second one
        a = next(a for a, group in itertools.groupby(_emitted(want.records), key=lambda x: x[0])
                 if len(list(group)) > 1)
        i = [(r.a0, r.a1, r.a2) for r in want.records].index(a) + 1
        solve, tried = explorer.solve_constraints, []

        def refuse_second(ch, theta3, **hints):
            if ch.a == a:
                tried.append(theta3)
                if len(tried) == 2:
                    raise InfeasibleError("forced")
            return solve(ch, theta3, **hints)

        monkeypatch.setattr(explorer, "solve_constraints", refuse_second)
        certified = _spy_certified(monkeypatch)
        got = run()
        assert want.skipped == 0 and got.skipped == 1
        assert got.records == want.records[:i] + want.records[i + 1:]
        assert certified == _emitted(got.records)

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_all_infeasible_channel_counts_every_skip(self, name, monkeypatch):
        run = dict(_sweeps())[name]
        want = run()
        first = _emitted(want.records)[0][0]
        n = sum(1 for a, _ in _emitted(want.records) if a == first)
        solve = explorer.solve_constraints

        def refuse_first_channel(ch, theta3, **hints):
            if ch.a == first:
                raise InfeasibleError("forced")
            return solve(ch, theta3, **hints)

        monkeypatch.setattr(explorer, "solve_constraints", refuse_first_channel)
        certified = _spy_certified(monkeypatch)
        got = run()
        assert want.skipped == 0 and got.skipped == n
        assert got.records == want.records[n:]
        assert certified == _emitted(got.records)

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_accounting_follows_every_certificate(self, name, monkeypatch):
        # one resource_report call per record, looked up through the module,
        # and all of them after the sweep's last certificate
        run = dict(_sweeps())[name]
        want = run()
        log = []
        report = explorer.resource_report

        def spy(ch, params):
            log.append(("report", params.theta))
            return report(ch, params)

        monkeypatch.setattr(explorer, "resource_report", spy)
        _spy_certified(monkeypatch, log)
        got = run()
        assert got == want
        angles = [(r.theta1, r.theta2, r.theta3) for r in got.records]
        assert log == [("certify", t) for t in angles] + [("report", t) for t in angles]

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_gate_skips_only_the_failing_record(self, name, monkeypatch):
        run = dict(_sweeps())[name]
        want = run()
        certify = scheme.certify_scheme
        calls, reported = [], []
        # the first channel boundary b >= 2 (2 on the one-channel sweep): the
        # record before b - 1 exactly on the bound, the last record of one
        # channel just past it, the first of the next NaN
        channels = [(r.a0, r.a1, r.a2) for r in want.records]
        b = next((i for i in range(2, len(channels)) if channels[i] != channels[i - 1]), 2)
        forced = {b - 2: scheme.DEVIATION_BOUND,
                  b - 1: np.nextafter(scheme.DEVIATION_BOUND, np.inf),
                  b: math.nan}

        def past_gate(ch, params):
            dev = certify(ch, params)
            calls.append(params.theta)
            return forced.get(len(calls) - 1, dev)

        report = explorer.resource_report

        def spy(ch, params):
            reported.append(params.theta)
            return report(ch, params)

        monkeypatch.setattr(scheme, "certify_scheme", past_gate)
        monkeypatch.setattr(explorer, "resource_report", spy)
        got = run()
        assert want.skipped == 0
        assert (channels[b - 1] != channels[b]) == (name != "degenerate")
        assert got.skipped == 2
        assert got.records == want.records[:b - 1] + want.records[b + 1:]
        assert reported == [(r.theta1, r.theta2, r.theta3) for r in got.records]

    @pytest.mark.parametrize("name", ["case1", "case2"])
    def test_empty_window_is_one_skip(self, name, monkeypatch):
        run = dict(_sweeps())[name]
        want = run()
        window, refused = explorer.admissible_u_window, []

        def no_window_once(ch):
            if not refused:
                refused.append(ch.a)
                raise InfeasibleError("empty window")
            return window(ch)

        monkeypatch.setattr(explorer, "admissible_u_window", no_window_once)
        got = run()
        assert got.skipped == want.skipped + 1
        assert got.records == tuple(r for r in want.records if (r.a0, r.a1, r.a2) != refused[0])

    @pytest.mark.parametrize("name", ["case1", "case2", "degenerate"])
    def test_no_random_numbers_drawn(self, name, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a sweep drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(teleport, "random_input", no_draws)
        # and neither global generator moves
        legacy, stdlib = pickle.dumps(np.random.get_state()), random.getstate()
        result = dict(_sweeps())[name]()
        assert result.records
        assert pickle.dumps(np.random.get_state()) == legacy
        assert random.getstate() == stdlib


class TestOneRotationPerScheme:
    def test_sweep_case1(self, monkeypatch):
        # every per-scheme formula reads SchemeParams.rotation, so a sweep
        # builds one rotation per solved scheme (no longer one per layer) and
        # takes its phases from cmath.exp
        rotations, solved = [], []
        rows, solve = scheme.rotation_rows, explorer.solve_constraints

        def spy_rows(*theta):
            rotations.append(theta)
            return rows(*theta)

        def spy_solve(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        def no_exp(*args, **kwargs):
            raise AssertionError("np.exp called")

        for module in (scheme, teleport, resources):
            monkeypatch.setattr(module, "rotation_rows", spy_rows, raising=False)
        monkeypatch.setattr(explorer, "solve_constraints", spy_solve)
        monkeypatch.setattr(np, "exp", no_exp)
        result = sweep_case1(20)
        assert len(result.records) == len(solved) > 20
        assert rotations == [params.theta for params in solved]


class TestInnerGrid:
    def test_matches_linspace(self):
        rng = np.random.default_rng(17)
        ends = np.sort(rng.uniform(size=(20_000, 2)), axis=1).tolist()
        ends += [[x, x] for x in rng.uniform(size=100).tolist()] + [[0.0, 1e-300], [0.5, 0.5]]
        ends += [[x, x + 1e-15 * k] for k, x in enumerate(rng.uniform(size=100).tolist())]
        for lo, hi in ends:
            want = np.linspace(lo, hi, explorer._INNER_GRID)
            assert np.array(explorer._inner_grid(lo, hi)).tobytes() == want.tobytes()


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

    def test_grid(self):
        grid = explorer.bounds_grid(200).tolist()
        assert grid == np.linspace(1.0 + 1e-9, LOG2_3, 200).tolist()
        assert grid[0] == 1.0 + 1e-9 and grid[-1] == LOG2_3
        with pytest.raises(ValueError, match="density must be at least 2"):
            explorer.bounds_grid(1)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            bounds_table([0.5])
        with pytest.raises(ValueError):
            bounds_table([LOG2_3 + 0.01])


# the E grid of `teleportsim bounds --density 200`
BOUNDS_GRID_200 = np.linspace(1.0 + 1e-9, LOG2_3, 200).tolist()


class TestA1FromEntropy:
    """The bound-curve inversion ends where the oracle's bisection on
    channel_entropy ends, bit for bit."""

    @staticmethod
    def _same_as_exact(es):
        for e in es:
            assert explorer._a1_from_entropy(e) == a1_from_entropy_exact(e), e

    def test_bounds_grid(self):
        self._same_as_exact(BOUNDS_GRID_200)

    def test_uniform(self, rng):
        # uniform in (1, log2 3]
        self._same_as_exact((LOG2_3 - rng.uniform(0.0, LOG2_3 - 1.0, 2000)).tolist())

    def test_edges(self):
        self._same_as_exact([1.0 + 1e-15, 1.0 + 1e-9, 1.5,
                             LOG2_3 - 1e-13, LOG2_3, LOG2_3 + 1e-12])


class TestGourComparison:
    """Claim (a): the scheme needs no more measurement entanglement than the
    reference protocol. On each swept channel the least E12 over the swept
    angles is at most Gour's value; the claim is tight, down to about 1e-16,
    at the symmetric point."""

    @staticmethod
    def _min_e12(result):
        least = {}
        for r in result.records:
            a = (r.a0, r.a1, r.a2)
            least[a] = min(least.get(a, np.inf), r.e12)
        return least

    def test_case1(self):
        least = self._min_e12(sweep_case1(50))
        assert len(least) == 50
        # case 1 sweeps the a0 = 0 channel at one point (theta2 = pi/2, E12 =
        # 1); the degenerate sweep covers its free angle theta1, down to
        # 0.90572 against Gour's H(2/3) = 0.91830
        degenerate = self._min_e12(sweep_degenerate(50))
        a = (0.0, math.sqrt(0.5), math.sqrt(0.5))
        assert list(degenerate) == [a]
        least[a] = min(least[a], degenerate[a])
        assert least[a] == pytest.approx(0.90572, abs=1e-5)
        for a, e12 in least.items():
            assert e12 <= gour_e12(make_channel(*a)) + 1e-12, a

    def test_case2(self):
        least = self._min_e12(sweep_case2(50))
        assert len(least) == 50
        for a, e12 in least.items():
            assert e12 <= gour_e12(make_channel(*a)) + 1e-12, a


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

    def test_verify_face_corner_refused(self, capsys):
        # a1 = math.sqrt(0.5), one ulp above 1/sqrt(2): the solver refuses
        # the corner a0^2 = 5e-9 at the window's midpoint and at its bottom,
        # and the CLI says why (the midpoint's refusal), with no traceback
        triple = ",".join(map(repr, (math.sqrt(5e-9), math.sqrt(0.5), math.sqrt(0.5 - 5e-9))))
        assert main(["verify", "--channel", triple]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible: scheme at theta3 = ")
        assert "not certified: branches 3+/3- deviate by 1.25e-08 of their weight" in captured.err
        assert "Traceback" not in captured.err

    def test_verify_face_corner_rescued(self, capsys):
        # the corner a0^2 = 5e-13 is refused at the window's midpoint but
        # certifies at its bottom, so verify reports that scheme
        triple = ",".join(map(repr, (math.sqrt(5e-13), math.sqrt(0.5), math.sqrt(0.5 - 5e-13))))
        assert main(["verify", "--channel", triple]) == 0
        out = json.loads(capsys.readouterr().out)
        ch = make_channel(*out["canonical_channel"]["a"])
        assert out["scheme"]["theta"][2] == scheme.admissible_theta3(ch)[0]
        assert out["report"]["mean_fidelity"] >= 1.0 - 1e-10

    def test_verify_bad_triple_exits_1(self, capsys):
        assert main(["verify", "--channel", "0.9,0.9,0.9"]) == 1
        assert main(["verify", "--channel", "0.5,0.5"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("triple, message", [
        ("0.9,0.9,0.9", "Schmidt coefficients not normalized: sum of squares = 2.43"),
        ("inf,0.7,0.7", "Schmidt coefficients must be finite"),
        # squaring overflows, with no numpy warning ahead of the error
        ("1e308,1e308,1e308", "Schmidt coefficients not normalized: sum of squares = inf"),
    ])
    def test_channel_checked_by_make_channel(self, triple, message, capsys):
        assert main(["verify", "--channel", triple]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_theta3_exits_1(self, command, value, capsys):
        assert main([command, "--channel", "0.5,0.7071,0.5", f"--theta3={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: theta3 must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("cmd, message", [
        (["sweep-case1", "--density", "abc"], "--density must be an integer, got 'abc'"),
        (["sweep-case1", "--density", "2.5"], "--density must be an integer, got '2.5'"),
        (["verify", "--channel", "0.577,0.577,0.577", "--theta3", "abc"],
         "--theta3 must be a number, got 'abc'"),
        (["report", "--channel", "0.577,0.577,0.577", "--theta3", "1e"],
         "--theta3 must be a number, got '1e'"),
    ])
    def test_unparsable_number_exits_1(self, cmd, message, capsys):
        assert main(cmd) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("args", [["--channel", "-0.1,0.7,0.7"],
                                      ["--channel=-0.1,0.7,0.7"],
                                      ["--chan", "-0.1,0.7,0.7"]])
    def test_negative_first_coefficient_exits_1(self, command, args, capsys):
        # with or without "=", abbreviated or not, a leading minus sign is a
        # bad triple, not a flag
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: negative Schmidt coefficient in [-0.1, 0.7, 0.7]\n"

    @pytest.mark.parametrize("value, code, message", [
        ("-1e-3", 2, "infeasible: theta3 = -0.001 outside the admissible interval"),
        ("-inf", 1, "error: theta3 must be finite, got -inf\n"),
    ], ids=["-1e-3", "-inf"])
    @pytest.mark.parametrize("glued", [False, True])
    def test_negative_theta3_is_a_value(self, value, code, message, glued, capsys):
        # argparse alone reads only -N and -N.N as numbers; -1e-3 and -inf are
        # values of --theta3 however written
        flag = [f"--theta3={value}"] if glued else ["--theta3", value]
        assert main(["verify", "--channel", "0.5,0.7071,0.5", *flag]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("args", [["--channel", "--seed", "3"],
                                      ["--channel", "--out=a,b"]])
    def test_missing_channel_value_exits_64(self, args, capsys):
        assert main(["report", *args]) == 64
        assert "argument --channel: expected one argument" in capsys.readouterr().err

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
        assert lines[0] == ",".join(SweepRecord._fields)
        assert lines[-1].startswith("# skipped=")
        first = lines[1].split(",")
        assert len(first) == len(SweepRecord._fields)
        float(first[0])  # parseable payload

    def test_one_parser_per_process(self, monkeypatch, capsys):
        # every main call in a process parses with one parser, built on the
        # first call; a mixed run of commands, usage and validation errors
        # among them, gives the bytes a fresh build_parser() per call gives
        argvs = [["sweep-case1", "--bogus"],
                 ["report", "--channel", "0.577,0.577,0.577", "--seed", "x"],
                 ["sweep-case1", "--density", "8"],
                 ["bounds", "--density", "5"],
                 ["report", "--channel", "0.577,0.577,0.577", "--seed", "9"],
                 ["verify", "--channel", "0.577,0.577,0.577", "--seed", "9"],
                 ["sweep-case1", "--bogus"]]

        def run():
            outputs = []
            for argv in argvs:
                code = main(argv)
                captured = capsys.readouterr()
                outputs.append((code, captured.out, captured.err))
            return outputs

        parser = cli._parser()
        before = cli._parser.cache_info()
        shared = run()
        after = cli._parser.cache_info()
        assert cli._parser() is parser
        assert (after.misses, after.hits) == (before.misses, before.hits + len(argvs))
        assert [code for code, _, _ in shared] == [64, 1, 0, 0, 0, 0, 64]
        assert shared[0] == shared[-1] and shared[0][2].startswith("usage error: ")
        assert "\nusage: teleportsim " in shared[0][2]
        assert shared[1][2] == "error: --seed must be a non-negative integer, got 'x'\n"
        for (_, out, _), name in zip(shared[4:6], ("report.json", "verify.json")):
            assert out == (GOLDEN_DIR / name).read_text()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run() == shared
        assert cli.build_parser() is not cli.build_parser()

    def test_parser_built_on_first_main_call(self):
        # importing the package or the CLI module builds no parser
        code = ("import teleportsim, teleportsim.cli as cli; "
                "print(cli._parser.cache_info().currsize)")
        src = pathlib.Path(explorer.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert proc.stdout == "0\n"

    def test_sweep_csv_streamed_line_by_line(self, tmp_path, capsys):
        result = sweep_case2(density=6)
        lines = list(sweep_csv_lines(result))
        assert len(lines) == len(result.records) + 2
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        path = tmp_path / "case2.csv"
        assert main(["sweep-case2", "--density", "6", "--seed", "5", "--out", str(path)]) == 0
        assert main(["sweep-case2", "--density", "6", "--seed", "5"]) == 0
        assert path.read_text() == capsys.readouterr().out == "".join(lines)

    def test_sweep_csv_template_matches_fmt(self):
        values = [0.25, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                  1.0 / 3.0, math.pi, 3.0, 1e-17, -2.5e-310]
        records = [SweepRecord(*values, bound_upper=upper)
                   for upper in (None, 3.5, -0.0, 5e-324, 1e300)]
        records += sweep_case1(density=4).records + sweep_case2(density=4).records
        # runs of records whose channel or bound fields are equal in value but
        # distinct objects, or the very same objects: the per-run text of
        # sweep_csv_lines must follow every one of them
        fresh = float  # float(text) builds a new object on every call
        rest = tuple(values[3:10])
        chan_a = (fresh("0.25"), fresh("0.5"), fresh("0.75"))
        chan_b = (chan_a[0], fresh("0.75"), fresh("0.5"))  # shares A's a0 object
        upper = fresh("3.5")
        edge = [
            SweepRecord(fresh("0.0"), 0.5, 0.5, *rest, fresh("0.0"), fresh("0.0")),
            SweepRecord(fresh("-0.0"), 0.5, 0.5, *rest, fresh("-0.0"), fresh("-0.0")),
            SweepRecord(*chan_a, *rest, fresh("3.5"), upper),
            SweepRecord(*chan_a, *rest, fresh("3.5"), fresh("3.5")),
            SweepRecord(*chan_a, *rest, 1.0, upper),
            SweepRecord(*chan_a, *rest, 1.0, None),
            SweepRecord(*chan_b, *rest, 1.0, None),
            SweepRecord(*chan_a, *rest, 1.0, None),
        ]
        assert edge[2].bound_lower is not edge[3].bound_lower and upper is not edge[3].bound_upper
        # the same for theta3 and e_channel, within one channel's run: one
        # shared object, equal values in distinct objects, 0.0 then -0.0,
        # each column changing alone and both together
        t1, t2, _, _, e12, h12, total = rest
        theta3, entropy = fresh("0.5"), fresh("1.25")
        mid = [(theta3, entropy), (theta3, entropy), (fresh("0.5"), entropy),
               (fresh("0.5"), fresh("1.25")), (theta3, fresh("1.25")), (theta3, entropy),
               (fresh("0.0"), entropy), (fresh("-0.0"), entropy), (theta3, fresh("0.0")),
               (theta3, fresh("-0.0")), (fresh("0.0"), fresh("0.0")),
               (fresh("-0.0"), fresh("-0.0"))]
        edge += [SweepRecord(*chan_a, t1, t2, t3, e, e12, h12, total, 1.0, upper)
                 for t3, e in mid]
        assert mid[2][0] is not theta3 and mid[3][1] is not entropy
        records += edge
        lines = list(sweep_csv_lines(SweepResult(records=tuple(records), skipped=0)))
        assert lines[1:-1] == [
            ",".join("" if (x := getattr(r, name)) is None else format(x, ".17g")
                     for name in SweepRecord._fields) + "\n"
            for r in records]
        assert lines[1].endswith(",\n") and lines[3].endswith(",-0\n")
        # the last six lines alternate 0 and -0 in theta3 (field 6) or e_channel (field 7)
        tail = [line.split(",")[5:7] for line in lines[-7:-1]]
        assert tail == [["0", "1.25"], ["-0", "1.25"], ["0.5", "0"], ["0.5", "-0"],
                        ["0", "0"], ["-0", "-0"]]
        # bounds_csv takes the same template
        rows = [tuple(values[i:i + 3]) for i in range(0, len(values) - 2)]
        assert bounds_csv(rows).split("\n") == (
            ["e,lower,upper"] + [",".join(format(x, ".17g") for x in row) for row in rows] + [""])

    def test_record_fields_are_the_csv_header(self):
        header = next(sweep_csv_lines(SweepResult(records=(), skipped=0)))
        assert header == ",".join(SweepRecord._fields) + "\n"
        assert SweepRecord._fields[:3] == ("a0", "a1", "a2") and len(SweepRecord._fields) == 12

    def test_record_is_a_read_only_tuple(self):
        records = [r for _, run in _sweeps(25, 25) for r in run().records]
        assert records and all(type(r) is SweepRecord for r in records)
        assert all(len(r) == len(SweepRecord._fields) for r in records)
        record = records[0]
        assert record == tuple(getattr(record, name) for name in SweepRecord._fields)
        for name in SweepRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        for copy in (SweepRecord(**record._asdict()), record._replace(),
                     pickle.loads(pickle.dumps(record))):
            assert type(copy) is SweepRecord and copy == record
        changed = record._replace(e12=0.5)
        assert type(changed) is SweepRecord and changed.e12 == 0.5 and changed[8:] == record[8:]

    def test_sweep_json_structure(self, capsys):
        assert main(["sweep-case2", "--density", "6", "--seed", "5",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"records", "skipped"}
        assert set(payload["records"][0]) == set(SweepRecord._fields)

    @pytest.mark.parametrize("command",
                             ["sweep-case1", "sweep-case2", "sweep-degenerate", "bounds"])
    def test_density_below_2_exits_1(self, command, capsys):
        assert main([command, "--density", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "density must be at least 2" in captured.err

    @pytest.mark.parametrize("command",
                             ["sweep-case1", "sweep-case2", "sweep-degenerate", "bounds"])
    def test_density_too_large_to_allocate_exits_1(self, command, monkeypatch, capsys):
        # the grid's allocation fails as numpy's does at --density 100000000000
        # (an _ArrayMemoryError, a MemoryError), without allocating anything
        def no_memory(lo, hi, num):
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")

        monkeypatch.setattr(np, "linspace", no_memory)
        assert main([command, "--density", "100000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: Unable to allocate an array "
                                "with shape (100000000000,)\n")

    def test_bounds_csv(self, capsys):
        assert main(["bounds", "--density", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "e,lower,upper"
        assert len(lines) == 11

    def test_bounds_json(self, tmp_path, capsys):
        assert main(["bounds", "--density", "7", "--format", "json"]) == 0
        out = capsys.readouterr().out
        rows = [(r["e"], r["lower"], r["upper"]) for r in json.loads(out)]
        assert rows == [tuple(row) for row in bounds_table(explorer.bounds_grid(7))]
        path = tmp_path / "bounds.json"
        assert main(["bounds", "--density", "7", "--format", "json", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["sweep-degenerate", "--density", "9", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        text = path.read_text()
        assert text.startswith(",".join(SweepRecord._fields))
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

    @pytest.mark.parametrize("command", ["sweep-case1", "sweep-case2", "sweep-degenerate"])
    def test_sweep_output_ignores_seed(self, command, tmp_path):
        contents = []
        for seed in ("0", "12345"):
            p = tmp_path / f"{seed}.csv"
            assert main([command, "--density", "12", "--seed", seed, "--out", str(p)]) == 0
            contents.append(p.read_bytes())
        assert contents[0] == contents[1]

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("TELEPORTSIM_SEED", "42")
        assert main(["verify", "--channel", SYMMETRIC_ARG]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("cmd", [["sweep-degenerate", "--density", "5"],
                                     ["verify", "--channel", SYMMETRIC_ARG],
                                     ["report", "--channel", SYMMETRIC_ARG],
                                     ["bounds", "--density", "5"]])
    @pytest.mark.parametrize("env, flag, message", [
        ("abc", [], "TELEPORTSIM_SEED must be a non-negative integer, got 'abc'"),
        ("1.5", [], "TELEPORTSIM_SEED must be a non-negative integer, got '1.5'"),
        ("-1", [], "TELEPORTSIM_SEED must be a non-negative integer, got '-1'"),
        ("0", ["--seed", "-1"], "--seed must be a non-negative integer, got '-1'"),
        ("0", ["--seed", "abc"], "--seed must be a non-negative integer, got 'abc'"),
        ("0", ["--seed", "1.5"], "--seed must be a non-negative integer, got '1.5'"),
    ])
    def test_bad_seed_exits_1(self, cmd, env, flag, message, capsys, monkeypatch):
        monkeypatch.setenv("TELEPORTSIM_SEED", env)
        assert main(cmd + flag) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("cmd", [["sweep-case1", "--density", "1"],
                                     ["sweep-case1", "--density", "abc"],
                                     ["verify", "--channel", "0.9,0.9,0.9"],
                                     ["report", "--channel", "0.447,0.775,0.447"]])
    def test_bad_seed_outranks_other_errors(self, cmd, capsys):
        assert main(cmd + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got '-1'\n"

    @pytest.mark.parametrize("cmd", [["sweep-degenerate", "--density", "5"],
                                     ["verify", "--channel", SYMMETRIC_ARG]])
    def test_out_into_missing_directory_exits_1(self, cmd, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert main(cmd + ["--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out.txt" in err
        assert not path.parent.exists()
