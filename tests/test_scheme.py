import copy
import dataclasses
import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEGENERATE, SYMMETRIC, random_capable_channel, random_incapable_channel
from oracles import (
    plane_rotation,
    qubit_qutrit_tangle,
    reduced_density,
    special_case_basis,
    two_qubit_D12,
)
from teleportsim import explorer, scheme
from teleportsim.channel import SchmidtChannel, canonicalize, is_teleport_capable, make_channel
from teleportsim.qlinalg import TOL
from teleportsim.resources import resource_report, upper_bound_sum
from teleportsim.scheme import (
    BRANCH_LABELS,
    DEVIATION_BOUND,
    InfeasibleError,
    MeasurementBasis,
    SchemeParams,
    _pair_deviations,
    _window_from_halflines,
    admissible_theta3,
    admissible_u_window,
    assemble_D12,
    certify_scheme,
    constraint_residuals,
    find_scheme,
    free_theta2_window,
    phases_from_weights,
    rotation_rows,
    solve_constraints,
    solve_points,
)
from teleportsim.teleport import InputQubit, random_input, run_teleport

R2 = 1.0 / math.sqrt(2.0)


class TestRotation:
    def test_identity(self):
        assert np.allclose(rotation_rows(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_special_orthogonal(self, t1, t2, t3):
        u = np.array(rotation_rows(t1, t2, t3))
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-12
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_the_plane_rotation_product(self, t1, t2, t3):
        rows = rotation_rows(t1, t2, t3)
        assert np.max(np.abs(np.array(rows) - plane_rotation(t1, t2, t3))) <= 1e-15
        assert all(type(x) is float for row in rows for x in row)

    def test_degenerate_family_anchor(self):
        # the theta1-parameterized family of the a0=0 channel must appear at
        # (theta1, 0, pi/4)
        for t1 in np.linspace(0.0, math.pi / 2, 7):
            u = np.array(rotation_rows(t1, 0.0, math.pi / 4))
            c1, s1 = math.cos(t1), math.sin(t1)
            expected = np.array([
                [c1, -s1 * R2, s1 * R2],
                [s1, c1 * R2, -c1 * R2],
                [0.0, R2, R2],
            ])
            assert np.max(np.abs(u - expected)) <= 1e-12

    def test_optimal_curve_anchor(self):
        # at theta2 = pi/4 with theta1 tied to theta3, the per-branch tangles
        # and probabilities must follow the optimal-curve closed forms
        for t3 in np.linspace(0.2, 0.7, 6):
            t1 = 0.5 * math.atan(-math.sqrt(2.0) / math.tan(2.0 * t3))
            b = 1.0 / (2.0 + math.cos(2.0 * t3))  # a1^2 with cos(2 t3) = (1-2 a1^2)/a1^2
            a = max(1.0 - 2.0 * b, 0.0)
            ch = make_channel(math.sqrt(a), math.sqrt(b), math.sqrt(b))
            params = solve_constraints(ch, t3, theta2_hint=math.pi / 4)
            assert params.theta[1] == pytest.approx(math.pi / 4, abs=1e-9)
            c1, s1 = math.cos(t1) ** 2, math.sin(t1) ** 2
            c3, s3 = math.cos(t3) ** 2, math.sin(t3) ** 2
            den = 4.0 + 2.0 * math.cos(2.0 * t3)
            expect_tangles = sorted([1.0 - c1 * c1 * s3 * s3, 1.0 - s1 * s1 * s3 * s3,
                                     c3 * (1.0 + s3)] * 2)
            expect_probs = sorted([(s1 + c1 * c3) / den, (c3 + c1 * s3) / den, c3 / den] * 2)
            res = resource_report(ch, params)
            assert np.allclose(sorted(res.tangles), expect_tangles, atol=1e-9)
            assert np.allclose(sorted(res.probabilities), expect_probs, atol=1e-9)
            # and the whole-curve value matches the closed-form sum
            assert res.sum == pytest.approx(upper_bound_sum(math.sqrt(b)), abs=1e-9)


class TestPhases:
    def test_symmetric_channel(self):
        # equal weights 1/9 each: three equal phasors at 120 degrees
        d1, d2 = phases_from_weights(1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0)
        assert d1 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
        assert d2 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)

    def test_law_of_cosines(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            p, q, r = np.sort(w)[::-1] / 3.0  # sorted: triangle-feasible iff p <= q + r
            if p > q + r:
                continue
            d1, d2 = phases_from_weights(p, q, r)
            assert math.cos(d1) == pytest.approx((r * r - p * p - q * q) / (2 * p * q), abs=1e-10)
            resid = abs(p + q * np.exp(1j * d1) + r * np.exp(-1j * d2))
            assert resid <= 1e-10
            assert math.sin(d1) >= -1e-12

    def test_two_phasor_cancellation(self):
        d1, d2 = phases_from_weights(0.0, 0.25, 0.25)
        assert (d1, d2) == (0.0, math.pi)

    def test_triangle_violation(self):
        with pytest.raises(InfeasibleError, match="exceeds"):
            phases_from_weights(0.6, 0.1, 0.1)

    def test_phases_from_rotation_third_row(self):
        # rotation whose third row has equal squares 1/3 on the symmetric channel
        A, B, C = make_channel(*SYMMETRIC).squares
        theta2 = math.asin(math.sqrt(1.0 / 3.0))
        u = rotation_rows(0.3, theta2, math.pi / 4)
        assert np.allclose(np.square(u[2]), 1.0 / 3.0, atol=1e-12)
        d1, d2 = phases_from_weights(A * u[2][0] ** 2, B * u[2][1] ** 2, C * u[2][2] ** 2)
        assert d1 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-10)
        assert abs(d2) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-10)


class TestSchemeRotation:
    """SchemeParams carries rotation_rows(*theta), built once per scheme, and
    is otherwise still its angles alone."""

    def test_equals_rotation_rows(self, rng):
        params = SchemeParams(theta=(0.1, -0.2, 0.3), delta=(0.4, 0.5))
        assert params.rotation == rotation_rows(0.1, -0.2, 0.3)
        for _ in range(20):
            ch = random_capable_channel(rng)
            solved = solve_constraints(ch, sum(admissible_theta3(ch)) / 2.0)
            assert solved.rotation == rotation_rows(*solved.theta)

    def test_rebuilt_by_replace(self):
        params = SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5))
        moved = dataclasses.replace(params, theta=(0.7, 0.2, 0.3))
        assert moved.rotation == rotation_rows(0.7, 0.2, 0.3) != params.rotation
        assert dataclasses.replace(params, delta=(0.0, 0.0)).rotation == params.rotation
        with pytest.raises(ValueError):
            dataclasses.replace(params, rotation=rotation_rows(0.0, 0.0, 0.0))
        with pytest.raises(TypeError):
            SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5), rotation=params.rotation)

    def test_invisible(self):
        params = SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5))
        twin = SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5))
        object.__setattr__(twin, "rotation", [[0.0] * 3] * 3)
        assert twin == params and hash(twin) == hash(params)
        assert repr(params) == "SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5))"
        assert params.to_json_dict() == {"theta": [0.1, 0.2, 0.3], "delta": [0.4, 0.5],
                                         "zeta": math.pi / 4}
        assert params != SchemeParams(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.6))


def _numpy_scalar_solve(ch, theta3, theta2_hint=math.pi / 4, theta1_hint=0.0):
    """solve_constraints' angles as first written, frozen: theta in plain
    floats, then the phasor closure in numpy scalars read from a rotation
    array, as the first phase solve did. Numpy divides a complex by a real as
    a product with 1/r (Python's quotient differs in 44% of cases), and its
    x ** 2 is Python's (x * x is not, in about 1 case in 1,100)."""
    A, B, C = ch.squares
    u = math.sin(theta3) ** 2
    d = B - C
    n = (B + C) * u - (B - A)
    if abs(n) < TOL.degenerate and abs(n + d) < TOL.degenerate:
        wlo, whi = free_theta2_window(ch, u)
        theta2 = math.asin(math.sqrt(min(max(math.sin(theta2_hint) ** 2, wlo), whi)))
    else:
        theta2 = math.asin(math.sqrt(min(max(n / (n + d), 0.0), 1.0)))
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3sq, s3sq = 1.0 - u, u
    k = A * c2 * c2 + C * s2 * s2 * c3sq - B * s2 * s2 * s3sq
    ell = C * s3sq - B * c3sq
    m = s2 * math.sqrt(s3sq * c3sq) * (B + C)
    if abs(ell - k) < TOL.degenerate and abs(m) < TOL.degenerate:
        theta1 = theta1_hint
    else:
        theta1 = 0.5 * math.atan2(ell - k, 2.0 * m)
    umat = np.array(rotation_rows(theta1, theta2, theta3))
    p, q, r = A * umat[2, 0] ** 2, B * umat[2, 1] ** 2, C * umat[2, 2] ** 2
    assert all(type(x) is np.float64 for x in (p, q, r))
    if q <= TOL.weight and r <= TOL.weight:
        delta = (0.0, 0.0)
    elif p <= TOL.weight or q <= TOL.weight:
        delta = (0.0, math.pi)
    elif r <= TOL.weight:
        delta = (math.pi, 0.0)
    else:
        d1 = math.acos(min(max((r * r - p * p - q * q) / (2.0 * p * q), -1.0), 1.0))
        z = -(p + q * complex(math.cos(d1), math.sin(d1))) / r
        delta = (d1, -math.atan2(z.imag, z.real))
    return np.array([theta1, theta2, theta3, *delta])


def _bit_identity_points(rng):
    """(channel, theta3, hints) solves: 2,000 random capable channels at three
    window fractions, and the a0 = 0 ridge, the face max a_j^2 = 1/2, the
    case-1 ridge a2 = a1 and channels 1e-2 to 1e-4 from the symmetric point."""
    for _ in range(2000):
        ch = random_capable_channel(rng)
        lo, hi = admissible_theta3(ch)
        for frac in (0.0, rng.uniform(), 1.0):
            yield ch, lo + frac * (hi - lo), {}
    ridge = make_channel(*DEGENERATE)
    for t2 in np.linspace(0.0, math.pi / 2, 9).tolist():
        for t1 in np.linspace(0.0, math.pi / 2, 9).tolist():
            yield ridge, math.pi / 4, {"theta2_hint": t2, "theta1_hint": t1}
    for c in np.linspace(0.0, 0.5, 41).tolist():
        ch, _ = canonicalize(make_channel(math.sqrt(0.5 - c), R2, math.sqrt(c)))
        lo, hi = admissible_theta3(ch)
        for frac in np.linspace(0.0, 1.0, 5).tolist():
            yield ch, lo + frac * (hi - lo), {}
    for b in np.linspace(1.0 / 3.0, 0.5, 41).tolist():
        ch = make_channel(math.sqrt(max(1.0 - 2.0 * b, 0.0)), math.sqrt(b), math.sqrt(b))
        lo, hi = admissible_theta3(ch)
        for t2 in np.linspace(0.0, math.pi / 2, 5).tolist():
            yield ch, 0.5 * (lo + hi), {"theta2_hint": t2}
    for eps in (1e-2, 1e-3, 1e-4):
        for _ in range(100):
            v = rng.normal(size=3)
            v -= v.mean()
            ch, _ = canonicalize(make_channel(*np.sqrt(1.0 / 3.0 + eps * v / np.abs(v).max())))
            lo, hi = admissible_theta3(ch)
            for frac in (0.0, 0.5, 1.0):
                yield ch, lo + frac * (hi - lo), {}


class TestSolveBitIdentity:
    def test_matches_numpy_scalar_solve(self):
        solved = refused = flat = 0
        for ch, theta3, hints in _bit_identity_points(np.random.default_rng(1207)):
            try:
                params = solve_constraints(ch, theta3, **hints)
            except InfeasibleError:
                refused += 1
                continue
            got = np.array([*params.theta, *params.delta])
            assert got.tobytes() == _numpy_scalar_solve(ch, theta3, **hints).tobytes()
            solved += 1
            flat += params.delta == (0.0, -math.pi)
        # the set reaches the flat triangle d1 = 0, where numpy's quotient
        # gives the imaginary part +0 and so d2 = -pi, not pi
        assert solved > 7000 and refused < 100 and flat > 1000


class TestSolveConstraints:
    def test_degenerate_family_feasible(self):
        ch = make_channel(*DEGENERATE)
        for t1 in np.linspace(0.0, math.pi / 2, 9):
            params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=t1)
            assert params.theta[0] == pytest.approx(t1, abs=1e-12)
            assert max(constraint_residuals(ch, params)) <= 1e-10

    def test_symmetric_channel_has_solution(self):
        ch = make_channel(*SYMMETRIC)
        lo, hi = admissible_theta3(ch)
        params = solve_constraints(ch, 0.5 * (lo + hi))
        assert max(constraint_residuals(ch, params)) <= 1e-10

    def test_incapable_fails_everywhere(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))
        for t3 in np.linspace(0.0, math.pi / 2, 100):
            with pytest.raises(InfeasibleError):
                solve_constraints(ch, t3)

    def test_out_of_window_reports_interval(self):
        ch = make_channel(*SYMMETRIC)  # admissible theta3 is the single point 0
        with pytest.raises(InfeasibleError) as exc:
            solve_constraints(ch, 0.3)
        assert exc.value.interval is not None
        lo, hi = exc.value.interval
        assert 0.0 <= lo <= hi < 0.3

    def test_gate_is_the_exact_u_window(self, rng):
        # theta3 is gated on u = sin^2(theta3) against admissible_u_window
        # itself; admissible_theta3 only reports the refused interval
        tried = 0
        while tried < 20:
            ch = random_capable_channel(rng)
            ulo, _ = admissible_u_window(ch)
            if ulo < 1e-6:
                continue
            tried += 1
            with pytest.raises(InfeasibleError) as exc:
                solve_constraints(ch, math.asin(math.sqrt(ulo - 2.0 * TOL.entry)))
            assert exc.value.interval == admissible_theta3(ch)
            params = solve_constraints(ch, math.asin(math.sqrt(ulo)))
            assert max(constraint_residuals(ch, params)) <= TOL.unitary

    def test_non_canonical_rejected(self):
        ch = make_channel(math.sqrt(0.5), math.sqrt(0.2), math.sqrt(0.3))
        with pytest.raises(ValueError, match="canonicalized"):
            solve_constraints(ch, 0.3)

    def test_residual_refusal_at_window_top(self):
        # near the face, cancellation at theta3 -> pi/2 leaves a phasor
        # residual of 1.5e-10 (CHANGES.md): 15 of 99 such splits refuse;
        # this pins the refusal and the interval it reports
        top, share = 0.5 - 1e-12, 0.02
        rest = 1.0 - top
        ch, _ = canonicalize(make_channel(math.sqrt(rest * share), math.sqrt(top),
                                          math.sqrt(rest * (1.0 - share))))
        with pytest.raises(InfeasibleError,
                           match=r"not certified: branches 3\+/3- deviate by 7\.4e-09") as exc:
            solve_constraints(ch, admissible_theta3(ch)[1])
        assert exc.value.interval == admissible_theta3(ch)

    def test_empty_halflines(self):
        # a vacuous constraint 0 * u <= beta < 0, and half-lines that do not meet
        assert _window_from_halflines(0.0, 1.0, [(0.0, -1.0)]) is None
        assert _window_from_halflines(0.0, 1.0, [(1.0, -0.5)]) is None
        assert _window_from_halflines(0.0, 1.0, [(0.0, 1.0), (2.0, 1.0)]) == (0.0, 0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_residuals_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        lo, hi = admissible_theta3(ch)
        params = solve_constraints(ch, lo + rng.uniform() * (hi - lo))
        assert max(constraint_residuals(ch, params)) <= 1e-10
        dmat, _ = assemble_D12(params)
        gram = dmat @ dmat.conj().T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_incapable_window_empty(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_incapable_channel(rng)
        with pytest.raises(InfeasibleError):
            admissible_u_window(ch)

    def test_window_memo_is_per_channel_value(self, rng):
        # admissible_u_window is memoized: equal channels share a window and
        # a refused channel is refused again
        ch = random_capable_channel(rng)
        again = SchmidtChannel(a=ch.a)
        assert again is not ch and admissible_u_window(again) == admissible_u_window(ch)
        bad = random_incapable_channel(rng)
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                admissible_u_window(bad)


def _scan_channels(seed: int, n: int) -> list[SchmidtChannel]:
    """The capable channels, canonicalized, among n seeded draws: every
    other draw Dirichlet(1, 1, 1) weights over the whole simplex (a quarter
    of them capable), the rest near the face, max a_j^2 = 1/2 -
    10^U(-14, -2), the other two weights splitting the rest at a share
    log-uniform from 1e-12 to 1/2, taken from either end."""
    rnd, out = random.Random(seed), []
    for i in range(n):
        if i % 2:
            w = [rnd.expovariate(1.0) for _ in range(3)]
            w = [x / sum(w) for x in w]
        else:
            top = 0.5 - 10.0 ** rnd.uniform(-14.0, -2.0)
            share = 10.0 ** rnd.uniform(-12.0, math.log10(0.5))
            if rnd.random() < 0.5:
                share = 1.0 - share
            w = [(1.0 - top) * share, top, (1.0 - top) * (1.0 - share)]
        ch = make_channel(*map(math.sqrt, w))
        if is_teleport_capable(ch):
            out.append(canonicalize(ch)[0])
    return out


def _bits(values) -> list[str]:
    """Each float's exact bits as text: float.hex, which keeps the sign of a
    zero and writes every NaN as 'nan'."""
    return [float(x).hex() for x in values]


def _reference_pair_deviations(ch: SchmidtChannel, params: SchemeParams) -> tuple:
    """The certificate's pair deviations as first written: the 1+/2+ and
    1-/2- pairs from their split norms, the 3+/3- pair from the r3 of
    constraint_residuals."""
    A, B, C = ch.squares
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = params.rotation

    def zero(na, nb):
        return na <= TOL.zero_branch and nb <= TOL.zero_branch

    def split(x, y):
        na, nb = math.sqrt(x), math.sqrt(y)
        if zero(na, nb):
            return 0.0
        sp = math.sqrt(0.5 * (x + y))
        return max(abs(na - sp), abs(nb - sp)) / sp

    p3 = 0.5 * (A * u20 * u20 + B * u21 * u21 + C * u22 * u22)
    r3 = constraint_residuals(ch, params)[2]
    return (split(A * u00 * u00 + C * u02 * u02, B * u01 * u01),
            split(A * u10 * u10 + C * u12 * u12, B * u11 * u11),
            0.0 if zero(math.sqrt(p3), math.sqrt(p3)) else 0.5 * r3 / p3)


class TestAcceptanceRule:
    """solve_constraints returns a scheme only when certify_scheme passes it,
    the one acceptance rule; every scheme it returns runs through Bob's
    correction kernel."""

    def test_solved_schemes_certify_and_run(self):
        # theta3 at both window ends and the midpoint of each channel; the
        # old gate (every residual at most TOL.unitary) returned schemes here
        # on which run_teleport raises CorrectionError
        rng = np.random.default_rng(33)
        solved = refused = 0
        for ch in _scan_channels(7, 1000):
            lo, hi = admissible_theta3(ch)
            for theta3 in (lo, 0.5 * (lo + hi), hi):
                try:
                    params = solve_constraints(ch, theta3)
                except InfeasibleError as exc:
                    assert "not certified" in str(exc)
                    refused += 1
                    continue
                solved += 1
                assert certify_scheme(ch, params) <= DEVIATION_BOUND
                # bit for bit the certificate as first written
                devs = _reference_pair_deviations(ch, params)
                assert _bits(_pair_deviations(ch, params)) == _bits(devs)
                worst = math.nan if any(map(math.isnan, devs)) else max(devs)
                assert _bits([certify_scheme(ch, params)]) == _bits([worst])
                # the certificate bounds every residual: the new gate only
                # tightens the old one
                assert max(constraint_residuals(ch, params)) <= 2.0 * DEVIATION_BOUND
                run_teleport(random_input(rng), ch, params)  # no CorrectionError
        assert solved > 1200 and refused > 50  # the sample reaches the near-face refusals

    def test_find_scheme_retries_at_window_bottom(self):
        # where the window midpoint is refused, find_scheme solves once more,
        # at the window's bottom lo; a midpoint that certifies keeps its
        # scheme. At lo the phasor triangle is flat (the largest weight is
        # the sum of the other two), where acos's error in d1 reaches the
        # phasor residual only at second order, so no scan channel is refused
        retried = 0
        for ch in _scan_channels(7, 10000):
            lo, hi = admissible_theta3(ch)
            try:
                want = solve_constraints(ch, 0.5 * (lo + hi))
            except InfeasibleError:
                want = solve_constraints(ch, lo)
                retried += 1
                A, B, C = ch.squares
                u20, u21, u22 = want.rotation[2]
                w = sorted((A * u20 * u20, B * u21 * u21, C * u22 * u22))
                assert w[2] == pytest.approx(w[0] + w[1], rel=1e-9, abs=0.0)
                assert certify_scheme(ch, want) <= 1e-15
            got = find_scheme(ch)
            assert _bits(got.theta + got.delta) == _bits(want.theta + want.delta)
        # 327 of the 4,352 capable channels are refused at the midpoint
        assert retried == 327

    def test_off_sphere_channel_refused(self):
        # a hand-built channel skips make_channel's normalization: the
        # certificate's probability check refuses its scheme in the solver
        ch = SchmidtChannel(a=tuple(1.04 * x for x in SYMMETRIC))
        with pytest.raises(ValueError, match="sum to 1"):
            solve_constraints(ch, 0.0)


def _sweep_points(density: int) -> list[tuple]:
    """The (ch, theta3, hints) points of the three sweeps at a density, in
    the order the sweep driver passes them to solve_points."""
    channels = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(explorer, "_sweep", channels.extend)
        for sweep in (explorer.sweep_case1, explorer.sweep_case2, explorer.sweep_degenerate):
            sweep(density)
    return [(ch, theta3, hints) for ch, _, pts in channels for theta3, hints in pts]


def _solve_each(points) -> list:
    """solve_constraints on each point, in order: its scheme, or the
    message of the InfeasibleError it raises."""
    out = []
    for ch, theta3, hints in points:
        try:
            out.append(solve_constraints(ch, theta3, **hints))
        except InfeasibleError as exc:
            out.append(str(exc))
    return out


_REFUSALS = {"outside the admissible": "window", "no feasible theta2": "theta2",
             "phasor closure": "phasor", "not certified": "certificate"}


def _scheme_floats(params: SchemeParams) -> list[float]:
    return [*params.theta, *params.delta, *params.rotation[0], *params.rotation[1],
            *params.rotation[2]]


def _assert_kernel_is_scalar(points, monkeypatch) -> dict:
    """solve_points against solve_constraints on each point: the same
    refusals, each scheme equal bit for bit in theta, delta and rotation and
    holding the point's own theta3 object, and the kernel's one call of its
    certificate seam (_point_deviations) giving _pair_deviations' bits at
    every scheme the scalar path certifies, in order. Returns the count of
    solved points and of each kind of refusal."""
    seam, kernel_devs = scheme._point_deviations, []

    def spy_seam(*weights):
        kernel_devs.append(seam(*weights))
        return kernel_devs[-1]

    certify, scalar_devs = scheme.certify_scheme, []

    def spy_certify(ch, params):
        scalar_devs.append(_pair_deviations(ch, params))
        return certify(ch, params)

    with monkeypatch.context() as m:
        m.setattr(scheme, "_point_deviations", spy_seam)
        got = solve_points(iter(points))
        m.setattr(scheme, "certify_scheme", spy_certify)
        want = _solve_each(points)
    counts = dict.fromkeys(["solved", *_REFUSALS.values()], 0)
    got_floats, want_floats = [], []
    for (_, theta3, _), g, w in zip(points, got, want, strict=True):
        if isinstance(w, str):
            assert g is None, w
            counts[next(kind for text, kind in _REFUSALS.items() if text in w)] += 1
        else:
            assert g.theta[2] is theta3 and g == w
            got_floats += _scheme_floats(g)
            want_floats += _scheme_floats(w)
            counts["solved"] += 1
    # bit for bit, a -0.0 and a NaN included
    assert np.array(got_floats).tobytes() == np.array(want_floats).tobytes()
    [devs] = kernel_devs
    assert np.array(devs).T.tobytes() == np.array(scalar_devs, dtype=float).reshape(-1, 3).tobytes()
    return counts


class TestSolvePoints:
    """solve_points is solve_constraints over a sweep's points in one array
    pass: the same schemes bit for bit, the same refusals and the same
    exceptions, with the same certificate deviations."""

    @pytest.mark.parametrize("density", [2, 3, 7, 25])
    def test_sweep_points(self, density, monkeypatch):
        points = _sweep_points(density)
        counts = _assert_kernel_is_scalar(points, monkeypatch)
        assert counts["solved"] == len(points)

    def test_scan_points(self, monkeypatch):
        # six theta3 per seed-7 scan channel: both window ends, the
        # midpoint, a quarter, and 1e-9 outside each end
        points = []
        for ch in _scan_channels(7, 10000):
            lo, hi = admissible_theta3(ch)
            for theta3 in (lo, 0.5 * (lo + hi), hi, lo + 0.25 * (hi - lo), lo - 1e-9, hi + 1e-9):
                points.append((ch, theta3, {}))
        counts = _assert_kernel_is_scalar(points, monkeypatch)
        assert len(points) == 26_112
        assert counts == {"solved": 16_853, "window": 7_540, "theta2": 0, "phasor": 0,
                          "certificate": 1_719}

    def test_theta3_squared_as_python_squares(self, monkeypatch):
        # sin(theta3) ** 2 (libm pow) is not sin(theta3) * sin(theta3) here,
        # and the scheme differs by it: a kernel that squares in numpy fails
        ch = SchmidtChannel(a=(0.31823363870651594, 0.6803858461365124, 0.6601533545871843))
        theta3 = 0.7048842094365152
        s3 = math.sin(theta3)
        assert s3 ** 2 != s3 * s3
        counts = _assert_kernel_is_scalar([(ch, theta3, {})], monkeypatch)
        assert counts["solved"] == 1

    def test_phasor_triangle_refusal(self, monkeypatch):
        # 9e-13 outside the u-window passes the window gate (TOL.entry) but
        # breaks the phasor triangle by more than its slack, at either end
        ch, _ = canonicalize(make_channel(0.6, 0.6, math.sqrt(0.28)))
        ulo, uhi = admissible_u_window(ch)
        lo, hi = admissible_theta3(ch)
        points = [(ch, theta3, {}) for theta3 in
                  (lo, math.asin(math.sqrt(uhi + 9e-13)), hi, math.asin(math.sqrt(ulo - 9e-13)))]
        counts = _assert_kernel_is_scalar(points, monkeypatch)
        assert counts == {"solved": 2, "window": 0, "theta2": 0, "phasor": 2, "certificate": 0}

    def test_theta2_window_refusal(self, monkeypatch):
        # no channel of nonnegative squares has an empty theta2-window on the
        # ridge (each lower end e/(A+e) has e <= q + r), so one is refused
        # here by hand, for both paths; the kernel takes the window once per
        # run of (channel, u) and refuses exactly that run's points
        ridge = make_channel(*DEGENERATE)
        slice_ch = explorer._case1_channels(4)
        ch1, _, pts1 = next(slice_ch)
        ch2, _, pts2 = next(slice_ch)
        points = ([(ridge, math.pi / 4, {"theta2_hint": h}) for h in (0.0, 0.3)]
                  + [(ch2, theta3, hints) for theta3, hints in pts2]
                  + [(ridge, math.pi / 4, {"theta2_hint": 0.7})])
        window, asked = scheme.free_theta2_window, []

        def refuse_case1(ch, u):
            asked.append(ch)
            if ch is ch2:
                raise InfeasibleError("no feasible theta2 at this theta3")
            return window(ch, u)

        monkeypatch.setattr(scheme, "free_theta2_window", refuse_case1)
        got = solve_points(points)
        assert asked == [ridge, ch2, ridge]
        counts = _assert_kernel_is_scalar(points, monkeypatch)
        assert counts == {"solved": 3, "window": 0, "theta2": len(pts2), "phasor": 0,
                          "certificate": 0}
        assert [params is None for params in got] == [False, False] + [True] * len(pts2) + [False]

    def test_u_window_once_per_channel_run(self, monkeypatch):
        points = _sweep_points(5)
        window, asked = scheme.admissible_u_window, []

        def spy(ch):
            asked.append(ch)
            return window(ch)

        monkeypatch.setattr(scheme, "admissible_u_window", spy)
        solve_points(points)
        runs = [ch for k, (ch, _, _) in enumerate(points) if k == 0 or ch is not points[k - 1][0]]
        assert asked == runs and len(runs) < len(points)

    def test_first_exception_escapes(self):
        # an exception solve_constraints raises escapes solve_points with its
        # type and message, from the first point that raises one
        ch, _ = canonicalize(make_channel(0.6, 0.6, math.sqrt(0.28)))
        off_sphere = SchmidtChannel(a=tuple(1.04 * x for x in SYMMETRIC))
        ok, nan = (ch, 0.3, {}), (ch, math.nan, {})
        cases = [([ok, (off_sphere, 0.0, {}), nan], ValueError, "probabilities do not sum to 1"),
                 ([ok, nan, (off_sphere, 0.0, {})], ValueError, "theta3 must be finite"),
                 ([(ch, 9.0, {}), (ch, math.inf, {})], ValueError, "theta3 must be finite"),
                 ([ok, (ch, 0.3, {"theta4_hint": 0.0})], TypeError, "theta4_hint"),
                 ([ok, (make_channel(R2, 0.5, 0.5), 0.3, {})], ValueError, "canonicalized"),
                 ([(make_channel(*DEGENERATE), math.pi / 4,
                    {"theta2_hint": 0.0, "theta1_hint": math.nan})],
                  ValueError, "angles must be finite"),
                 ([(make_channel(*DEGENERATE), math.pi / 4, {"theta2_hint": math.inf})],
                  ValueError, "math domain error")]
        for points, kind, text in cases:
            with pytest.raises(kind, match=text) as scalar:
                _solve_each(points)
            with pytest.raises(kind, match=text) as kernel:
                solve_points(points)
            assert str(kernel.value) == str(scalar.value)

    def test_unused_non_finite_hints_are_ignored(self):
        # a hint the constraints pin is never read, on either path
        ch, _ = canonicalize(make_channel(0.6, 0.6, math.sqrt(0.28)))
        points = [(ch, 0.3, {"theta1_hint": math.nan, "theta2_hint": math.inf}), (ch, 9.0, {})]
        got, want = solve_points(points), _solve_each(points)
        assert got[0] == want[0] and got[1] is None and isinstance(want[1], str)
        assert solve_points([]) == []


class TestAssemble:
    def test_identity_like_rows_are_products(self):
        params = SchemeParams(theta=(0.0, 0.0, 0.0), delta=(0.0, 0.0))
        dmat, basis = assemble_D12(params)
        for row in basis.vectors:
            assert qubit_qutrit_tangle(row) <= 1e-12

    def test_tangle_closed_forms_on_rows(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            ch = random_capable_channel(rng)
            lo, hi = admissible_theta3(ch)
            params = solve_constraints(ch, 0.5 * (lo + hi))
            _, basis = assemble_D12(params)
            closed = resource_report(ch, params).tangles
            raw = [qubit_qutrit_tangle(row) for row in basis.vectors]
            assert np.allclose(closed, raw, atol=1e-10)

    def test_labels(self):
        # every basis's rows are the six outcomes BRANCH_LABELS, in this order
        ch = make_channel(*SYMMETRIC)
        rep = run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, solve_constraints(ch, 0.0))
        assert rep.labels == BRANCH_LABELS == ("1+", "2+", "3+", "1-", "2-", "3-")

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            MeasurementBasis(vectors=np.ones((6, 6), dtype=complex))

    @pytest.mark.parametrize("vectors", [np.eye(6, dtype=complex)[0], np.eye(6, 4, dtype=complex)])
    def test_non_square_rejected(self, vectors):
        # a 1-D ket, and an isometry with orthonormal columns (V^dag V = I)
        # but kets that are not: each names its shape
        with pytest.raises(ValueError, match=re.escape(f"got shape {vectors.shape}")):
            MeasurementBasis(vectors)

    def test_two_qubit_basis_rejected(self):
        # a unitary basis of another shape: the 4x4 Bell-type two-qubit
        # measurement, alone or stacked, is refused before its unitarity check
        dmat = two_qubit_D12(np.array([[R2, R2], [R2, -R2]]), math.pi / 4, math.pi)
        for vectors in (dmat, np.stack([dmat] * 2)):
            with pytest.raises(ValueError, match=re.escape(f"(6, 6) qubit-qutrit kets, "
                                                           f"got shape {vectors.shape}")):
                MeasurementBasis(vectors)

    def test_basis_stack_rejected(self):
        # a basis is one (6, 6) matrix: a stack of unitary bases, or one
        # basis with a leading axis of 1, names its shape
        vectors = np.stack([special_case_basis("A", t).vectors for t in (0.1, 0.7, 1.2)])
        for stack in (vectors, vectors[:1]):
            with pytest.raises(ValueError, match=re.escape(f"(6, 6) qubit-qutrit kets, "
                                                           f"got shape {stack.shape}")):
                MeasurementBasis(stack)


# any scheme's angles: a unitary basis, whatever the channel
ANGLES = dict(theta=(0.1, 0.2, 0.3), delta=(0.4, 0.5))


class TestOneBasisPerScheme:
    """A scheme builds its basis once, on first read, and every assemble_D12
    call returns that basis and its read-only array."""

    def test_same_basis_object_read_only(self):
        params = SchemeParams(**ANGLES)
        dmat, basis = assemble_D12(params)
        again, basis_again = assemble_D12(params)
        assert basis_again is basis and again is dmat and basis.vectors is dmat
        assert dmat.shape == (6, 6) and not dmat.flags.writeable
        with pytest.raises(ValueError):
            dmat[0, 0] = 2.0

    def test_not_a_field(self):
        params = SchemeParams(**ANGLES)
        want = (repr(params), hash(params), params.to_json_dict())
        basis = params.basis
        assert (repr(params), hash(params), params.to_json_dict()) == want
        assert "basis" not in {f.name for f in dataclasses.fields(params)}
        copy = dataclasses.replace(params)
        assert copy == params and copy.basis is not basis
        assert copy.basis.vectors.tobytes() == basis.vectors.tobytes()

    def test_writable_array_copied(self):
        vectors = assemble_D12(SchemeParams(**ANGLES))[0].copy()
        want = vectors.tobytes()
        basis = MeasurementBasis(vectors)
        vectors[[0, 1]] = vectors[[1, 0]]
        assert basis.vectors is not vectors and basis.vectors.tobytes() == want
        assert not basis.vectors.flags.writeable

    def test_read_only_view_of_writable_array_copied(self):
        vectors = assemble_D12(SchemeParams(**ANGLES))[0].copy()
        view = vectors[:]
        view.setflags(write=False)
        basis = MeasurementBasis(view)
        vectors[0] *= -1.0
        assert basis.vectors is not view and basis.vectors.tobytes() != vectors.tobytes()

    def test_copies_rebuild_the_basis(self):
        basis = SchemeParams(**ANGLES).basis
        object.__setattr__(basis, "_memo", ("key", "components", "corrections"))
        for copied in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
            assert copied.vectors.tobytes() == basis.vectors.tobytes()
            assert not copied.vectors.flags.writeable and copied._memo is None

    def test_read_only_array_copied(self):
        vectors = np.eye(6, dtype=complex)
        vectors.setflags(write=False)
        kept = MeasurementBasis(vectors).vectors
        assert not np.shares_memory(kept, vectors) and not kept.flags.writeable

    def test_equality_is_identity(self):
        # two bases with equal kets are still two objects
        basis, twin = special_case_basis("A", 0.1), special_case_basis("A", 0.1)
        assert basis.vectors.tobytes() == twin.vectors.tobytes()
        assert basis == basis and not basis != basis and hash(basis) == hash(basis)
        assert basis != twin and not basis == twin
        assert len({basis, twin, basis}) == 2


class TestSpecialCaseBases:
    def test_variant_a_theta_zero_products(self):
        basis = special_case_basis("A", 0.0)
        e = np.zeros(6)
        e[0] = 1.0
        assert np.allclose(basis.vectors[0], e, atol=1e-12)  # |00>
        e = np.zeros(6)
        e[3] = 1.0
        assert np.allclose(basis.vectors[1], e, atol=1e-12)  # |10>

    def test_variant_a_balanced(self):
        c = s = R2
        expected = np.array([
            [c, 0, s * R2, 0, -s * R2, 0],
            [0, -s * R2, 0, c, 0, -s * R2],
            [0, 0.5, 0.5, 0, 0.5, -0.5],
            [s, 0, -c * R2, 0, c * R2, 0],
            [0, c * R2, 0, s, 0, c * R2],
            [0, 0.5, -0.5, 0, -0.5, -0.5],
        ], dtype=complex)
        basis = special_case_basis("A", math.pi / 4)
        assert np.max(np.abs(basis.vectors - expected)) <= 1e-12

    def test_variant_b_theta_zero(self):
        basis = special_case_basis("B", 0.0)
        e = np.zeros(6)
        e[0] = 1.0
        assert np.allclose(basis.vectors[0], e, atol=1e-12)
        # the 3+/3- rows are maximally entangled
        assert qubit_qutrit_tangle(basis.vectors[2]) == pytest.approx(1.0, abs=1e-10)
        assert qubit_qutrit_tangle(basis.vectors[5]) == pytest.approx(1.0, abs=1e-10)

    def test_variant_b_explicit_layout(self):
        # variant B written out entry by entry from U = [[c, s r2, s r2],
        # [0, r2, -r2], [-s, c r2, c r2]] and phases (0, pi), r2 = 1/sqrt(2)
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([
            [c, 0, s * R2, 0, s * R2, 0],
            [0, s * R2, 0, c, 0, -s * R2],
            [-s * R2, c / 2, c / 2, -s * R2, c / 2, -c / 2],
            [0, 0, -R2, 0, R2, 0],
            [0, R2, 0, 0, 0, R2],
            [s * R2, c / 2, -c / 2, -s * R2, -c / 2, -c / 2],
        ], dtype=complex)
        basis = special_case_basis("B", theta)
        assert np.max(np.abs(basis.vectors - expected)) <= 1e-15

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_orthonormal(self, variant):
        for theta in np.linspace(0.0, math.pi / 2, 7):
            basis = special_case_basis(variant, theta)
            gram = basis.vectors @ basis.vectors.conj().T
            assert np.max(np.abs(gram - np.eye(6))) <= 1e-10

    def test_variants_not_locally_equivalent(self):
        # the per-row tangle multisets of the two families happen to coincide,
        # so use a finer local-unitary invariant: the sorted multiset of
        # pairwise overlaps tr(rho_j rho_k) of the qutrit-side reduced states.
        # It differs for generic theta, so no u2 (x) u3 maps one family onto
        # the other (in any row order).
        theta = 0.7

        def overlap_multiset(variant):
            vecs = special_case_basis(variant, theta).vectors
            rhos = [reduced_density(v, (2, 3), keep=1) for v in vecs]
            vals = [float(np.trace(rhos[j] @ rhos[k]).real)
                    for j in range(6) for k in range(j + 1, 6)]
            return np.array(sorted(vals))

        diff = np.max(np.abs(overlap_multiset("A") - overlap_multiset("B")))
        assert diff > 1e-3

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            special_case_basis("A", 2.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            special_case_basis("C", 0.3)
