import cmath
import math
import re
import warnings

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEGENERATE, SYMMETRIC, random_capable_channel
from oracles import (
    TWO_QUBIT_LABELS,
    certify_stack,
    channel_ket,
    collapsed_closed_form,
    correction_kernel,
    input_vector,
    measure_branches,
    measurement_bases,
    run_from_arrays,
    special_case_basis,
    total_state,
    two_qubit_certificate,
    two_qubit_D12,
)
from teleportsim import explorer, scheme, teleport
from teleportsim.channel import (
    CapabilityError,
    SchmidtChannel,
    canonicalize,
    is_teleport_capable,
    make_channel,
)
from teleportsim.qlinalg import TOL
from teleportsim.resources import gour_e12, resource_report
from teleportsim.scheme import (
    DEVIATION_BOUND,
    InfeasibleError,
    MeasurementBasis,
    SchemeParams,
    admissible_theta3,
    assemble_D12,
    certify_scheme,
    constraint_residuals,
    find_scheme,
    rotation_rows,
    solve_constraints,
)
from teleportsim.teleport import (
    CorrectionError,
    InputQubit,
    _corrections,
    branch_components,
    branch_corrections,
    random_input,
    run_teleport,
    run_with_basis,
)

R2 = 1.0 / math.sqrt(2.0)


def _kernel_row(va, vb):
    """The correction kernel on one pair of components (an N=1 stack)."""
    return correction_kernel(np.array([[va, vb]]))[0][0]


def _solved(ch, rng=None, frac=0.5):
    lo, hi = admissible_theta3(ch)
    return solve_constraints(ch, lo + frac * (hi - lo))


class TestInputQubit:
    def test_normalized_required(self):
        with pytest.raises(ValueError):
            InputQubit(alpha=1.0, beta=1.0)

    def test_haar_sampling_normalized(self, rng):
        for _ in range(20):
            q = random_input(rng)
            assert abs(q.alpha) ** 2 + abs(q.beta) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_normalized_as_by_linalg_norm(self):
        # bit for bit the draw divided by np.linalg.norm's sum of squares taken
        # in plain floats, as seeded output depends on it; np.linalg.norm itself
        # runs ndarray.dot, whose last bit moves with the OpenBLAS core
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(500):
            q = random_input(rng)
            z = twin.normal(size=2) + 1j * twin.normal(size=2)
            (x0, x1), (y0, y1) = z.real.tolist(), z.imag.tolist()
            w = z / math.sqrt((x0 * x0 + x1 * x1) + (y0 * y0 + y1 * y1))
            assert (q.alpha, q.beta) == (complex(w[0]), complex(w[1]))
            assert type(q.alpha) is complex and type(q.beta) is complex
            assert np.max(np.abs(w - z / np.linalg.norm(z))) <= 4.0 * np.finfo(float).eps


class TestTotalState:
    def test_basis_input(self):
        ch = make_channel(*SYMMETRIC)
        psi = total_state(input_vector(InputQubit(alpha=1.0, beta=0.0)), ch.a)
        assert np.allclose(psi[:9], channel_ket(ch), atol=1e-15)
        assert np.allclose(psi[9:], 0.0, atol=1e-15)

    def test_product_channel(self):
        ch = make_channel(1.0, 0.0, 0.0)
        q = InputQubit(alpha=0.6, beta=0.8)
        psi = total_state(input_vector(q), ch.a)
        assert psi[0] == pytest.approx(0.6) and psi[9] == pytest.approx(0.8)
        assert np.count_nonzero(psi) == 2

    def test_generic_amplitudes(self):
        q = InputQubit(alpha=0.6, beta=0.8j)
        ch = make_channel(0.5, math.sqrt(0.5), 0.5)
        psi = total_state(input_vector(q), ch.a)
        for j, a in enumerate(ch.a):
            assert psi[4 * j] == pytest.approx(q.alpha * a, abs=1e-15)
            assert psi[9 + 4 * j] == pytest.approx(q.beta * a, abs=1e-15)


class TestMeasureBranches:
    def test_degenerate_balanced_probabilities(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", math.pi / 4)
        total = total_state(input_vector(random_input(rng)), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [1 / 8, 1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4], atol=1e-12)

    def test_degenerate_two_qubit_reduction(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", 0.0)
        total = total_state(input_vector(random_input(rng)), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4], atol=1e-12)

    def test_probability_equals_collapsed_norm(self, rng):
        ch = random_capable_channel(rng)
        _, basis = assemble_D12(_solved(ch))
        total = total_state(input_vector(random_input(rng)), ch.a)
        for p, c in zip(*measure_branches(total, basis)):
            assert p == pytest.approx(float(np.vdot(c, c).real), abs=1e-12)

    def test_pairing_and_normalization(self, rng):
        for _ in range(10):
            ch = random_capable_channel(rng)
            _, basis = assemble_D12(_solved(ch))
            total = total_state(input_vector(random_input(rng)), ch.a)
            p, _ = measure_branches(total, basis)
            assert sum(p) == pytest.approx(1.0, abs=1e-12)
            assert p[0] == pytest.approx(p[1], abs=1e-12)  # 1+ = 2+
            assert p[3] == pytest.approx(p[4], abs=1e-12)  # 1- = 2-
            assert p[2] == pytest.approx(p[5], abs=1e-12)  # 3+ = 3-

    def test_input_independence(self, rng):
        ch = random_capable_channel(rng)
        _, basis = assemble_D12(_solved(ch))
        reference = None
        for _ in range(50):
            total = total_state(input_vector(random_input(rng)), ch.a)
            p, _ = measure_branches(total, basis)
            if reference is None:
                reference = p
            assert np.max(np.abs(p - reference)) <= 1e-12


class TestCorrectionUnitary:
    def test_swap_like_branch(self):
        # alpha-component along |2>, beta-component along -|1>
        w = _kernel_row(np.array([0, 0, 0.5], dtype=complex),
                        np.array([0, -0.5, 0], dtype=complex))
        expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
        assert np.max(np.abs(w - expected)) <= 1e-12

    def test_identity_branch(self):
        w = _kernel_row(np.array([0.3, 0, 0], dtype=complex),
                        np.array([0, 0.3, 0], dtype=complex))
        assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_zero_branch_convention(self):
        w = _kernel_row(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))
        assert np.allclose(w, np.eye(3), atol=1e-15)

    def test_unequal_weights_rejected(self):
        with pytest.raises(CorrectionError, match="unequal"):
            _kernel_row(np.array([0.5, 0, 0], dtype=complex),
                        np.array([0, 0.3, 0], dtype=complex))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(CorrectionError, match="orthogonal"):
            _kernel_row(np.array([0.5, 0, 0], dtype=complex),
                        0.5 * np.array([math.sin(0.01), math.cos(0.01), 0], dtype=complex))

    def test_random_branches_unitary_and_correct(self, rng):
        for _ in range(20):
            ch = random_capable_channel(rng)
            params = _solved(ch)
            _, basis = assemble_D12(params)
            comps = branch_components(ch.a, basis)
            for va, vb in comps:
                w = _kernel_row(va, vb)
                assert np.max(np.abs(w.conj().T @ w - np.eye(3))) <= 1e-10
                for _ in range(5):
                    q = random_input(rng)
                    collapsed = q.alpha * va + q.beta * vb
                    out = w @ collapsed
                    target = np.array([q.alpha, q.beta, 0.0])
                    norm = np.linalg.norm(collapsed)
                    if norm < 1e-12:
                        continue
                    fid = abs(np.vdot(target, out)) ** 2 / norm**2
                    assert fid == pytest.approx(1.0, abs=1e-10)


# Bob's corrections from the one-row-at-a-time kernel of commit 5ace619, for
# a = sqrt(0.2, 0.45, 0.35) at the theta3 window midpoint; imaginary parts
# below 1e-16 are written as 0
_FROZEN_CORRECTIONS = np.array([
    [[0.7536176847411316, 0.0, 0.6573130040136254],
     [0.0, 1.0, 0.0],
     [-0.6573130040136254, 0.0, 0.7536176847411316]],
    [[0.0, 0.9999999999999999, 0.0],
     [-0.4825424136894525-0.5788716902262027j, 0.0, 0.6525447289626377-0.07903013316763349j],
     [0.6071137884877019-0.2519389471152207j, 0.0, 0.13567257616999714-0.7413046383437646j]],
    [[0.6104345773536427, 0.3664956285157539-0.43965864537653637j, -0.5474950744943661],
     [0.6104345773536426, -0.5723799176905917, 0.2974558916269979-0.4596420880772115j],
     [0.40644451951960847-0.2992358703341469j, 0.5157872858888468+0.2805814237693584j,
      0.573122097236141+0.268382839370301j]],
    [[0.09352671604924408, 0.0, 0.9956167703414021],
     [0.0, -1.0, 0.0],
     [-0.9956167703414021, 0.0, 0.09352671604924408]],
    [[0.0, 1.0000000000000002, 0.0],
     [0.05988528164961084+0.071840097833332j, 0.0, -0.9883943746526271+0.11970511075174044j],
     [-0.9195811822267393+0.38160608312698147j, 0.0, -0.016837463828200182+0.09199862187440627j]],
    [[0.6104345773536426, -0.36649562851575396+0.4396586453765364j, -0.5474950744943661],
     [-0.6104345773536427, -0.5723799176905916, -0.297455891626998+0.4596420880772116j],
     [-0.40644451951960847+0.29923587033414695j, 0.5157872858888469+0.2805814237693584j,
      -0.5731220972361409-0.2683828393703011j]],
])


class TestStackedCorrections:
    """branch_corrections is one stacked call of the correction kernel; each
    of its rows must equal the kernel's one-row call exactly."""

    @staticmethod
    def _assert_rows_match(coeffs, basis):
        comps = branch_components(coeffs, basis)
        ws = branch_corrections(coeffs, basis)
        assert ws.shape == (6, 3, 3)
        for j, (va, vb) in enumerate(comps):
            assert np.array_equal(_kernel_row(va, vb), ws[j])
        return ws

    def test_random_schemes(self, rng):
        for _ in range(20):
            ch = random_capable_channel(rng)
            _, basis = assemble_D12(_solved(ch, frac=rng.uniform()))
            self._assert_rows_match(ch.a, basis)

    def test_zero_branches_inside_stack(self):
        ch = make_channel(*DEGENERATE)
        params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=0.0)
        _, basis = assemble_D12(params)
        ws = self._assert_rows_match(ch.a, basis)
        # rows 1+ and 2+ carry no weight at theta1 = 0
        assert np.array_equal(ws[0], np.eye(3))
        assert np.array_equal(ws[1], np.eye(3))

    @pytest.mark.parametrize("row", [0, 2, 5])
    def test_one_bad_row_rejected(self, row):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        _, basis = assemble_D12(_solved(ch))
        comps = branch_components(ch.a, basis)
        short = comps.copy()
        short[row, 1] *= 0.5
        na = np.linalg.norm(comps[row, 0])
        with pytest.raises(CorrectionError, match=re.escape(f"unequal component weights: "
                                                            f"|phi_alpha| = {na:.6g}")):
            correction_kernel(short)
        comps[row, 1] = (comps[row, 0] + comps[row, 1]) / math.sqrt(2.0)
        with pytest.raises(CorrectionError, match="orthogonal"):
            correction_kernel(comps)

    def test_error_precedence_across_branches(self):
        # every branch is judged before the kernel raises: a weight fault in
        # any row beats an orthogonality fault, which beats a unitarity fault,
        # whichever rows they sit in
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        comps = branch_components(ch.a, assemble_D12(_solved(ch))[1])
        mixed = comps.copy()
        # row 0: equal weights but overlapping; row 4: unequal weights
        mixed[0, 1] = (mixed[0, 0] + mixed[0, 1]) / math.sqrt(2.0)
        mixed[4, 1] *= 0.5
        na, nb = np.linalg.norm(mixed[4], axis=-1)
        with pytest.raises(CorrectionError, match=re.escape(
                f"unequal component weights: |phi_alpha| = {na:.6g}, "
                f"|phi_beta| = {nb:.6g}")):
            correction_kernel(mixed)
        mixed = comps.copy()
        # row 1: equal weights 1e-12, overlap 7e-25, but the unit components
        # are 45 degrees apart, so only the unitarity check can refuse it
        mixed[1, 0], mixed[1, 1] = [1e-12, 0, 0], [R2 * 1e-12, R2 * 1e-12, 0]
        with pytest.raises(CorrectionError, match="correction not unitary"):
            correction_kernel(mixed)
        mixed[3, 1] = (mixed[3, 0] + mixed[3, 1]) / math.sqrt(2.0)
        overlap = abs(np.vdot(mixed[3, 0], mixed[3, 1]))
        with pytest.raises(CorrectionError, match=re.escape(
                f"components not orthogonal: |overlap| = {overlap:.3e}")):
            correction_kernel(mixed)

    def test_matches_frozen_per_row_corrections(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        _, basis = assemble_D12(_solved(ch))
        ws = branch_corrections(ch.a, basis)
        assert np.max(np.abs(ws - _FROZEN_CORRECTIONS)) <= 1e-15

    def test_kernel_stack_record_by_record(self, rng):
        # the kernel on the components of k bases at once (as the stack
        # oracle calls it): each basis's rows are, byte for byte, its own
        # branch_corrections
        channels = [random_capable_channel(rng) for _ in range(4)]
        channels.append(make_channel(*DEGENERATE))
        schemes = [_solved(ch, frac=rng.uniform()) for ch in channels[:4]]
        schemes.append(solve_constraints(channels[4], math.pi / 4, theta2_hint=0.0, theta1_hint=0.0))
        comps = np.concatenate([branch_components(ch.a, params.basis)
                                for ch, params in zip(channels, schemes)])
        ws = correction_kernel(comps)[0].reshape(5, 6, 3, 3)
        for ch, params, w in zip(channels, schemes, ws):
            assert w.tobytes() == branch_corrections(ch.a, MeasurementBasis(params.basis.vectors)).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3), (3, 3)])
    def test_coefficient_shape_refused(self, shape, rng):
        basis = assemble_D12(_solved(random_capable_channel(rng)))[1]
        with pytest.raises(ValueError, match=re.escape(f"expected 3 channel coefficients, "
                                                       f"got shape {shape}")):
            branch_corrections(np.full(shape, 1.0 / math.sqrt(3.0)), basis)


def _reference_corrections(comps):
    """Bob's corrections one row at a time, from the documented recipe."""
    ws = []
    for va, vb in comps:
        na, nb = (np.sqrt(np.sum(v.real ** 2 + v.imag ** 2)) for v in (va, vb))
        if max(na, nb) <= TOL.zero_branch:
            ws.append(np.eye(len(va), dtype=complex))
            continue
        r0, r1 = (va / na).conj(), (vb / nb).conj()
        rows = [r0, r1, np.cross(r0, r1).conj()] if len(va) == 3 else [r0, r1]
        k = np.flatnonzero(np.abs(r0) > TOL.entry)[0]
        # np.abs on an array, not the scalar abs(): numpy's complex array abs
        # may differ from the scalar one in the last ulp
        first = r0[k:k + 1]
        ws.append(np.array(rows) * (np.abs(first) / first))
    return np.array(ws)


def _kernel_cases(kind, rng):
    """(coeffs, basis) pairs for one family of channels."""
    if kind == "random":
        for _ in range(30):
            ch = random_capable_channel(rng)
            yield ch.a, assemble_D12(_solved(ch, frac=rng.uniform()))[1]
    elif kind == "a0_zero":
        for t1 in np.linspace(0.0, math.pi / 2, 7):
            yield DEGENERATE, special_case_basis("A", float(t1))
    elif kind == "face":
        for c in (0.05, 0.2, 0.35, 0.45):
            ch, _ = canonicalize(make_channel(math.sqrt(0.5 - c), math.sqrt(0.5), math.sqrt(c)))
            for frac in (0.0, 0.5, 1.0):
                yield ch.a, assemble_D12(_solved(ch, frac=frac))[1]
    elif kind == "symmetric":
        ch = make_channel(*SYMMETRIC)
        yield ch.a, assemble_D12(_solved(ch))[1]


class TestKernelBitIdentity:
    """The joint-state oracle's total_state must match its np.kron definition
    exactly, not just to a tolerance. The correction kernel builds each branch
    in Python complex arithmetic and the one-row recipe in numpy's, which
    rounds differently, so the kernel matches the recipe to 1e-15, the bound
    of test_matches_frozen_per_row_corrections."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric"])
    def test_matches_per_row_recipe_and_kron(self, kind, rng):
        for coeffs, basis in _kernel_cases(kind, rng):
            ws = branch_corrections(coeffs, basis)
            ref = _reference_corrections(branch_components(coeffs, basis))
            assert ws.shape == ref.shape and np.max(np.abs(ws - ref)) <= 1e-15
            q = random_input(rng)
            chan = np.diag(np.asarray(coeffs, dtype=complex)).reshape(-1)
            vector = input_vector(q)
            assert np.array_equal(total_state(vector, coeffs), np.kron(vector, chan))

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric", "angles"])
    def test_bases_match_nested_numpy_layout(self, kind, rng):
        schemes = list(_scheme_cases(kind, rng))
        frozen = [_nested_d12(params) for params in schemes]
        for params, want in zip(schemes, frozen):
            assert assemble_D12(params)[0].tobytes() == want.tobytes()
        for k in {1, min(3, len(schemes)), len(schemes)}:
            got = measurement_bases(schemes[:k])
            assert got.shape == (k, 6, 6) and got.tobytes() == np.array(frozen[:k]).tobytes()


def _nested_d12(params):
    """assemble_D12's layout as first written, frozen: nested rows, a fresh
    rotation, and phases from np.exp on an array (cmath.exp gives the same
    bits, on 200,000 values tried)."""
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = rotation_rows(*params.theta)
    e1, e2 = np.exp(1j * np.asarray(params.delta)).tolist()
    cz, sz = math.cos(math.pi / 4), math.sin(math.pi / 4)
    return np.array([
        [u00, 0, u02, 0, u01, 0],
        [0, u01 * e1, 0, u00, 0, u02 * e2],
        [u20 * cz, u21 * e1 * sz, u22 * cz, u20 * sz, u21 * cz, u22 * e2 * sz],
        [u10, 0, u12, 0, u11, 0],
        [0, u11 * e1, 0, u10, 0, u12 * e2],
        [-u20 * sz, u21 * e1 * cz, -u22 * sz, u20 * cz, -u21 * sz, u22 * e2 * cz],
    ], dtype=complex)


def _scheme_cases(kind, rng):
    """Solved schemes for one family of channels, or ("angles") arbitrary
    angles of either sign."""
    if kind == "random":
        for _ in range(30):
            yield _solved(random_capable_channel(rng), frac=rng.uniform())
    elif kind == "a0_zero":
        for t in np.linspace(0.0, math.pi / 2, 7).tolist():
            yield SchemeParams(theta=(t, 0.0, math.pi / 4), delta=(0.0, math.pi))
            yield SchemeParams(theta=(0.0, t, math.pi / 4), delta=(0.0, math.pi))
    elif kind == "face":
        for c in (0.0, 0.05, 0.2, 0.35, 0.45, 0.5):
            ch, _ = canonicalize(make_channel(math.sqrt(0.5 - c), math.sqrt(0.5), math.sqrt(c)))
            for frac in (0.0, 0.5, 1.0):
                yield _solved(ch, frac=frac)
    elif kind == "symmetric":
        yield _solved(make_channel(*SYMMETRIC))
    elif kind == "angles":
        for _ in range(30):
            angles = rng.uniform(-math.pi, math.pi, size=5).tolist()
            yield SchemeParams(theta=tuple(angles[:3]), delta=tuple(angles[3:]))


def _edge_channel(top, split):
    """Canonical channel with max a_j^2 = top; split shares the rest between a0 and a2
    (keep split away from 0 and 1 when top < 1/2, so that neither share exceeds top)."""
    rest = 1.0 - top
    ch, _ = canonicalize(make_channel(math.sqrt(rest * split), math.sqrt(top),
                                      math.sqrt(rest * (1.0 - split))))
    return ch


class TestEdgeChannels:
    """Documented results at the edges of the capable simplex."""

    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_just_below_half_certifies(self, split, frac, seed):
        ch = _edge_channel(0.5 - 1e-12, split)
        q = random_input(np.random.default_rng(seed))
        # find_scheme's window midpoint always solves and certifies
        assert min(run_teleport(q, ch, find_scheme(ch)).fidelities) >= 1.0 - 1e-10
        # at the top of the window (theta3 -> pi/2) the solver or the correction
        # check may refuse (see CHANGES.md); a scheme that gets through certifies
        try:
            rep = run_teleport(q, ch, _solved(ch, frac=frac))
        except (InfeasibleError, CorrectionError):
            return
        assert min(rep.fidelities) >= 1.0 - 1e-10

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_just_above_half_has_no_scheme(self, split):
        ch = _edge_channel(0.5 + 1e-12, split)
        with pytest.raises(InfeasibleError):
            find_scheme(ch)
        assert not is_teleport_capable(ch)
        params = find_scheme(make_channel(*SYMMETRIC))
        with pytest.raises(CapabilityError):
            run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, params)

    def test_above_gate_slack_refused(self):
        ch = _edge_channel(0.5 + 2e-12, 0.5)
        with pytest.raises(InfeasibleError, match="no admissible theta3"):
            find_scheme(ch)
        with pytest.raises(CapabilityError):
            run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, find_scheme(make_channel(*SYMMETRIC)))

    @pytest.mark.parametrize("excess", [0.0, math.ulp(0.5), 1e-14,
                                        2e-14, 5e-14, 1e-13, 5e-13, 1e-12, 2e-12])
    @pytest.mark.parametrize("split", [0.1, 0.5, 0.9])
    def test_gate_and_window_agree(self, excess, split):
        # one predicate: the capability gate, the theta3 window, the solver,
        # the per-input certificate and Gour's comparison accept or refuse
        # together, at max a_j^2 = 1/2 + excess (TOL.window = 1e-14)
        ch = _edge_channel(0.5 + excess, split)
        q = InputQubit(alpha=R2, beta=R2)
        if excess <= TOL.window:
            assert is_teleport_capable(ch)
            lo, hi = scheme.admissible_u_window(ch)
            assert 0.0 <= lo <= hi <= 1.0
            assert min(run_teleport(q, ch, find_scheme(ch)).fidelities) >= 1.0 - 1e-10
            assert 0.0 < gour_e12(ch) <= 1.0
        else:
            assert not is_teleport_capable(ch)
            with pytest.raises(InfeasibleError, match="no admissible theta3"):
                scheme.admissible_u_window(ch)
            with pytest.raises(InfeasibleError, match="no admissible theta3"):
                find_scheme(ch)
            with pytest.raises(CapabilityError):
                run_teleport(q, ch, find_scheme(make_channel(*SYMMETRIC)))
            with pytest.raises(ValueError, match="not teleport-capable"):
                gour_e12(ch)

    def test_every_admitted_channel_near_the_face_has_a_window(self):
        # seeded scan on both sides of the face max a_j^2 = 1/2: excesses
        # uniform in [-1e-13, 2e-14] and log-spaced down to 1e-16 on each side,
        # splits of the rest uniform and log-spaced down to 1e-16 at both ends
        rng = np.random.default_rng(30)
        n = 20_000
        mags = 10.0 ** rng.uniform(-16.0, -13.0, n)
        excess = np.select([np.arange(n) % 3 == 0, np.arange(n) % 3 == 1],
                           [rng.uniform(-1e-13, 2e-14, n), -mags], np.minimum(mags, 2e-14))
        ends = 10.0 ** rng.uniform(-16.0, 0.0, n)
        kind = rng.integers(0, 3, n)
        split = np.select([kind == 0, kind == 1], [rng.uniform(0.0, 1.0, n), ends], 1.0 - ends)
        admitted = 0
        for e, s in zip(excess.tolist(), split.tolist()):
            ch = _edge_channel(0.5 + e, s)
            if is_teleport_capable(ch):
                admitted += 1
                lo, hi = scheme.admissible_u_window(ch)  # raises if the half-lines are empty
                assert 0.0 <= lo <= hi <= 1.0
        assert admitted > n // 2

    @pytest.mark.parametrize("a1", [R2, math.sqrt(0.5)], ids=["a1=1/sqrt2", "a1=sqrt0.5"])
    @pytest.mark.parametrize("a0sq", [5e-15, 5e-14, 5e-13, 5e-12, 5e-11,
                                      5e-10, 5e-9, 5e-8, 5e-7, 5e-6])
    def test_face_corner_fails_closed(self, a0sq, a1):
        # a1^2 = 1/2, a2^2 = 1/2 - a0^2, with a1 rounded either way:
        # math.sqrt(0.5) is one ulp above 1/sqrt(2) and squares to one ulp
        # above 1/2, outside the capable set but within TOL.window. There the
        # solver refuses every window midpoint up to a0^2 = 5e-7; at 1/sqrt(2)
        # it refuses the midpoints of 5e-14 and 5e-12 (CHANGES.md), each
        # naming branches 3+/3-. find_scheme then solves once more, at the
        # window's bottom: that scheme certifies for every refused corner but
        # sqrt(0.5)'s 5e-9, for which it raises the midpoint's refusal. Every
        # scheme it returns runs at fidelity 1, with no CorrectionError
        ch, _ = canonicalize(make_channel(math.sqrt(a0sq), a1, math.sqrt(0.5 - a0sq)))
        lo, hi = admissible_theta3(ch)
        refused = a0sq <= 5e-7 if a1 == math.sqrt(0.5) else a0sq in (5e-14, 5e-12)
        named = "not certified: branches 3\\+/3- deviate"
        if refused:
            with pytest.raises(InfeasibleError, match=named) as midpoint:
                solve_constraints(ch, 0.5 * (lo + hi))
        if refused and a1 == math.sqrt(0.5) and a0sq == 5e-9:
            with pytest.raises(InfeasibleError, match=named) as exc:
                find_scheme(ch)
            assert str(exc.value) == str(midpoint.value) and exc.value.interval == (lo, hi)
            return
        params = find_scheme(ch)
        assert params.theta[2] == (lo if refused else 0.5 * (lo + hi))
        for seed in range(3):
            rep = run_teleport(random_input(np.random.default_rng(seed)), ch, params)
            assert min(rep.fidelities) >= 1.0 - 1e-10


class TestRunTeleport:
    def test_basis_state_input(self, rng):
        ch = random_capable_channel(rng)
        rep = run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, _solved(ch))
        assert min(rep.fidelities) >= 1.0 - 1e-10
        assert rep.mean_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_channel_many_inputs(self, rng):
        ch = make_channel(*SYMMETRIC)
        assert admissible_theta3(ch) == (0.0, 0.0)  # the theta3 window shrinks to a point
        params = _solved(ch)
        for _ in range(100):
            rep = run_teleport(random_input(rng), ch, params)
            assert min(rep.fidelities) >= 1.0 - 1e-10

    def test_incapable_channel_refused(self, rng):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))
        params = _solved(make_channel(*SYMMETRIC))
        with pytest.raises(CapabilityError):
            run_teleport(random_input(rng), ch, params)

    def test_degenerate_family_unit_fidelity(self, rng):
        ch = make_channel(*DEGENERATE)
        for t1 in np.linspace(0.0, math.pi / 2, 5):
            basis = special_case_basis("A", t1)
            q = random_input(rng)
            rep = run_with_basis(q, ch.a, basis)
            assert min(rep.fidelities) >= 1.0 - 1e-10
            # the same ridge point through the hinted solver
            params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=float(t1))
            assert min(run_teleport(q, ch, params).fidelities) >= 1.0 - 1e-10

    def test_report_serialization(self, rng):
        ch = make_channel(*SYMMETRIC)
        rep = run_teleport(random_input(rng), ch, _solved(ch))
        d = rep.to_json_dict()
        assert len(d["branches"]) == 6
        assert set(d["branches"][0]) == {"label", "probability", "fidelity"}


class TestArrayCertificate:
    """run_with_basis certifies all branches in one array pass; each entry must
    match the per-branch fidelity built from the closed-form oracle."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_fidelities_match_per_branch_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        q = random_input(rng)
        rep = run_with_basis(q, ch.a, basis)
        target = np.array([q.alpha, q.beta, 0.0])
        ws = branch_corrections(ch.a, basis)
        for j, c in enumerate(collapsed_closed_form(q, ch, params)):
            p = float(np.vdot(c, c).real)
            oracle = 1.0 if p <= TOL.zero_branch else abs(np.vdot(target, ws[j] @ c)) ** 2 / p
            assert rep.fidelities[j] == pytest.approx(oracle, abs=1e-12)

    def test_zero_branches_exactly_one(self, rng):
        ch = make_channel(*DEGENERATE)
        rep = run_with_basis(random_input(rng), ch.a, special_case_basis("A", 0.0))
        assert rep.labels[:2] == ("1+", "2+")
        for j in (0, 1):
            assert rep.probabilities[j] <= TOL.zero_branch
            assert rep.fidelities[j] == 1.0
        assert min(rep.fidelities) >= 1.0 - 1e-10


def _scheme_groups(kind, rng):
    """(channel, schemes) groups for one family of channels; each group
    shares its channel, as the schemes of one swept channel do."""
    if kind == "random":
        for _ in range(10):
            ch = random_capable_channel(rng)
            yield ch, [_solved(ch, frac=f) for f in rng.uniform(size=7)]
    elif kind == "a0_zero":  # special_case_basis("A", t)'s schemes
        yield make_channel(*DEGENERATE), [
            SchemeParams(theta=(t, 0.0, math.pi / 4), delta=(0.0, math.pi))
            for t in np.linspace(0, math.pi / 2, 9).tolist()]
    elif kind == "face":
        for c in (0.05, 0.2, 0.35, 0.45):
            ch, _ = canonicalize(make_channel(math.sqrt(0.5 - c), math.sqrt(0.5), math.sqrt(c)))
            yield ch, [_solved(ch, frac=f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    elif kind == "symmetric":
        yield make_channel(*SYMMETRIC), [_solved(make_channel(*SYMMETRIC))] * 6


def _record_cases(kind, rng):
    """(coeffs, bases) groups: _scheme_groups' schemes as their bases."""
    for ch, schemes in _scheme_groups(kind, rng):
        yield ch.a, [assemble_D12(params)[1] for params in schemes]


def _frozen_certify(vector, coeffs, basis):
    """The per-input certificate's first recipe, frozen: the joint state and
    its projection (tests/oracles.py), corrected by branch_corrections, the
    fidelity |<input|W collapsed>|^2 / P (1 on a zero branch). The reference
    for run_with_basis's probabilities and fidelities."""
    probs, collapsed = measure_branches(total_state(vector, coeffs), basis)
    out = (branch_corrections(coeffs, basis) @ collapsed[..., None])[..., 0]
    zero = probs <= TOL.zero_branch
    overlap = np.vecdot(vector[None, :], out[..., :2])
    return probs, np.where(zero, 1.0, np.abs(overlap) ** 2 / np.where(zero, 1.0, probs))


def _unchecked_input(alpha, beta):
    """An InputQubit built past its own norm check, to reach run_with_basis's."""
    q = object.__new__(InputQubit)
    object.__setattr__(q, "alpha", alpha)
    object.__setattr__(q, "beta", beta)
    return q


class TestOneInputPath:
    """run_with_basis certifies one input on one basis from the input-free
    split; its outputs match the joint-state recipe to 1e-14, about ten times
    the largest gap seen between the two."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric"])
    def test_matches_frozen_certify(self, kind, rng):
        for coeffs, bases in _record_cases(kind, rng):
            for basis in bases:
                q = random_input(rng)
                rep = run_with_basis(q, coeffs, basis)
                probs, fids = _frozen_certify(input_vector(q), coeffs, basis)
                assert np.max(np.abs(np.array(rep.probabilities) - probs)) <= 1e-14
                assert np.max(np.abs(np.array(rep.fidelities) - fids)) <= 1e-14

    def test_nan_fails_each_single_check(self, monkeypatch):
        basis = special_case_basis("A", math.pi / 4)
        with pytest.raises(ValueError, match="not normalized"):
            run_with_basis(_unchecked_input(math.nan, 0.0), DEGENERATE, basis)
        # the corrections are built and kept first, so a NaN put into the
        # kept components afterwards reaches only the projection's sum check
        branch_corrections(DEGENERATE, basis)
        key, comps, ws, zero, _, bob = basis._memo
        comps = comps.copy()
        comps[0, 0, 1] = math.nan
        object.__setattr__(basis, "_memo", (key, comps, ws, zero, comps.tolist(), bob))
        with pytest.raises(ValueError, match="sum to 1"):
            run_with_basis(InputQubit(alpha=1.0, beta=0.0), DEGENERATE, basis)

    def test_unnormalized_input_refused(self, rng):
        basis = special_case_basis("A", math.pi / 4)
        q = random_input(rng)
        with pytest.raises(ValueError, match="not normalized"):
            run_with_basis(_unchecked_input(1.001 * q.alpha, 1.001 * q.beta), DEGENERATE, basis)
        # the channel's norm counts too: the corrections take any scale
        with pytest.raises(ValueError, match="not normalized"):
            run_with_basis(q, 1.001 * np.array(DEGENERATE), basis)

    def test_joint_norm_entry_tolerance(self, rng):
        # the joint norm passes within TOL.entry of 1 and fails past it
        basis = special_case_basis("A", math.pi / 4)
        q = random_input(rng)
        run_with_basis(q, math.sqrt(1.0 + 0.5 * TOL.entry) * np.array(DEGENERATE), basis)
        with pytest.raises(ValueError, match="not normalized"):
            run_with_basis(q, math.sqrt(1.0 + 2.0 * TOL.entry) * np.array(DEGENERATE), basis)

    def test_two_coefficients_refused(self, rng):
        # a two-qubit channel on a qubit-qutrit basis: branch_components' shape
        # error, raised before any state is built
        basis = assemble_D12(_solved(random_capable_channel(rng)))[1]
        with pytest.raises(ValueError, match=re.escape(
                "expected 3 channel coefficients, got shape (2,)")):
            run_with_basis(random_input(rng), (R2, R2), basis)

    @pytest.mark.parametrize("size", [8, 12, 36])
    def test_joint_state_of_wrong_size_refused(self, size):
        total = np.zeros(size, dtype=complex)
        total[0] = 1.0
        with pytest.raises(ValueError, match=f"18 amplitudes, got {size}"):
            measure_branches(total, special_case_basis("A", math.pi / 4))


def _spy(monkeypatch, module, name):
    """Count the calls of module.name; returns the growing list of calls."""
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestCorrectionMemo:
    """A basis keeps the components and corrections of its last channel: the
    kernel runs once per basis and channel, run_with_basis projects on the
    kept components, and any other coefficients build afresh."""

    def test_runs_read_the_kept_components(self, monkeypatch, rng):
        ch = random_capable_channel(rng)
        basis = assemble_D12(_solved(ch))[1]
        ws = branch_corrections(ch.a, basis)
        key, comps, kept = basis._memo[:3]
        assert kept is ws and not comps.flags.writeable
        split = _spy(monkeypatch, teleport, "branch_components")
        q = random_input(rng)
        want = _frozen_certify(input_vector(q), ch.a, basis)
        rep = run_with_basis(q, ch.a, basis)
        assert split == [] and basis._memo[1] is comps
        assert np.max(np.abs(np.array(rep.fidelities) - want[1])) <= 1e-14
        # the public split is still a fresh, writable array with the kept bits
        fresh = branch_components(ch.a, basis)
        assert fresh is not comps and fresh.flags.writeable
        assert fresh.tobytes() == comps.tobytes()

    def test_kept_rows_are_the_kept_arrays(self):
        # the memo's Python rows are its arrays' values, and a run that reads
        # them gives the bits of one that reads the arrays; the a0 = 0 scheme
        # at theta1 = 0 has zero branches (rows 1+ and 2+)
        rng = np.random.default_rng(3203)
        cases = [(ch.a, _solved(ch, frac=rng.uniform()))
                 for ch in (random_capable_channel(rng) for _ in range(20))]
        cases.append((DEGENERATE, solve_constraints(make_channel(*DEGENERATE), math.pi / 4,
                                                    theta2_hint=0.0, theta1_hint=0.0)))
        for coeffs, params in cases:
            basis = MeasurementBasis(params.basis.vectors)
            ws = branch_corrections(coeffs, basis)
            _, comps, _, zero, rows, bob = basis._memo
            assert rows == comps.tolist()
            assert [[row[:3], row[3:]] for row in bob] == ws[:, :2].tolist()
            for _ in range(5):
                q = random_input(rng)
                rep = run_with_basis(q, coeffs, basis)
                probs, fids, mean = run_from_arrays(q, coeffs, basis)
                assert [p.hex() for p in rep.probabilities] == [p.hex() for p in probs]
                assert [f.hex() for f in rep.fidelities] == [f.hex() for f in fids]
                assert rep.mean_fidelity.hex() == mean.hex()
        assert sum(zero) == 2

    def test_one_build_for_many_runs(self, monkeypatch, rng):
        ch = random_capable_channel(rng)
        params = _solved(ch)
        kernel = _spy(monkeypatch, teleport, "_corrections")
        unitary = _spy(monkeypatch, scheme, "check_unitary")
        branch_corrections(ch.a, assemble_D12(params)[1])
        reps = [run_teleport(random_input(rng), ch, params) for _ in range(2)]
        assert len(kernel) == 1 and len(unitary) == 1
        assert min(min(rep.fidelities) for rep in reps) >= 1.0 - 1e-10

    def test_hit_returns_the_same_read_only_array(self, monkeypatch, rng):
        ch = random_capable_channel(rng)
        basis = assemble_D12(_solved(ch))[1]
        ws = branch_corrections(ch.a, basis)
        comps = _spy(monkeypatch, teleport, "branch_components")
        assert branch_corrections(np.array(ch.a), basis) is ws  # same bits, another container
        assert basis._memo[2] is ws
        assert comps == []
        assert not ws.flags.writeable
        with pytest.raises(ValueError):
            ws[0, 0, 0] = 0.0

    def test_other_channel_never_gets_the_stored_answer(self, monkeypatch, rng):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        basis = assemble_D12(_solved(ch))[1]
        branch_corrections(ch.a, basis)
        kernel = _spy(monkeypatch, teleport, "_corrections")
        with pytest.raises(CorrectionError):
            branch_corrections(make_channel(*SYMMETRIC).a, basis)
        assert len(kernel) == 1
        fresh, _ = correction_kernel(branch_components(ch.a, basis))
        assert branch_corrections(ch.a, basis).tobytes() == fresh.tobytes()

    def test_key_is_the_exact_bits(self, monkeypatch):
        basis = special_case_basis("A", math.pi / 4)
        branch_corrections(DEGENERATE, basis)
        kernel = _spy(monkeypatch, teleport, "_corrections")
        branch_corrections((-0.0, R2, R2), basis)  # -0.0 == 0.0, but not bit for bit
        branch_corrections((-0.0, R2, R2), basis)
        assert len(kernel) == 1
        with pytest.raises(ValueError, match="expected 3"):  # same bytes, another shape
            branch_corrections(np.array([(-0.0, R2, R2)]), basis)

    def test_caller_writes_reach_neither_basis_nor_certificate(self, rng):
        ch = random_capable_channel(rng)
        vectors = assemble_D12(_solved(ch))[0].copy()
        basis = MeasurementBasis(vectors)
        q = random_input(rng)
        want = run_with_basis(q, ch.a, basis)
        vectors[:] = np.eye(6)  # still unitary, but corrects no branch of this channel
        assert not np.array_equal(basis.vectors, vectors)
        got = run_with_basis(q, ch.a, basis)
        assert np.array(got.probabilities).tobytes() == np.array(want.probabilities).tobytes()
        assert np.array(got.fidelities).tobytes() == np.array(want.fidelities).tobytes()
        with pytest.raises(CorrectionError):
            run_with_basis(q, ch.a, MeasurementBasis(vectors))


# |certify_scheme - certify_stack| on one record, fixed before the two were
# first compared; the largest gap seen on the density-200 sweeps and a
# 2,172-scheme simplex sample was 8.2e-16
ORACLE_TOL = 2e-15


def _assert_matches_oracle(records):
    """certify_scheme on each (channel, scheme) record against the stack
    oracle, within ORACLE_TOL and with the same gate decision; returns the
    deviations."""
    got = np.array([certify_scheme(ch, params) for ch, params in records])
    ref = certify_stack([ch for ch, _ in records], measurement_bases([p for _, p in records]))
    assert np.max(np.abs(got - ref)) <= ORACLE_TOL
    assert ((got <= DEVIATION_BOUND) == (ref <= DEVIATION_BOUND)).all()
    return got


def _simplex_records(n, rng):
    """A seeded whole-simplex sample: n Dirichlet(1,1,1) capable channels,
    canonicalized, each solved at both ends of its theta3 window and at one
    random theta3 inside it."""
    records = []
    for _ in range(n):
        ch = random_capable_channel(rng)
        for frac in (0.0, 1.0, rng.uniform()):
            records.append((ch, _solved(ch, frac=frac)))
    return records


class TestSchemeCertificate:
    """certify_scheme is the kernel-built stack certificate (oracles.certify_stack)
    in closed form: the same deviation to ORACLE_TOL, the same gate decision,
    and a record within DEVIATION_BOUND teleports every input."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric"])
    def test_matches_oracle_and_bounds_every_run(self, kind, rng):
        for ch, schemes in _scheme_groups(kind, rng):
            devs = _assert_matches_oracle([(ch, params) for params in schemes])
            assert devs.max() <= DEVIATION_BOUND
            for params, dev in zip(schemes, devs.tolist()):
                for _ in range(5):
                    rep = run_teleport(random_input(rng), ch, params)
                    assert 1.0 - min(rep.fidelities) <= 4.0 * math.sqrt(6.0) * (dev + ORACLE_TOL)

    @pytest.mark.parametrize("sweep, count", [(explorer.sweep_case1, 118),
                                              (explorer.sweep_case2, 125),
                                              (explorer.sweep_degenerate, 25)])
    def test_every_sweep_record_matches_oracle(self, sweep, count, monkeypatch):
        # every scheme the sweep's solve_points call certifies at density 25
        records, solve = [], explorer.solve_points

        def spy(points):
            points = list(points)
            schemes = solve(points)
            records.extend((ch, params) for (ch, _, _), params in zip(points, schemes)
                           if params is not None)
            return schemes

        monkeypatch.setattr(explorer, "solve_points", spy)
        assert sweep(25).skipped == 0
        assert len(records) == count
        assert _assert_matches_oracle(records).max() <= DEVIATION_BOUND

    def test_simplex_sample_matches_oracle(self):
        records = _simplex_records(200, np.random.default_rng(27))
        assert _assert_matches_oracle(records).max() <= DEVIATION_BOUND

    @pytest.mark.parametrize("kind", ["random", "face", "symmetric"])
    def test_matches_branch_loop(self, kind, rng):
        # the deviation as first written, one branch at a time from the
        # kernel's corrections
        cases = [(ch, [_solved(ch, frac=f) for f in (0.0, *rng.uniform(size=3), 1.0)])
                 for ch in (_stack_channel(kind, rng) for _ in range(5))]
        for ch, schemes in cases:
            got = [certify_scheme(ch, params) for params in schemes]
            np.testing.assert_allclose(got, _stack_deviations_loop(ch, schemes),
                                       rtol=0.0, atol=ORACLE_TOL)

    def test_pair_deviations_are_the_branch_pairs(self, rng):
        # off a solution by about 1e-11 in each angle, the pairs deviate
        # apart: each of _pair_deviations is the deviation of both branches
        # of its pair (1+/2+, 1-/2-, 3+/3-) in the branch-by-branch
        # reference, and certify_scheme is their max, bit for bit
        for _ in range(20):
            ch = random_capable_channel(rng)
            base = _solved(ch, frac=rng.uniform())
            jitter = rng.normal(scale=1e-11, size=5).tolist()
            params = SchemeParams(theta=tuple(t + e for t, e in zip(base.theta, jitter)),
                                  delta=tuple(d + e for d, e in zip(base.delta, jitter[3:])))
            d0, d1, d2 = scheme._pair_deviations(ch, params)
            assert certify_scheme(ch, params) == max(d0, d1, d2)
            assert min(abs(d0 - d1), abs(d1 - d2), abs(d0 - d2)) > 100 * ORACLE_TOL
            np.testing.assert_allclose(_branch_deviations(ch, params),
                                       [d0, d0, d2, d1, d1, d2], rtol=0.0, atol=ORACLE_TOL)

    def test_refusal_names_the_worst_pair(self, rng):
        # the solver's refusal names the pair with the largest deviation, a
        # NaN counting as the largest
        ch = random_capable_channel(rng)
        lo, hi = admissible_theta3(ch)
        for devs, named in (((1e-9, 3e-9, 2e-9), "branches 1-/2- deviate by 3e-09"),
                            ((2e-9, 1e-9, math.nan), "branches 3+/3- deviate by nan"),
                            ((math.nan, 5.0, 0.0), "branches 1+/2+ deviate by nan")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scheme, "_pair_deviations", lambda ch, params, devs=devs: devs)
                with pytest.raises(InfeasibleError, match=re.escape(named)) as exc:
                    solve_constraints(ch, 0.5 * (lo + hi))
            assert exc.value.interval == (lo, hi)

    def test_zero_branches_count_as_zero(self, rng):
        ch = make_channel(*DEGENERATE)
        t1s = np.linspace(0.0, math.pi / 2, 7).tolist()
        schemes = [solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=t) for t in t1s]
        devs = _assert_matches_oracle([(ch, params) for params in schemes])
        assert devs.max() <= DEVIATION_BOUND
        # at theta1 = 0, branches 1+ and 2+ carry no weight and run with fidelity 1
        rep = run_teleport(random_input(rng), ch, schemes[0])
        assert rep.probabilities[0] <= TOL.zero_branch and rep.probabilities[1] <= TOL.zero_branch
        assert rep.fidelities[0] == 1.0 and rep.fidelities[1] == 1.0

    def test_schemes_match_run_teleport(self, rng):
        # a record cut from the oracle's stack runs as run_teleport's own basis
        for _ in range(5):
            ch = random_capable_channel(rng)
            schemes = [_solved(ch, frac=f) for f in rng.uniform(size=5)]
            stack = measurement_bases(schemes)
            for j, params in enumerate(schemes):
                assert np.array_equal(stack[j], assemble_D12(params)[0])
                q = random_input(rng)
                got = run_with_basis(q, ch.a, MeasurementBasis(stack[j]))
                want = run_teleport(q, ch, params)
                assert np.array(got.probabilities).tobytes() == np.array(want.probabilities).tobytes()
                assert np.array(got.fidelities).tobytes() == np.array(want.fidelities).tobytes()

    def test_checks_kept(self, rng):
        ch = random_capable_channel(rng)
        incapable = make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))
        with pytest.raises(CapabilityError):
            certify_scheme(incapable, _solved(ch))
        # a channel off the unit sphere (SchmidtChannel skips make_channel's check)
        scaled = SchmidtChannel(a=tuple(1.04 * x for x in SYMMETRIC))
        with pytest.raises(ValueError, match="sum to 1"):
            certify_scheme(scaled, _solved(make_channel(*SYMMETRIC)))

    def test_uncorrectable_scheme_fails_the_gate(self, rng):
        # a unitary basis solving no constraint of this channel: the kernel
        # refuses it (run_with_basis, the oracle) and certify_scheme's
        # deviation is far past the gate
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        params = SchemeParams(theta=(0.3, 0.4, 0.5), delta=(0.1, 0.2))
        assert certify_scheme(ch, params) > 1e3 * DEVIATION_BOUND
        with pytest.raises(CorrectionError):
            run_teleport(random_input(rng), ch, params)
        with pytest.raises(CorrectionError):
            certify_stack([ch], measurement_bases([params]))

    @pytest.mark.parametrize("entry", range(9))
    def test_nan_rotation_fails_the_gate(self, entry):
        # a NaN in any one rotation entry, whichever branch it reaches, gives
        # NaN: never a pass, and never a bare max's 0.0
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        params = _solved(ch)
        rows = [list(row) for row in params.rotation]
        rows[entry // 3][entry % 3] = math.nan
        object.__setattr__(params, "rotation", rows)
        dev = certify_scheme(ch, params)
        assert not (dev <= DEVIATION_BOUND) and math.isnan(dev)

    @pytest.mark.parametrize("slot", range(2))
    def test_nan_phase_fails_the_gate(self, slot):
        # a phase reaches only branches 3+- through the phasor residual
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        params = _solved(ch)
        delta = list(params.delta)
        delta[slot] = math.nan
        object.__setattr__(params, "delta", tuple(delta))
        dev = certify_scheme(ch, params)
        assert not (dev <= DEVIATION_BOUND) and math.isnan(dev)

    @pytest.mark.parametrize("slot", range(3))
    def test_nan_channel_coefficient_never_passes(self, slot):
        # a hand-built channel skips make_channel's check: the capability
        # gate refuses it (a NaN first in max) or the deviation is NaN
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        params = _solved(ch)
        a = list(ch.a)
        a[slot] = math.nan
        try:
            dev = certify_scheme(SchmidtChannel(a=tuple(a)), params)
        except CapabilityError:
            return
        assert not (dev <= DEVIATION_BOUND) and math.isnan(dev)


# 50 significant digits for the exact deviation, and certify_scheme's
# documented rounding allowance against it (the largest gap seen on the
# density-200 sweeps and a 2,172-scheme simplex sample was 2.2e-16)
EXACT_DIGITS = 50
ROUNDING_ALLOWANCE = 1e-15


def _exact_deviation(ch, params, monkeypatch):
    """A scheme's worst branch deviation, by certify_stack's recipe, in
    mpmath at EXACT_DIGITS: the kets of the library's _d12_entries layout at
    zeta = pi/4 from the scheme's own float rotation and phases, Bob's
    corrections built row by row as the kernel builds them, and M against
    c'.[I; 0] entry by entry."""
    with mpmath.workdps(EXACT_DIGITS):
        with monkeypatch.context() as m:
            m.setattr(scheme, "cmath", mpmath)
            m.setattr(scheme, "_COS_ZETA", 1 / mpmath.sqrt(2))
            m.setattr(scheme, "_SIN_ZETA", 1 / mpmath.sqrt(2))
            exact = SimpleNamespace(rotation=[[mpmath.mpf(x) for x in row] for row in params.rotation],
                                    delta=tuple(mpmath.mpf(d) for d in params.delta))
            kets = scheme._d12_entries(exact)
        a = [mpmath.mpf(x) for x in ch.a]
        worst = mpmath.mpf(0)
        for j in range(6):
            ket = kets[6 * j:6 * j + 6]
            va = [a[i] * mpmath.conj(ket[i]) for i in range(3)]
            vb = [a[i] * mpmath.conj(ket[3 + i]) for i in range(3)]
            na = mpmath.sqrt(sum(abs(x) ** 2 for x in va))
            nb = mpmath.sqrt(sum(abs(x) ** 2 for x in vb))
            p = (na ** 2 + nb ** 2) / 2
            if p <= TOL.zero_branch:
                continue
            r0 = [mpmath.conj(x) / na for x in va]
            r1 = [mpmath.conj(x) / nb for x in vb]
            r2 = [mpmath.conj(r0[(i + 1) % 3] * r1[(i + 2) % 3] - r0[(i + 2) % 3] * r1[(i + 1) % 3])
                  for i in range(3)]
            m = [[sum(w[i] * v[i] for i in range(3)) / mpmath.sqrt(p) for v in (va, vb)]
                 for w in (r0, r1, r2)]
            c = m[0][0] / abs(m[0][0])
            target = [[c, 0], [0, c], [0, 0]]
            worst = max(worst, *(abs(m[i][k] - target[i][k]) for i in range(3) for k in range(2)))
        return worst


class TestSchemeCertificateRounding:
    """certify_scheme's floats stay within its documented rounding allowance
    of the exact deviation of the same scheme: on solved schemes, where the
    deviation is rounding noise, and on schemes off the solution (a nudged
    theta3, arbitrary angles), where it is not and the kernel would refuse
    the branches."""

    def test_within_allowance_of_exact(self, monkeypatch):
        rng = np.random.default_rng(41)
        records = _simplex_records(40, rng)
        for kind in ("a0_zero", "face", "symmetric"):
            records += [(ch, params) for ch, schemes in _scheme_groups(kind, rng)
                        for params in schemes]
        for ch, params in records[:60:3]:
            t1, t2, t3 = params.theta
            records.append((ch, SchemeParams(theta=(t1, t2, t3 + 1e-7), delta=params.delta)))
        for ch, _ in records[:60:3]:
            records.append((ch, SchemeParams(theta=tuple(rng.uniform(0.0, math.pi, 3).tolist()),
                                             delta=tuple(rng.uniform(-math.pi, math.pi, 2).tolist()))))
        worst = 0.0
        for ch, params in records:
            exact = _exact_deviation(ch, params, monkeypatch)
            gap = abs(certify_scheme(ch, params) - float(exact))
            assert gap <= ROUNDING_ALLOWANCE, (ch.a, params, float(exact))
            worst = max(worst, gap)
        assert worst > 0.0  # the floats do round: the comparison is not vacuous
        # off the solution the deviation is far from noise
        assert min(certify_scheme(ch, params) for ch, params in records[-20:]) > 1e-3


def _branch_deviations(ch, params):
    """Each branch's deviation, in BRANCH_LABELS order, one branch at a time
    from the kernel's corrections; 0 for a zero branch."""
    _, basis = assemble_D12(params)
    comps, ws = branch_components(ch.a, basis), branch_corrections(ch.a, basis)
    out = []
    for (va, vb), w in zip(comps, ws):
        p = 0.5 * (np.vdot(va, va).real + np.vdot(vb, vb).real)
        if p <= TOL.zero_branch:
            out.append(0.0)
            continue
        m = w @ np.array([va, vb]).T / math.sqrt(p)
        c = m[0, 0] / abs(m[0, 0]) if m[0, 0] != 0 else 1.0
        out.append(float(np.abs(m - c * np.eye(3, 2)).max()))
    return out


def _stack_deviations_loop(ch, schemes):
    """certify_stack's deviations, one branch at a time: the reference."""
    return [max(0.0, *_branch_deviations(ch, params)) for params in schemes]


def _faulty_kernel(monkeypatch, rows, fault):
    """Let `fault(w, va)` edit the correction of each branch row in `rows` of
    the kernel's first call, after the kernel's own checks have passed;
    returns the growing list of the kernel's calls."""
    calls = []

    def faulty(comps):
        flat, zero = _corrections(comps)
        if not calls:
            w = np.array(flat, dtype=complex).reshape(-1, 3, 3)
            for row in rows:
                fault(w[row], np.array(comps[row][0]))
            flat = w.ravel().tolist()
        calls.append(len(comps))
        return flat, zero

    monkeypatch.setattr(teleport, "_corrections", faulty)
    return calls


def _entry_error(w, va):
    # 1e-9 on the row-0 entry that meets va's largest component
    w[0, np.abs(va).argmax()] += 1e-9


def _relative_phase(w, va):
    # a phase on row 1 turns alpha|0> + beta|1> into alpha|0> + e^(i phi) beta|1>;
    # W stays unitary and every fidelity stays 1 to within 1e-18
    w[1] *= cmath.exp(1e-9j)


def _stack_channel(kind, rng):
    if kind == "random":
        return random_capable_channel(rng)
    if kind == "face":
        c = rng.uniform(0.0, 0.5)
        return canonicalize(make_channel(math.sqrt(0.5 - c), math.sqrt(0.5), math.sqrt(c)))[0]
    return make_channel(*SYMMETRIC)


def _one_channel(ch, schemes):
    """The stack oracle on k schemes of the one channel ch."""
    return certify_stack([ch] * len(schemes), measurement_bases(schemes))


class TestDeviationBound:
    """The deviation certify_scheme computes, measured by the stack oracle on
    deliberately faulty corrections: DEVIATION_BOUND's derivation holds for
    every input, and the deviation sees faults no fidelity shows."""

    def test_bound_holds_every_input(self, monkeypatch, rng):
        # a unitary error of size eps on one correction: run_with_basis's
        # fidelity for every input stays within the docstring's
        # 4 sqrt(6) x deviation
        ch = random_capable_channel(rng)
        schemes = [_solved(ch, frac=f) for f in (0.2, 0.5, 0.8)]
        inputs = [random_input(rng) for _ in range(200)]
        for eps in (1e-12, 1e-9, 1e-6, 1e-3):
            h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            vals, vecs = np.linalg.eigh(h + h.conj().T)
            u = (vecs * np.exp(1j * eps * vals / np.abs(vals).max())) @ vecs.conj().T

            def rotate(w, va):
                w[:] = u @ w

            _faulty_kernel(monkeypatch, [6 + 4], rotate)
            dev = _one_channel(ch, schemes)[1]
            # the 200 inputs through one fresh basis of scheme 1, whose faulty
            # branch 4 is built on the first run and kept by the memo
            basis = MeasurementBasis(assemble_D12(schemes[1])[0])
            kernel = _faulty_kernel(monkeypatch, [4], rotate)
            worst = min(min(run_with_basis(q, ch.a, basis).fidelities) for q in inputs)
            assert len(kernel) == 1
            assert 1.0 - worst <= 4.0 * math.sqrt(6.0) * dev + 1e-15
            if eps >= 1e-3:  # the kept corrections are the faulty ones
                assert 1.0 - worst > 1e-8
            if eps >= 1e-9:
                assert dev > DEVIATION_BOUND

    @pytest.mark.parametrize("fault", [_entry_error, _relative_phase])
    def test_fault_after_kernel_checks_fails(self, fault, monkeypatch, rng):
        ch = random_capable_channel(rng)
        schemes = [_solved(ch, frac=f) for f in (0.2, 0.5, 0.8)]
        want = _one_channel(ch, schemes)
        _faulty_kernel(monkeypatch, [6 + 4], fault)  # record 1, branch 4
        devs = _one_channel(ch, schemes)
        assert devs[1] > DEVIATION_BOUND
        assert devs[[0, 2]].tolist() == want[[0, 2]].tolist()

    def test_relative_phase_invisible_to_fidelity(self, monkeypatch, rng):
        # the phase fault moves no fidelity, so only the certificate sees it
        ch = random_capable_channel(rng)
        params = _solved(ch)
        _faulty_kernel(monkeypatch, [4], _relative_phase)
        rep = run_teleport(InputQubit(alpha=R2, beta=R2), ch, params)
        assert min(rep.fidelities) >= 1.0 - 1e-15

    def test_nan_fails_closed(self, monkeypatch, rng):
        def nan_entry(w, va):
            w[2, 0] = math.nan

        ch = random_capable_channel(rng)
        schemes = [_solved(ch, frac=f) for f in (0.2, 0.5)]
        _faulty_kernel(monkeypatch, [6 + 1], nan_entry)
        devs = _one_channel(ch, schemes)
        assert devs[0] <= DEVIATION_BOUND and math.isnan(devs[1])


# fixed before the identities were first checked; the worst deviation seen
# was 1.7e-16
IDENTITY_TOL = 1e-15


def _identity_cases(kind, rng):
    """(channel, scheme) pairs on Dirichlet(1,1,1) capable channels: each
    solved at a random theta3 in its window ("solved", where the residuals
    are rounding noise) or taken at random angles ("angles", where they are
    not)."""
    for _ in range(250):
        ch = random_capable_channel(rng)
        if kind == "solved":
            yield ch, _solved(ch, frac=rng.uniform())
        else:
            yield ch, SchemeParams(theta=tuple(rng.uniform(0.0, math.pi, 3).tolist()),
                                   delta=tuple(rng.uniform(-math.pi, math.pi, 2).tolist()))


class TestCertificateIdentities:
    """The per-branch correctability conditions are the solver's residuals
    (r1, r2, r3) = constraint_residuals: with (va, vb) from branch_components,
    branches 1+, 2+ (and 1-, 2-) split the input over disjoint supports with
    ||va|^2 - |vb|^2| = r1 (r2), and branches 3+- have |va| = |vb| and
    |<va, vb>| = r3 / 2."""

    @pytest.mark.parametrize("kind", ["solved", "angles"])
    def test_branch_conditions_are_the_residuals(self, kind):
        index = {label: j for j, label in enumerate(scheme.BRANCH_LABELS)}
        for ch, params in _identity_cases(kind, np.random.default_rng(5)):
            r1, r2, r3 = constraint_residuals(ch, params)
            comps = branch_components(ch.a, params.basis)
            norms = np.einsum("jki,jki->jk", comps, comps.conj()).real
            for label, r in (("1+", r1), ("2+", r1), ("1-", r2), ("2-", r2)):
                va, vb = comps[index[label]]
                assert not np.any(va * vb), (label, ch.a, params)
                na, nb = norms[index[label]]
                assert abs(abs(na - nb) - r) <= IDENTITY_TOL, (label, ch.a, params)
            for label in ("3+", "3-"):
                va, vb = comps[index[label]]
                na, nb = norms[index[label]]
                assert abs(na - nb) <= IDENTITY_TOL, (label, ch.a, params)
                assert abs(abs(np.vdot(va, vb)) - r3 / 2.0) <= IDENTITY_TOL, (label, ch.a, params)


class TestClosedFormOracles:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_collapsed_states_match_projection(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        q = random_input(rng)
        total = total_state(input_vector(q), ch.a)
        _, raw = measure_branches(total, basis)
        closed = collapsed_closed_form(q, ch, params)
        assert np.max(np.abs(raw - closed)) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_match_projection(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        total = total_state(input_vector(random_input(rng)), ch.a)
        raw, _ = measure_branches(total, basis)
        closed = resource_report(ch, params).probabilities
        assert np.max(np.abs(raw - np.array(closed))) <= 1e-10


class TestTwoQubitPath:
    """The two-qubit scheme, which the library refuses (its bases are 6x6),
    through the plain certificate of tests/oracles.py."""

    def test_balanced_channel_unit_fidelity(self, rng):
        u = np.array([[R2, R2], [R2, -R2]])
        dmat = two_qubit_D12(u, math.pi / 4, math.pi)
        for _ in range(20):
            probabilities, fidelities = two_qubit_certificate(random_input(rng), (R2, R2), dmat)
            assert len(fidelities) == len(TWO_QUBIT_LABELS)
            assert min(fidelities) >= 1.0 - 1e-10
            assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_channel_never_correctable(self, rng):
        # over a parameter grid, every basis leaves at least one branch
        # violating the equal-weight/orthogonality conditions
        a0, a1 = 0.6, 0.8
        grid = np.linspace(0.0, math.pi / 2, 10)
        for t in grid:
            u = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for eta in grid:
                for delta in np.linspace(0.0, 2 * math.pi, 10):
                    dmat = two_qubit_D12(u, eta, delta)
                    with pytest.raises(CorrectionError):
                        two_qubit_certificate(random_input(rng), (a0, a1), dmat)


NONFINITE = [math.nan, math.inf, -math.inf]


class TestFailClosed:
    """NaN and inf raise ValueError where they enter, and no certificate
    guard lets a NaN through as a pass."""

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("slot", range(5))
    def test_scheme_angles(self, slot, bad):
        angles = [0.0, 0.0, 0.0, 0.0, math.pi]
        angles[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            SchemeParams(theta=tuple(angles[:3]), delta=tuple(angles[3:]))

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (complex(0.0, math.nan), 1.0),
                                             (math.inf, 0.0), (1.0, complex(math.inf, 0.0)),
                                             (1e200, 0.0), (complex(1e308, 1e308), 0.0)])
    def test_input(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            InputQubit(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_hand_built_basis(self, bad):
        vectors = special_case_basis("A", math.pi / 4).vectors.copy()
        vectors[2, 3] = bad
        with pytest.raises(ValueError, match="not unitary"):
            MeasurementBasis(vectors)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_coefficients(self, bad, rng):
        basis = special_case_basis("A", math.pi / 4)
        coeffs = (bad, R2, R2)
        with pytest.raises(ValueError, match="finite"):
            run_with_basis(random_input(rng), coeffs, basis)
        with pytest.raises(ValueError, match="finite"):
            branch_corrections(coeffs, basis)

    def test_nan_joint_state_fails_sum_check(self):
        total = np.zeros(18, dtype=complex)
        total[0] = math.nan
        with pytest.raises(ValueError, match="sum to 1"):
            measure_branches(total, special_case_basis("A", math.pi / 4))

    @pytest.mark.parametrize("row", range(6))
    def test_nan_components_fail_unitarity(self, row):
        comps = np.zeros((6, 2, 3), dtype=complex)
        comps[:, 0, 0] = comps[:, 1, 1] = 0.5
        comps[row, 0, 2] = math.nan
        # branch_components stops NaN before the kernel; the kernel itself
        # reaches the unitarity check without a warning, and the NaN is
        # reported wherever its branch sits among valid ones
        with pytest.raises(CorrectionError, match="not unitary: deviation nan"):
            correction_kernel(comps)

    def test_null_component_of_live_branch_fails_unitarity(self):
        # |va| = 0 < |vb| <= TOL.correction passes the weight gate: the
        # normalization must give NaN, not a ZeroDivisionError or a warning
        comps = np.zeros((6, 2, 3), dtype=complex)
        comps[2, 1, 0] = 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorrectionError, match="not unitary: deviation nan"):
                correction_kernel(comps)

    def test_nan_probability_is_not_a_zero_branch(self, monkeypatch, rng):
        # the upstream checks stop every NaN; fake one past them on a live branch
        project = teleport._project

        def nan_first(*args):
            probs, collapsed = project(*args)
            probs[0] = math.nan
            return probs, collapsed

        monkeypatch.setattr(teleport, "_project", nan_first)
        ch = make_channel(*SYMMETRIC)
        rep = run_teleport(random_input(rng), ch, find_scheme(ch))
        assert math.isnan(rep.fidelities[0])
        assert min(rep.fidelities[1:]) >= 1.0 - 1e-10
