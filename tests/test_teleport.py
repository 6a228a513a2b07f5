import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEGENERATE, SYMMETRIC, random_capable_channel
from oracles import channel_ket, collapsed_closed_form
from teleportsim import explorer, scheme, teleport
from teleportsim.channel import SchmidtChannel, canonicalize, is_teleport_capable, make_channel
from teleportsim.explorer import sweep_case2
from teleportsim.qlinalg import TOL
from teleportsim.scheme import (
    TWO_QUBIT_LABELS,
    InfeasibleError,
    MeasurementBasis,
    SchemeParams,
    admissible_theta3,
    assemble_D12,
    find_scheme,
    measurement_bases,
    rotation_rows,
    solve_constraints,
    special_case_basis,
    two_qubit_D12,
)
from teleportsim.teleport import (
    CapabilityError,
    CorrectionError,
    InputQubit,
    _corrections,
    branch_components,
    branch_corrections,
    branch_probabilities,
    STACK_BOUND,
    certify_stack,
    measure_branches,
    random_input,
    run_teleport,
    run_with_basis,
    total_state,
)

R2 = 1.0 / math.sqrt(2.0)


def _kernel_row(va, vb):
    """The correction kernel on one pair of components (an N=1 stack)."""
    return _corrections(np.array([[va, vb]]))[0]


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
        # bit for bit the draw divided by np.linalg.norm, as seeded output depends on it
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(500):
            q = random_input(rng)
            z = twin.normal(size=2) + 1j * twin.normal(size=2)
            z = z / np.linalg.norm(z)
            assert (q.alpha, q.beta) == (complex(z[0]), complex(z[1]))
            assert type(q.alpha) is complex and type(q.beta) is complex


class TestTotalState:
    def test_basis_input(self):
        ch = make_channel(*SYMMETRIC)
        psi = total_state(InputQubit(alpha=1.0, beta=0.0).vector(), ch.a)
        assert np.allclose(psi[:9], channel_ket(ch), atol=1e-15)
        assert np.allclose(psi[9:], 0.0, atol=1e-15)

    def test_product_channel(self):
        ch = make_channel(1.0, 0.0, 0.0)
        q = InputQubit(alpha=0.6, beta=0.8)
        psi = total_state(q.vector(), ch.a)
        assert psi[0] == pytest.approx(0.6) and psi[9] == pytest.approx(0.8)
        assert np.count_nonzero(psi) == 2

    def test_generic_amplitudes(self):
        q = InputQubit(alpha=0.6, beta=0.8j)
        ch = make_channel(0.5, math.sqrt(0.5), 0.5)
        psi = total_state(q.vector(), ch.a)
        for j, a in enumerate(ch.a):
            assert psi[4 * j] == pytest.approx(q.alpha * a, abs=1e-15)
            assert psi[9 + 4 * j] == pytest.approx(q.beta * a, abs=1e-15)


class TestMeasureBranches:
    def test_degenerate_balanced_probabilities(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", math.pi / 4)
        total = total_state(random_input(rng).vector(), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [1 / 8, 1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4], atol=1e-12)

    def test_degenerate_two_qubit_reduction(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", 0.0)
        total = total_state(random_input(rng).vector(), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4], atol=1e-12)

    def test_probability_equals_collapsed_norm(self, rng):
        ch = random_capable_channel(rng)
        _, basis = assemble_D12(_solved(ch))
        total = total_state(random_input(rng).vector(), ch.a)
        for p, c in zip(*measure_branches(total, basis)):
            assert p == pytest.approx(float(np.vdot(c, c).real), abs=1e-12)

    def test_pairing_and_normalization(self, rng):
        for _ in range(10):
            ch = random_capable_channel(rng)
            _, basis = assemble_D12(_solved(ch))
            total = total_state(random_input(rng).vector(), ch.a)
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
            total = total_state(random_input(rng).vector(), ch.a)
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
        assert ws.shape == (len(basis.labels),) + 2 * (comps.shape[-1],)
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

    def test_two_qubit_balanced(self):
        dmat = two_qubit_D12(np.array([[R2, R2], [R2, -R2]]), math.pi / 4, math.pi)
        ws = self._assert_rows_match((R2, R2), MeasurementBasis(dmat, TWO_QUBIT_LABELS))
        assert ws.shape == (4, 2, 2)

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
            _corrections(short)
        comps[row, 1] = (comps[row, 0] + comps[row, 1]) / math.sqrt(2.0)
        with pytest.raises(CorrectionError, match="orthogonal"):
            _corrections(comps)

    def test_matches_frozen_per_row_corrections(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        _, basis = assemble_D12(_solved(ch))
        ws = branch_corrections(ch.a, basis)
        assert np.max(np.abs(ws - _FROZEN_CORRECTIONS)) <= 1e-15

    def test_basis_stack_record_by_record(self, rng):
        # a (k, 6, 6) stack with (k, 3) coefficients: each record's corrections
        # are, byte for byte, those of its basis built alone
        channels = [random_capable_channel(rng) for _ in range(4)]
        channels.append(make_channel(*DEGENERATE))
        schemes = [_solved(ch, frac=rng.uniform()) for ch in channels[:4]]
        schemes.append(solve_constraints(channels[4], math.pi / 4, theta2_hint=0.0, theta1_hint=0.0))
        coeffs = np.array([ch.a for ch in channels])
        ws = branch_corrections(coeffs, measurement_bases(schemes))
        assert ws.shape == (5, 6, 3, 3) and not ws.flags.writeable
        for a, params, w in zip(coeffs, schemes, ws):
            assert w.tobytes() == branch_corrections(a, MeasurementBasis(params.basis.vectors)).tobytes()
        empty = branch_corrections(np.zeros((0, 3)), measurement_bases([]))
        assert empty.shape == (0, 6, 3, 3)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2), (1, 3, 3)])
    def test_stack_coefficient_shape_mismatch(self, shape, rng):
        basis = measurement_bases([_solved(random_capable_channel(rng))] * 3)
        with pytest.raises(ValueError, match=re.escape(f"shape (3, 3) for a basis of shape "
                                                       f"(3, 6, 6), got {shape}")):
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
    elif kind == "two_qubit":
        dmat = two_qubit_D12(np.array([[R2, R2], [R2, -R2]]), math.pi / 4, math.pi)
        yield (R2, R2), MeasurementBasis(dmat, TWO_QUBIT_LABELS)


class TestKernelBitIdentity:
    """The stacked correction kernel and total_state must match
    their one-row and np.kron definitions exactly, not just to a tolerance."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric", "two_qubit"])
    def test_matches_per_row_recipe_and_kron(self, kind, rng):
        for coeffs, basis in _kernel_cases(kind, rng):
            ws = branch_corrections(coeffs, basis)
            assert np.array_equal(ws, _reference_corrections(branch_components(coeffs, basis)))
            q = random_input(rng)
            chan = np.diag(np.asarray(coeffs, dtype=complex)).reshape(-1)
            assert np.array_equal(total_state(q.vector(), coeffs), np.kron(q.vector(), chan))

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric", "angles"])
    def test_bases_match_nested_numpy_layout(self, kind, rng):
        schemes = list(_scheme_cases(kind, rng))
        frozen = [_nested_d12(params) for params in schemes]
        for params, want in zip(schemes, frozen):
            assert assemble_D12(params)[0].tobytes() == want.tobytes()
        for k in {1, min(3, len(schemes)), len(schemes)}:
            got = measurement_bases(schemes[:k]).vectors
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
        # the capability gate allows max a_j^2 <= 1/2 + TOL.entry, so at exactly
        # 1/2 + 1e-12 the last ulp of the rescaled coefficients decides whether
        # run_teleport refuses the channel; when it does, it is a CapabilityError
        if not is_teleport_capable(ch):
            params = find_scheme(make_channel(*SYMMETRIC))
            with pytest.raises(CapabilityError):
                run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, params)

    def test_above_gate_slack_refused(self):
        ch = _edge_channel(0.5 + 2e-12, 0.5)
        with pytest.raises(InfeasibleError, match="not teleport-capable"):
            find_scheme(ch)
        with pytest.raises(CapabilityError):
            run_teleport(InputQubit(alpha=1.0, beta=0.0), ch, find_scheme(make_channel(*SYMMETRIC)))

    def test_inside_gate_slack_has_no_window(self):
        # capable by the 1e-12 gate, yet no theta3 window exists
        ch = _edge_channel(0.5 + 5e-13, 0.5)
        assert is_teleport_capable(ch)
        with pytest.raises(InfeasibleError, match="no admissible theta3"):
            find_scheme(ch)


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


def _record_cases(kind, rng):
    """(coeffs, bases) groups for one family of channels; each group shares
    its channel, as the bases of one swept channel do."""
    if kind == "random":
        for _ in range(10):
            ch = random_capable_channel(rng)
            yield ch.a, [assemble_D12(_solved(ch, frac=f))[1] for f in rng.uniform(size=7)]
    elif kind == "a0_zero":
        yield DEGENERATE, [special_case_basis("A", float(t)) for t in np.linspace(0, math.pi / 2, 9)]
    elif kind == "face":
        for c in (0.05, 0.2, 0.35, 0.45):
            ch, _ = canonicalize(make_channel(math.sqrt(0.5 - c), math.sqrt(0.5), math.sqrt(c)))
            yield ch.a, [assemble_D12(_solved(ch, frac=f))[1] for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    elif kind == "symmetric":
        ch = make_channel(*SYMMETRIC)
        yield ch.a, [assemble_D12(_solved(ch))[1]] * 6
    elif kind == "two_qubit":
        dmat = two_qubit_D12(np.array([[R2, R2], [R2, -R2]]), math.pi / 4, math.pi)
        yield (R2, R2), [MeasurementBasis(dmat, TWO_QUBIT_LABELS)] * 6


def _frozen_certify(vectors, coeffs, basis):
    """The per-input certificate as written for stacks of inputs and bases,
    before its one-input path, frozen: the reference for run_with_basis's
    probabilities and fidelities, bit for bit."""
    vectors = np.asarray(vectors, dtype=complex)
    comps = branch_components(coeffs, basis)
    d = comps.shape[-1]
    corrections = _corrections(comps.reshape(-1, 2, d)).reshape(comps.shape[:-2] + (d, d))
    chan = np.diag(np.asarray(coeffs, dtype=complex)).reshape(-1)
    total = (vectors[..., None] * chan).reshape(vectors.shape[:-1] + (-1,))
    assert (np.abs(np.vecdot(total, total).real - 1.0).max() <= TOL.entry)
    na = basis.vectors.shape[-1]
    collapsed = basis.vectors.conj() @ total.reshape(total.shape[:-1] + (na, -1))
    probs = (np.abs(collapsed) ** 2).sum(axis=-1)
    assert (np.abs(probs.sum(axis=-1) - 1.0) <= TOL.entry).all()
    out = (corrections @ collapsed[..., None])[..., 0]
    zero = probs <= TOL.zero_branch
    overlap = np.vecdot(vectors[..., None, :], out[..., :2])
    return probs, np.where(zero, 1.0, np.abs(overlap) ** 2 / np.where(zero, 1.0, probs))


class TestOneInputPath:
    """run_with_basis certifies one input on one basis; every output byte
    stays that of the frozen stack-generic certificate."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric", "two_qubit"])
    def test_matches_frozen_certify(self, kind, rng):
        for coeffs, bases in _record_cases(kind, rng):
            for basis in bases:
                q = random_input(rng)
                rep = run_with_basis(q, coeffs, basis)
                probs, fids = _frozen_certify(q.vector(), coeffs, basis)
                assert np.array(rep.probabilities).tobytes() == probs.tobytes()
                assert np.array(rep.fidelities).tobytes() == fids.tobytes()

    def test_nan_fails_each_single_check(self):
        basis = special_case_basis("A", math.pi / 4)
        with pytest.raises(ValueError, match="not normalized"):
            total_state(np.array([math.nan, 0.0]), DEGENERATE)
        total = total_state(np.array([1.0, 0.0]), DEGENERATE).copy()
        total[1] = math.nan
        with pytest.raises(ValueError, match="sum to 1"):
            measure_branches(total, basis)

    def test_unnormalized_input_refused(self, rng):
        q = 1.001 * random_input(rng).vector()
        with pytest.raises(ValueError, match="not normalized"):
            total_state(q, DEGENERATE)

    def test_basis_stack_refused(self, rng):
        ch = random_capable_channel(rng)
        stack = measurement_bases([_solved(ch, frac=f) for f in (0.2, 0.8)])
        with pytest.raises(ValueError, match=re.escape("stack of shape (2, 6, 6)")):
            run_with_basis(random_input(rng), ch.a, stack)
        with pytest.raises(ValueError, match=re.escape("basis of shape (2, 6, 6), got (3,)")):
            branch_components(ch.a, stack)
        assert branch_components([ch.a] * 2, stack).shape == (2, 6, 2, 3)


def _stacked(bases):
    return MeasurementBasis(np.stack([b.vectors for b in bases]), bases[0].labels)


def _error(call):
    """(type, message) of the exception call() raises."""
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


class TestRecordByRecord:
    """A sweep certifies its records in stacks with certify_stack and a single
    input on one basis with run_with_basis: a record's deviation must not
    depend on the stack it sits in, must bound run_with_basis's fidelities on
    that record's basis alone, and a bad record fails a stack as it fails
    alone."""

    @pytest.mark.parametrize("kind", ["random", "a0_zero", "face", "symmetric"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_per_record_runs(self, kind, k, rng):
        for coeffs, bases in _record_cases(kind, rng):
            ch = SchmidtChannel(a=tuple(coeffs))
            alone = [certify_stack([ch], _stacked([basis]))[0] for basis in bases]
            for i in range(0, len(bases), k):
                chunk = bases[i:i + k]
                devs = certify_stack([ch] * len(chunk), _stacked(chunk))
                assert devs.tobytes() == np.array(alone[i:i + k]).tobytes()
            for basis, dev in zip(bases, alone):
                assert dev <= STACK_BOUND
                for _ in range(5):
                    rep = run_with_basis(random_input(rng), coeffs, basis)
                    assert 1.0 - min(rep.fidelities) <= 4.0 * math.sqrt(6.0) * dev + 1e-15

    def test_schemes_match_run_teleport(self, rng):
        # a record cut from measurement_bases runs as run_teleport's own basis
        for _ in range(5):
            ch = random_capable_channel(rng)
            schemes = [_solved(ch, frac=f) for f in rng.uniform(size=5)]
            stack = measurement_bases(schemes)
            for j, params in enumerate(schemes):
                assert np.array_equal(stack.vectors[j], assemble_D12(params)[0])
                q = random_input(rng)
                got = run_with_basis(q, ch.a, MeasurementBasis(stack.vectors[j]))
                want = run_teleport(q, ch, params)
                assert np.array(got.probabilities).tobytes() == np.array(want.probabilities).tobytes()
                assert np.array(got.fidelities).tobytes() == np.array(want.fidelities).tobytes()

    def test_zero_branches_exactly_one_inside_stack(self, rng):
        bases = [special_case_basis("A", t) for t in (math.pi / 4, 0.0, math.pi / 3)]
        devs = certify_stack([make_channel(*DEGENERATE)] * 3, _stacked(bases))
        assert devs.max() <= STACK_BOUND
        rep = run_with_basis(random_input(rng), DEGENERATE, bases[1])
        assert rep.probabilities[0] <= TOL.zero_branch and rep.probabilities[1] <= TOL.zero_branch
        assert rep.fidelities[0] == 1.0 and rep.fidelities[1] == 1.0
        for basis in bases:
            assert min(run_with_basis(random_input(rng), DEGENERATE, basis).fidelities) >= 1.0 - 1e-10

    def test_non_correctable_record_in_stack(self, rng):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        bases = [assemble_D12(_solved(ch, frac=f))[1] for f in (0.2, 0.5, 0.8)]
        # a unitary basis that solves no constraint of this channel
        bases[1] = assemble_D12(SchemeParams(theta=(0.3, 0.4, 0.5), delta=(0.1, 0.2)))[1]
        stacked = _error(lambda: certify_stack([ch] * 3, _stacked(bases)))
        assert stacked[0] is CorrectionError
        assert stacked == _error(lambda: run_with_basis(random_input(rng), ch.a, bases[1]))
        for basis in (bases[0], bases[2]):
            assert min(run_with_basis(random_input(rng), ch.a, basis).fidelities) >= 1.0 - 1e-10


def _spy(monkeypatch, module, name):
    """Count the calls of module.name; returns the growing list of calls."""
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestCorrectionMemo:
    """A basis keeps the corrections of its last channel: the kernel runs once
    per basis and channel, and any other coefficients build afresh."""

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
        fresh = _corrections(branch_components(ch.a, basis))
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


def _stack_deviations_loop(ch, schemes):
    """certify_stack's deviations, one branch at a time: the reference."""
    out = []
    for params in schemes:
        _, basis = assemble_D12(params)
        comps, ws = branch_components(ch.a, basis), branch_corrections(ch.a, basis)
        worst = 0.0
        for (va, vb), w in zip(comps, ws):
            p = 0.5 * (np.vdot(va, va).real + np.vdot(vb, vb).real)
            if p <= TOL.zero_branch:
                continue
            m = w @ np.array([va, vb]).T / math.sqrt(p)
            c = m[0, 0] / abs(m[0, 0]) if m[0, 0] != 0 else 1.0
            worst = max(worst, float(np.abs(m - c * np.eye(3, 2)).max()))
        out.append(worst)
    return out


def _close_to_loop(devs, ch, schemes):
    # the stack sums and multiplies in another order: a few ulps of 1 apart
    ref = _stack_deviations_loop(ch, schemes)
    np.testing.assert_allclose(devs, ref, rtol=0.0, atol=8 * np.finfo(float).eps)


def _faulty_kernel(monkeypatch, rows, fault):
    """Let `fault(w, va)` edit the correction of each branch row in `rows` of
    the kernel's first call, after the kernel's own checks have passed;
    returns the growing list of the kernel's calls."""
    calls = []

    def faulty(comps):
        w = _corrections(comps)
        if not calls:
            for row in rows:
                fault(w[row], comps[row, 0])
        calls.append(len(comps))
        return w

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
    """certify_stack on k schemes of the one channel ch."""
    return certify_stack([ch] * len(schemes), measurement_bases(schemes))


def _separate_sum_certificate(coeffs, schemes):
    """certify_stack as first written, frozen: p is its own sum over each
    branch's (2, 3) block of squares, apart from the kernel's. coeffs holds
    each record's channel coefficients, (k, 3)."""
    vectors = measurement_bases(schemes).vectors
    comps = np.asarray(coeffs, dtype=float)[:, None, None, :] * vectors.conj().reshape(-1, 6, 2, 3)
    w = _corrections(comps.reshape(-1, 2, 3)).reshape(*comps.shape[:2], 3, 3)
    p = 0.5 * np.add.reduce(comps.real ** 2 + comps.imag ** 2, axis=(-2, -1))
    out = w @ comps.swapaxes(-1, -2)
    dev = np.abs(out)
    r, sp = dev[..., 0, 0], np.sqrt(p)
    target = np.divide(sp * out[..., 0, 0], r, out=sp.astype(complex), where=r > 0.0)
    dev[..., 1, 1] = np.abs(out[..., 1, 1] - target)
    dev[..., 0, 0] = np.abs(r - sp)
    zero = p <= TOL.zero_branch
    dev = dev.max(axis=(-2, -1)) / np.where(zero, 1.0, sp)
    return np.where(zero, 0.0, dev).max(axis=-1)


class TestStackCertificate:
    """certify_stack certifies k records, each a basis on its own channel,
    for every input at once; a record within STACK_BOUND teleports every
    input with fidelity at least 1 - TOL.unitary."""

    @pytest.mark.parametrize("kind", ["random", "face", "symmetric"])
    def test_valid_stacks_pass_and_match_loop(self, kind, rng):
        if kind == "random":
            channels = [random_capable_channel(rng) for _ in range(5)]
        elif kind == "face":
            channels = [canonicalize(make_channel(math.sqrt(0.3), math.sqrt(0.5),
                                                  math.sqrt(0.2)))[0]]
        else:
            channels = [make_channel(*SYMMETRIC)]
        for ch in channels:
            schemes = [_solved(ch, frac=f) for f in (0.0, *rng.uniform(size=3), 1.0)]
            devs = _one_channel(ch, schemes)
            assert devs.shape == (5,)
            assert devs.max() <= STACK_BOUND
            _close_to_loop(devs, ch, schemes)

    @pytest.mark.parametrize("kind", ["random", "face", "symmetric"])
    def test_matches_separate_weight_sum(self, kind, rng):
        # certify_stack sums p from its own squared components; the
        # deviations equal, byte for byte, those of the frozen reference
        cases = [(ch, [_solved(ch, frac=f) for f in (0.0, rng.uniform(), 1.0)])
                 for ch in (_stack_channel(kind, rng) for _ in range(20))]
        ridge = make_channel(*DEGENERATE)
        cases.append((ridge, [solve_constraints(ridge, math.pi / 4, theta2_hint=0.0, theta1_hint=t)
                              for t in (0.0, 0.4, math.pi / 2)]))
        for ch, schemes in cases:
            got = _one_channel(ch, schemes)
            assert got.tobytes() == _separate_sum_certificate([ch.a] * 3, schemes).tobytes()

    def test_mixed_stack_matches_per_channel_stacks(self, rng):
        # records of random, face, symmetric and degenerate-ridge channels
        # (the ridge's stack has zero branches), interleaved in one stack:
        # each record's deviation is, byte for byte, the one its channel's own
        # stack gives, and the frozen reference's with per-record coefficients
        ridge = make_channel(*DEGENERATE)
        groups = [(ch, [_solved(ch, frac=f) for f in (0.0, rng.uniform(), 1.0)])
                  for kind in ("random", "face", "symmetric")
                  for ch in (_stack_channel(kind, rng) for _ in range(4))]
        groups.append((ridge, [solve_constraints(ridge, math.pi / 4, theta2_hint=0.0, theta1_hint=t)
                               for t in (0.0, 0.4, 1.0, math.pi / 2)]))
        records = [(ch, params, dev) for ch, schemes in groups
                   for params, dev in zip(schemes, _one_channel(ch, schemes))]
        records = [records[i] for i in rng.permutation(len(records))]
        channels = [ch for ch, _, _ in records]
        schemes = [params for _, params, _ in records]
        got = certify_stack(channels, measurement_bases(schemes))
        assert got.tobytes() == np.array([dev for _, _, dev in records]).tobytes()
        assert got.tobytes() == _separate_sum_certificate([ch.a for ch in channels],
                                                          schemes).tobytes()
        assert got.max() <= STACK_BOUND

    def test_corrections_come_from_branch_corrections(self, monkeypatch, rng):
        # one branch_corrections call and one kernel call per stack, and the
        # stack's basis keeps the corrections in its memo
        channels = [random_capable_channel(rng) for _ in range(3)]
        basis = measurement_bases([_solved(ch) for ch in channels])
        calls = _spy(monkeypatch, teleport, "branch_corrections")
        kernel = _spy(monkeypatch, teleport, "_corrections")
        certify_stack(channels, basis)
        assert len(calls) == 1 and len(kernel) == 1
        assert branch_corrections([ch.a for ch in channels], basis) is basis._memo[1]
        assert len(kernel) == 1

    def test_peak_memory_of_a_full_sweep_stack(self, rng):
        # a stack of explorer._BLOCK records from as many channels keeps its
        # transient arrays under 1.6 MB (about 5.6 KB a record)
        channels = [random_capable_channel(rng) for _ in range(explorer._BLOCK)]
        basis = measurement_bases([_solved(ch, frac=rng.uniform()) for ch in channels])
        tracemalloc.start()
        try:
            devs = certify_stack(channels, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert devs.max() <= STACK_BOUND
        assert peak < 1.6e6

    def test_zero_branches_count_as_zero(self):
        ch = make_channel(*DEGENERATE)
        t1s = np.linspace(0.0, math.pi / 2, 7).tolist()
        schemes = [solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=t) for t in t1s]
        devs = _one_channel(ch, schemes)
        assert devs.max() <= STACK_BOUND
        _close_to_loop(devs, ch, schemes)

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
                assert dev > STACK_BOUND

    @pytest.mark.parametrize("fault", [_entry_error, _relative_phase])
    def test_fault_after_kernel_checks_fails(self, fault, monkeypatch, rng):
        ch = random_capable_channel(rng)
        schemes = [_solved(ch, frac=f) for f in (0.2, 0.5, 0.8)]
        want = _one_channel(ch, schemes)
        _faulty_kernel(monkeypatch, [6 + 4], fault)  # record 1, branch 4
        devs = _one_channel(ch, schemes)
        assert devs[1] > STACK_BOUND
        assert devs[[0, 2]].tolist() == want[[0, 2]].tolist()

    def test_relative_phase_invisible_to_fidelity(self, monkeypatch, rng):
        # the phase fault moves no fidelity, so only the certificate sees it
        ch = random_capable_channel(rng)
        params = _solved(ch)
        _faulty_kernel(monkeypatch, [4], _relative_phase)
        rep = run_teleport(InputQubit(alpha=R2, beta=R2), ch, params)
        assert min(rep.fidelities) >= 1.0 - 1e-15

    @pytest.mark.parametrize("fault", [_entry_error, _relative_phase])
    def test_fault_skips_its_sweep_record(self, fault, monkeypatch):
        want = sweep_case2(6)
        _faulty_kernel(monkeypatch, [6 + 4], fault)  # the first stack's record 1
        got = sweep_case2(6)
        assert want.skipped == 0 and got.skipped == 1
        assert got.records == want.records[:1] + want.records[2:]

    def test_checks_kept(self, rng):
        ch = random_capable_channel(rng)
        other = random_capable_channel(rng)
        incapable = make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))
        schemes = [_solved(ch), _solved(other), _solved(ch)]
        for i in range(3):  # an incapable channel anywhere in the stack
            channels = [ch, other, ch]
            channels[i] = incapable
            with pytest.raises(CapabilityError):
                certify_stack(channels, measurement_bases(schemes))
        with pytest.raises(CorrectionError):  # a unitary basis solving no constraint
            _one_channel(ch, [_solved(ch), SchemeParams(theta=(0.3, 0.4, 0.5), delta=(0.1, 0.2))])
        # a channel off the unit sphere (SchmidtChannel skips make_channel's check)
        scaled = SchmidtChannel(a=tuple(1.04 * x for x in SYMMETRIC))
        with pytest.raises(ValueError, match="sum to 1"):
            certify_stack([make_channel(*SYMMETRIC), scaled],
                          measurement_bases([_solved(make_channel(*SYMMETRIC))] * 2))

    def test_channel_count_must_match_basis_count(self, rng):
        ch = random_capable_channel(rng)
        basis = measurement_bases([_solved(ch)] * 3)
        for channels in ([ch] * 2, [ch] * 4, []):
            with pytest.raises(ValueError, match="channels for a basis stack"):
                certify_stack(channels, basis)
        with pytest.raises(ValueError, match="channels for a basis stack"):  # not a stack
            certify_stack([ch], assemble_D12(_solved(ch))[1])

    def test_empty_stack(self):
        devs = certify_stack([], measurement_bases([]))
        assert devs.shape == (0,) and devs.dtype == np.float64
        with pytest.raises(CapabilityError):
            certify_stack([make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))],
                          measurement_bases([]))

    def test_nan_fails_closed(self, monkeypatch, rng):
        def nan_entry(w, va):
            w[2, 0] = math.nan

        ch = random_capable_channel(rng)
        schemes = [_solved(ch, frac=f) for f in (0.2, 0.5)]
        _faulty_kernel(monkeypatch, [6 + 1], nan_entry)
        devs = _one_channel(ch, schemes)
        assert devs[0] <= STACK_BOUND and math.isnan(devs[1])


class TestClosedFormOracles:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_collapsed_states_match_projection(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        q = random_input(rng)
        total = total_state(q.vector(), ch.a)
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
        total = total_state(random_input(rng).vector(), ch.a)
        raw, _ = measure_branches(total, basis)
        closed = branch_probabilities(ch, params)
        assert np.max(np.abs(raw - np.array(closed))) <= 1e-10


class TestTwoQubitPath:
    def test_balanced_channel_unit_fidelity(self, rng):
        u = np.array([[R2, R2], [R2, -R2]])
        dmat = two_qubit_D12(u, math.pi / 4, math.pi)
        for _ in range(20):
            rep = run_with_basis(random_input(rng), (R2, R2),
                                 MeasurementBasis(dmat, TWO_QUBIT_LABELS))
            assert min(rep.fidelities) >= 1.0 - 1e-10
            assert sum(rep.probabilities) == pytest.approx(1.0, abs=1e-12)

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
                        run_with_basis(random_input(rng), (a0, a1),
                                       MeasurementBasis(dmat, TWO_QUBIT_LABELS))


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

    def test_nan_components_fail_unitarity(self):
        comps = np.zeros((2, 2, 3), dtype=complex)
        comps[:, 0, 0] = comps[:, 1, 1] = 0.5
        comps[1, 0, 2] = math.nan
        # the kernel's division by a NaN norm warns on the way; silence that to
        # reach the unitarity check (branch_components stops NaN before this)
        with np.errstate(invalid="ignore"), pytest.raises(CorrectionError, match="not unitary"):
            _corrections(comps)

    def test_nan_probability_is_not_a_zero_branch(self, monkeypatch, rng):
        # the upstream checks stop every NaN; fake one past them to test the mask
        measure = teleport.measure_branches

        def nan_first(total, basis):
            probs, collapsed = measure(total, basis)
            probs[0] = math.nan
            return probs, collapsed

        monkeypatch.setattr(teleport, "measure_branches", nan_first)
        ch = make_channel(*SYMMETRIC)
        rep = run_teleport(random_input(rng), ch, find_scheme(ch))
        assert math.isnan(rep.fidelities[0])
        assert min(rep.fidelities[1:]) >= 1.0 - 1e-10
