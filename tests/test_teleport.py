import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEGENERATE, SYMMETRIC, random_capable_channel
from teleportsim.channel import canonicalize, is_teleport_capable, make_channel
from teleportsim.qlinalg import TOL
from teleportsim.scheme import (
    TWO_QUBIT_LABELS,
    InfeasibleError,
    MeasurementBasis,
    admissible_theta3,
    assemble_D12,
    find_scheme,
    solve_constraints,
    special_case_basis,
    two_qubit_D12,
)
from teleportsim.teleport import (
    CapabilityError,
    CorrectionError,
    InputQubit,
    branch_components,
    branch_corrections,
    branch_probabilities,
    collapsed_closed_form,
    correction_unitary,
    measure_branches,
    random_input,
    run_teleport,
    run_with_basis,
    total_state,
)

R2 = 1.0 / math.sqrt(2.0)


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


class TestTotalState:
    def test_basis_input(self):
        ch = make_channel(*SYMMETRIC)
        psi = total_state(InputQubit(alpha=1.0, beta=0.0), ch.a)
        assert np.allclose(psi[:9], ch.state(), atol=1e-15)
        assert np.allclose(psi[9:], 0.0, atol=1e-15)

    def test_product_channel(self):
        ch = make_channel(1.0, 0.0, 0.0)
        q = InputQubit(alpha=0.6, beta=0.8)
        psi = total_state(q, ch.a)
        assert psi[0] == pytest.approx(0.6) and psi[9] == pytest.approx(0.8)
        assert np.count_nonzero(psi) == 2

    def test_generic_amplitudes(self):
        q = InputQubit(alpha=0.6, beta=0.8j)
        ch = make_channel(0.5, math.sqrt(0.5), 0.5)
        psi = total_state(q, ch.a)
        for j, a in enumerate(ch.a):
            assert psi[4 * j] == pytest.approx(q.alpha * a, abs=1e-15)
            assert psi[9 + 4 * j] == pytest.approx(q.beta * a, abs=1e-15)


class TestMeasureBranches:
    def test_degenerate_balanced_probabilities(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", math.pi / 4)
        total = total_state(random_input(rng), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [1 / 8, 1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4], atol=1e-12)

    def test_degenerate_two_qubit_reduction(self, rng):
        ch = make_channel(*DEGENERATE)
        basis = special_case_basis("A", 0.0)
        total = total_state(random_input(rng), ch.a)
        probs, _ = measure_branches(total, basis)
        assert np.allclose(probs, [0, 0, 1 / 4, 1 / 4, 1 / 4, 1 / 4], atol=1e-12)

    def test_probability_equals_collapsed_norm(self, rng):
        ch = random_capable_channel(rng)
        _, basis = assemble_D12(_solved(ch))
        total = total_state(random_input(rng), ch.a)
        for p, c in zip(*measure_branches(total, basis)):
            assert p == pytest.approx(float(np.vdot(c, c).real), abs=1e-12)

    def test_pairing_and_normalization(self, rng):
        for _ in range(10):
            ch = random_capable_channel(rng)
            _, basis = assemble_D12(_solved(ch))
            total = total_state(random_input(rng), ch.a)
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
            total = total_state(random_input(rng), ch.a)
            p, _ = measure_branches(total, basis)
            if reference is None:
                reference = p
            assert np.max(np.abs(p - reference)) <= 1e-12


class TestCorrectionUnitary:
    def test_swap_like_branch(self):
        # alpha-component along |2>, beta-component along -|1>
        w = correction_unitary(np.array([0, 0, 0.5], dtype=complex),
                               np.array([0, -0.5, 0], dtype=complex))
        expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
        assert np.max(np.abs(w - expected)) <= 1e-12

    def test_identity_branch(self):
        w = correction_unitary(np.array([0.3, 0, 0], dtype=complex),
                               np.array([0, 0.3, 0], dtype=complex))
        assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_zero_branch_convention(self):
        w = correction_unitary(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))
        assert np.allclose(w, np.eye(3), atol=1e-15)

    def test_unequal_weights_rejected(self):
        with pytest.raises(CorrectionError, match="unequal"):
            correction_unitary(np.array([0.5, 0, 0], dtype=complex),
                               np.array([0, 0.3, 0], dtype=complex))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(CorrectionError, match="orthogonal"):
            correction_unitary(np.array([0.5, 0, 0], dtype=complex),
                               0.5 * np.array([math.sin(0.01), math.cos(0.01), 0], dtype=complex))

    def test_random_branches_unitary_and_correct(self, rng):
        for _ in range(20):
            ch = random_capable_channel(rng)
            params = _solved(ch)
            _, basis = assemble_D12(params)
            comps = branch_components(ch.a, basis)
            for va, vb in comps:
                w = correction_unitary(va, vb)
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
    """branch_corrections is one stacked call of correction_unitary; each of
    its rows must equal the single-row call exactly."""

    @staticmethod
    def _assert_rows_match(coeffs, basis):
        comps = branch_components(coeffs, basis)
        ws = branch_corrections(coeffs, basis)
        assert ws.shape == (len(basis.labels),) + 2 * (comps.shape[-1],)
        for j, (va, vb) in enumerate(comps):
            assert np.array_equal(correction_unitary(va, vb), ws[j])
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
            correction_unitary(short[:, 0], short[:, 1])
        comps[row, 1] = (comps[row, 0] + comps[row, 1]) / math.sqrt(2.0)
        with pytest.raises(CorrectionError, match="orthogonal"):
            correction_unitary(comps[:, 0], comps[:, 1])

    def test_matches_frozen_per_row_corrections(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.45), math.sqrt(0.35))
        _, basis = assemble_D12(_solved(ch))
        ws = branch_corrections(ch.a, basis)
        assert np.max(np.abs(ws - _FROZEN_CORRECTIONS)) <= 1e-15


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
            assert np.array_equal(total_state(q, coeffs), np.kron(q.vector(), chan))


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


class TestClosedFormOracles:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_collapsed_states_match_projection(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        q = random_input(rng)
        total = total_state(q, ch.a)
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
        total = total_state(random_input(rng), ch.a)
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
