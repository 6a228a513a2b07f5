"""The reference oracles in tests/oracles.py checked against known values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    qubit_qutrit_tangle,
    reduced_density,
    two_qubit_D12,
    two_qubit_feasible,
    von_neumann_entropy,
)
from teleportsim.qlinalg import LOG2_3


def _complex_vec(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestReducedDensity:
    def test_product_state(self):
        state = np.zeros(6, dtype=complex)
        state[0] = 1.0
        rho = reduced_density(state, (2, 3), keep=0)
        assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_balanced_state(self):
        state = np.zeros(6, dtype=complex)
        state[0] = state[4] = 1.0 / math.sqrt(2.0)  # (|00> + |11>)/sqrt(2)
        rho = reduced_density(state, (2, 3), keep=0)
        assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)

    def test_degenerate_family_row_at_quarter_pi(self):
        # first basis ket of the a0=0 family at theta = pi/4:
        # cos(t)|00> + sin(t)/sqrt(2) (|02> - |11>)
        t = math.pi / 4
        state = np.zeros(6, dtype=complex)
        state[0] = math.cos(t)
        state[2] = math.sin(t) / math.sqrt(2.0)
        state[4] = -math.sin(t) / math.sqrt(2.0)
        rho = reduced_density(state, (2, 3), keep=0)
        # fixture: projector sum gives diag(3/4, 1/4) for this row
        assert np.allclose(rho, np.diag([0.75, 0.25]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduced_density(np.ones(5), (2, 3), keep=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_trace_one_and_psd(self, seed):
        state = _complex_vec(6, seed)
        for keep in (0, 1):
            rho = reduced_density(state, (2, 3), keep=keep)
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() >= -1e-10 and evals.max() <= 1.0 + 1e-10


class TestEntropies:
    def test_pure(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_balanced(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qutrit(self):
        rho = np.eye(3) / 3.0
        assert von_neumann_entropy(rho) == pytest.approx(LOG2_3, abs=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet([1.0, 1.0, 1.0])
        rho = np.diag(p).astype(complex)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9
        )


class TestTangle:
    def test_product(self):
        state = np.zeros(6, dtype=complex)
        state[0] = 1.0
        assert qubit_qutrit_tangle(state) == pytest.approx(0.0, abs=1e-12)

    def test_maximal(self):
        state = np.zeros(6, dtype=complex)
        state[0] = state[4] = 1.0 / math.sqrt(2.0)
        assert qubit_qutrit_tangle(state) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_for_structured_row(self):
        # row of the form u11|00> + u13|02> + u12|11>: tangle 4 u12^2 (u11^2 + u13^2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v)
            u11, u12, u13 = v
            state = np.zeros(6, dtype=complex)
            state[0], state[2], state[4] = u11, u13, u12
            expected = 4.0 * u12**2 * (u11**2 + u13**2)
            assert qubit_qutrit_tangle(state) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_purity_identity(self, seed):
        # C = 2 (1 - tr rho^2) for the qubit-side reduced state
        state = _complex_vec(6, seed)
        rho = reduced_density(state, (2, 3), keep=0)
        purity = float(np.trace(rho @ rho).real)
        assert qubit_qutrit_tangle(state) == pytest.approx(2.0 * (1.0 - purity), abs=1e-12)


R2 = 1.0 / math.sqrt(2.0)


class TestTwoQubit:
    def test_unitary_for_random_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.uniform(0, 2 * math.pi)
            u = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            dmat = two_qubit_D12(u, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert np.max(np.abs(dmat @ dmat.conj().T - np.eye(4))) <= 1e-10

    def test_feasible_only_when_balanced(self):
        assert two_qubit_feasible(R2, R2)
        assert not two_qubit_feasible(0.6, 0.8)
        assert not two_qubit_feasible(0.8, 0.6)

    def test_bell_equivalent_basis(self):
        # balanced u with eta = pi/4 and e^{i delta} = -1 gives rows locally
        # equivalent to the four Bell states: all tangles 1
        u = np.array([[R2, R2], [R2, -R2]])
        dmat = two_qubit_D12(u, math.pi / 4, math.pi)
        assert np.allclose(dmat[0], [R2, 0, 0, R2], atol=1e-12)
        assert np.allclose(dmat[2], [0, -R2, R2, 0], atol=1e-12)
        for row in dmat:
            rho = row.reshape(2, 2) @ row.reshape(2, 2).conj().T
            tangle = 4.0 * float(np.linalg.det(rho).real)
            assert tangle == pytest.approx(1.0, abs=1e-12)
