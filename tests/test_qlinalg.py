import math
import re

import numpy as np
import pytest

from teleportsim.qlinalg import (
    TOL,
    binary_entropy,
    check_normalized,
    check_unitary,
    entanglement_from_tangle,
    identity,
)

# fixture value: binary_entropy(3/4), computed once from the definition
H_THREE_QUARTERS = 0.8112781244591328


class TestEntropies:
    def test_binary_entropy_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.75) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)

    def test_binary_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    def test_binary_entropy_nan(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(math.nan)


class TestTangle:
    def test_entanglement_from_tangle_endpoints(self):
        assert entanglement_from_tangle(0.0) == 0.0
        assert entanglement_from_tangle(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_nan_tangle(self):
        with pytest.raises(ValueError):
            entanglement_from_tangle(math.nan)


class TestIdentity:
    def test_cached_and_read_only(self):
        for n in (2, 3, 6):
            eye = identity(n)
            assert eye is identity(n)
            assert np.array_equal(eye, np.eye(n)) and eye.dtype == np.float64
            with pytest.raises(ValueError):
                eye[0, 0] = 2.0


class TestChecksFailClosed:
    """A NaN or inf entry fails each check with ValueError, never a warning."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_unitary(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_normalized(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            check_normalized(np.array([bad, 0.0]))


class TestNormalized:
    def test_entry_tolerance(self):
        # one ket passes within TOL.entry of unit norm squared, and fails past it
        v = np.array([0.6, 0.8j])
        check_normalized(v)
        check_normalized(v * math.sqrt(1.0 + 0.5 * TOL.entry))
        with pytest.raises(ValueError, match="not normalized"):
            check_normalized(v * math.sqrt(1.0 + 2.0 * TOL.entry))
        with pytest.raises(ValueError, match="not normalized"):
            check_normalized(np.zeros(6))


class TestStackedChecks:
    """A stack of matrices is checked matrix by matrix: one bad entry in the
    middle fails it with the message of that matrix's own check."""

    @staticmethod
    def _message(check, arg):
        with pytest.raises(ValueError) as exc:
            check(arg)
        return str(exc.value)

    def test_unitary(self, rng):
        q = np.linalg.qr(rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4)))[0]
        check_unitary(q)
        check_unitary(q[:0])  # an empty stack passes
        bad = q.copy()
        bad[2, 1, 3] += 1e-6
        assert self._message(check_unitary, bad) == self._message(check_unitary, bad[2])
        bad[1] *= math.nan
        assert self._message(check_unitary, bad) == self._message(check_unitary, bad[1])

    @pytest.mark.parametrize("shape", [(), (4,), (4, 3), (3, 4), (2, 4, 3)])
    def test_unitary_needs_square_matrices(self, shape):
        # np.eye(4, 3) is an isometry: V^dag V = I passes, V V^dag = I does not
        m = np.zeros(shape) if len(shape) < 2 else np.broadcast_to(np.eye(*shape[-2:]), shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            check_unitary(m)
