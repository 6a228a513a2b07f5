import math

import numpy as np
import pytest

from teleportsim.qlinalg import (
    binary_entropy,
    check_normalized,
    check_unitary,
    entanglement_from_tangle,
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


class TestTangle:
    def test_entanglement_from_tangle_endpoints(self):
        assert entanglement_from_tangle(0.0) == 0.0
        assert entanglement_from_tangle(1.0) == pytest.approx(1.0, abs=1e-15)


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
