import math
import random
import re

import numpy as np
import pytest

from oracles import tuple_bisect
from teleportsim.qlinalg import (
    binary_entropy,
    bisect,
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

    def test_binary_entropy_nan(self):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(math.nan)


class TestTangle:
    def test_entanglement_from_tangle_endpoints(self):
        assert entanglement_from_tangle(0.0) == 0.0
        assert entanglement_from_tangle(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_nan_tangle(self):
        for nan in (math.nan, -math.nan, np.float64("nan")):
            with pytest.raises(ValueError):
                entanglement_from_tangle(nan)

    def test_core_is_the_checked_entropy(self):
        # bit for bit binary_entropy of the clipped tangle's weight, on a grid
        # past both ends of [0, 1] and within 1e-15 of each
        ends = [k * 1e-16 for k in range(-10, 11)] + [1.0 + k * 1e-16 for k in range(-10, 11)]
        ends += [0.0, -0.0, 1.0, 5e-324, -5e-324, math.nextafter(1.0, 0.0),
                 math.nextafter(1.0, 2.0), -1e300, 1e300, -math.inf, math.inf]
        grid = np.linspace(-0.5, 1.5, 4001).tolist() + ends
        assert any(c < 0.0 for c in grid) and any(c > 1.0 for c in grid)
        for c in grid:
            clipped = min(max(c, 0.0), 1.0)
            want = binary_entropy((1.0 + math.sqrt(1.0 - clipped)) / 2.0)
            assert entanglement_from_tangle(c).hex() == want.hex(), c


class TestBisect:
    """bisect visits the midpoints of the frozen tuple loop and ends on the
    same one, bit for bit, on predicates that are not monotone or cross at
    an end of the interval. The library's q and slice predicates are checked
    against the frozen loop in test_resources and test_explorer."""

    @staticmethod
    def _same_as_tuple(below, lo, hi):
        seen = ([], [])

        def recorded(i):
            def pred(x):
                seen[i].append(x.hex())
                return below(x)
            return pred

        got, want = bisect(recorded(0), lo, hi), tuple_bisect(recorded(1), lo, hi)
        assert got.hex() == want.hex(), (lo, hi)
        assert seen[0] == seen[1], (lo, hi)
        return got

    INTERVALS = [(0.0, 0.5), (1.0 / 3.0, 0.5), (-1.0, 1.0), (-3.5, -0.25), (0.0, 5e-324),
                 (1.0, math.nextafter(1.0, 2.0)), (0.75, 0.75), (2.0, 1.0)]

    @pytest.mark.parametrize("lo, hi", INTERVALS)
    def test_seeded_non_monotone(self, lo, hi):
        # each midpoint's answer is a seeded coin toss on its bits
        for seed in range(40):
            self._same_as_tuple(lambda x: random.Random(f"{seed}:{x.hex()}").random() < 0.5, lo, hi)

    @pytest.mark.parametrize("lo, hi", INTERVALS)
    def test_crossing_at_either_end(self, lo, hi):
        # always true ends within an ulp of hi, always false within one of lo
        up = self._same_as_tuple(lambda x: True, lo, hi)
        down = self._same_as_tuple(lambda x: False, lo, hi)
        if lo <= hi:
            assert up in (hi, math.nextafter(hi, lo)) and down in (lo, math.nextafter(lo, hi))
        for edge in (math.nextafter(lo, hi), math.nextafter(hi, lo)):
            self._same_as_tuple(lambda x: x < edge, lo, hi)
            self._same_as_tuple(lambda x: x <= edge, lo, hi)




class TestChecksFailClosed:
    """A NaN or inf entry fails each check with ValueError, never a warning."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_unitary(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(m)


class TestStackedChecks:
    """check_unitary takes one square matrix: a stack, like any other shape,
    raises ValueError naming it (the tests' stack check is
    oracles.check_unitary_stack)."""

    @pytest.mark.parametrize("shape", [(), (4,), (4, 3), (3, 4), (2, 4, 3), (2, 4, 4)])
    def test_unitary_needs_square_matrices(self, shape):
        # np.eye(4, 3) is an isometry: V^dag V = I passes, V V^dag = I does not
        m = np.zeros(shape) if len(shape) < 2 else np.broadcast_to(np.eye(*shape[-2:]), shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            check_unitary(m)
