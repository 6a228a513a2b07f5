import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim.channel import (
    SchmidtChannel,
    canonicalize,
    channel_entropy,
    is_teleport_capable,
    make_channel,
)
from teleportsim.qlinalg import LOG2_3


def _squares(seed):
    return np.random.default_rng(seed).dirichlet([1.0, 1.0, 1.0])


class TestMakeChannel:
    def test_symmetric_valid(self):
        ch = make_channel(*(1.0 / math.sqrt(3.0),) * 3)
        assert sum(ch.squares) == pytest.approx(1.0, abs=1e-12)

    def test_squares_fixed_at_construction(self):
        ch = make_channel(0.6, 0.8, 0.0)
        assert ch.squares == tuple(x * x for x in ch.a)
        same = SchmidtChannel(a=ch.a)
        assert same == ch and hash(same) == hash(ch)
        assert "squares" not in repr(ch)

    def test_not_normalized(self):
        with pytest.raises(ValueError):
            make_channel(0.6, 0.6, 0.6)

    def test_degenerate_valid(self):
        ch = make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))
        assert ch.a[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_channel(-0.5, math.sqrt(0.5), 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_channel(float("nan"), 1.0, 0.0)

    @pytest.mark.parametrize("a", [(1e308, 1e308, 1e308), (1e200, 0.0, 0.0)])
    def test_overflowing_square_rejected(self, a):
        # squaring overflows; a ValueError, not a numpy RuntimeWarning
        with pytest.raises(ValueError, match=r"^Schmidt coefficients not normalized: "
                                              r"sum of squares = inf$"):
            make_channel(*a)

    def test_large_square_sum_reported(self):
        # near overflow the sum of squares is still numpy's,
        # 1.1300000000000002e+304 (another order of the three terms gives 1.13e+304)
        a = np.array([1e152, 3e151, 2e151])
        with pytest.raises(ValueError, match=re.escape(f"sum of squares = {float(np.sum(a * a))}")):
            make_channel(*a.tolist())

    def test_rescale_matches_numpy(self, rng):
        # the plain-float sum of squares rescales exactly as numpy's would
        for _ in range(2000):
            a = np.sqrt(rng.dirichlet([1.0, 1.0, 1.0])) * (1.0 + rng.uniform(-1e-10, 1e-10))
            want = tuple((a / np.sqrt(np.sum(a * a))).tolist())
            assert make_channel(*a.tolist()).a == want


class TestEntropy:
    def test_product(self):
        assert channel_entropy(make_channel(1.0, 0.0, 0.0)) == 0.0

    def test_degenerate(self):
        assert channel_entropy(make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        ch = make_channel(*(1.0 / math.sqrt(3.0),) * 3)
        assert channel_entropy(ch) == pytest.approx(LOG2_3, abs=1e-12)

    def test_plain_float(self):
        # the clamp to LOG2_3 must not hand back a numpy scalar
        assert type(LOG2_3) is float
        assert type(channel_entropy(make_channel(*(1.0 / math.sqrt(3.0),) * 3))) is float

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, seed):
        sq = _squares(seed)
        a = np.sqrt(sq)
        base = channel_entropy(make_channel(*a))
        for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
            assert channel_entropy(make_channel(*a[list(perm)])) == pytest.approx(base, abs=1e-12)


class TestCapability:
    def test_symmetric_capable(self):
        assert is_teleport_capable(make_channel(*(1.0 / math.sqrt(3.0),) * 3))

    def test_dominant_coefficient_incapable(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.6), math.sqrt(0.2))
        assert not is_teleport_capable(ch)

    def test_boundary_capable(self):
        assert is_teleport_capable(make_channel(math.sqrt(0.5), math.sqrt(0.5), 0.0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_canonicalize(self, seed):
        ch = make_channel(*np.sqrt(_squares(seed)))
        canon, _ = canonicalize(ch)
        assert is_teleport_capable(ch) == is_teleport_capable(canon)


class TestCanonicalize:
    def test_max_at_zero(self):
        ch = make_channel(math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
        canon, perm = canonicalize(ch)
        assert canon.a == (math.sqrt(0.3), math.sqrt(0.5), math.sqrt(0.2))
        assert perm == (1, 0, 2)

    def test_already_canonical(self):
        ch = make_channel(math.sqrt(0.2), math.sqrt(0.5), math.sqrt(0.3))
        canon, perm = canonicalize(ch)
        assert canon.a == ch.a
        assert perm == (0, 1, 2)

    def test_max_at_two(self):
        ch = make_channel(0.5, 0.5, math.sqrt(0.5))
        canon, perm = canonicalize(ch)
        assert canon.a[1] == math.sqrt(0.5)
        assert perm == (0, 2, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, seed):
        ch = make_channel(*np.sqrt(_squares(seed)))
        canon, perm = canonicalize(ch)
        assert max(canon.squares) == canon.squares[1]
        assert tuple(ch.a[i] for i in perm) == canon.a
        # the swap is its own inverse: the same relabeling maps back
        assert tuple(canon.a[i] for i in perm) == ch.a

    def test_json(self):
        ch = make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))
        assert ch.to_json_dict() == {"a": [0.0, math.sqrt(0.5), math.sqrt(0.5)]}
