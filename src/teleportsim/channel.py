"""Two-qutrit channels in Schmidt form and the teleportation-capability test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .qlinalg import TOL, LOG2_3


@dataclass(frozen=True)
class SchmidtChannel:
    """Real Schmidt coefficients (a0, a1, a2) of the shared two-qutrit state: a tuple
    of exactly three (another sequence is copied into one, other counts raise ValueError)."""

    a: tuple[float, float, float]
    squares: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = self.a
        if type(a) is not tuple:
            a = tuple(a)
            object.__setattr__(self, "a", a)
        if len(a) != 3:
            raise ValueError(f"a channel has 3 Schmidt coefficients, got {len(a)}")
        x, y, z = a
        self.__dict__["squares"] = (x * x, y * y, z * z)  # as object.__setattr__, faster

    @cached_property
    def entropy(self) -> float:
        """channel_entropy of this channel, computed on first read and kept.

        Not a field, so equality, hashing and repr ignore it.
        """
        return channel_entropy(self)

    def to_json_dict(self) -> dict:
        return {"a": list(self.a)}


def make_channel(a0: float, a1: float, a2: float, *, norm_tol: float = 1e-9) -> SchmidtChannel:
    """Validate and build a channel; coefficients are kept in the given order.

    Each argument is read with float(), so ints, numpy scalars and numeric
    strings are taken as numbers and None raises TypeError. Inputs within
    norm_tol of unit square-sum are divided by the root of their sum of
    squares, so downstream algebra sees a normalized channel.
    """
    x, y, z = a = (float(a0), float(a1), float(a2))
    if not all(map(math.isfinite, a)):
        raise ValueError("Schmidt coefficients must be finite")
    if min(a) < 0.0:
        raise ValueError(f"negative Schmidt coefficient in {list(a)}")
    # a square that overflows is inf; added left to right, numpy's order for
    # three terms (sum() would not be on Python 3.12+, which compensates
    # float sums). sqrt and division are correctly rounded, so the channel
    # has the bits numpy's a / np.sqrt(s) would give
    s = x * x + y * y + z * z
    if abs(s - 1.0) > norm_tol:
        raise ValueError(f"Schmidt coefficients not normalized: sum of squares = {s}")
    r = math.sqrt(s)
    return SchmidtChannel(a=(x / r, y / r, z / r))


def channel_entropy(ch: SchmidtChannel) -> float:
    """Entanglement entropy -sum a_j^2 log2 a_j^2, in [0, log2 3]."""
    e = 0.0
    for x in ch.squares:
        if x > 0.0:
            e -= x * math.log2(x)
    return min(max(float(e), 0.0), LOG2_3)


class CapabilityError(Exception):
    """The channel cannot support perfect qubit teleportation."""


def is_teleport_capable(ch: SchmidtChannel) -> bool:
    """Perfect qubit teleportation is possible iff max a_j^2 <= 1/2 (within
    TOL.window): the library's one capability test, through which the theta3
    window (so the solver), certify_scheme, run_teleport and gour_e12 refuse."""
    return max(ch.squares) <= 0.5 + TOL.window


def _require_capable(ch: SchmidtChannel) -> None:
    if not is_teleport_capable(ch):
        raise CapabilityError(f"channel {ch.a} is not teleport-capable (max a_j^2 > 1/2)")


def canonicalize(ch: SchmidtChannel) -> tuple[SchmidtChannel, tuple[int, int, int]]:
    """Permute coefficients so the maximal one sits at index 1.

    Returns the canonical channel and the permutation perm, with canonical
    a[i] = ch.a[perm[i]]. perm swaps index 1 with the maximum, so it is its
    own inverse. Ties break toward the permutation closest to identity
    (the first maximum, as np.argmax), so repeated runs produce identical
    output.
    """
    a, b, c = ch.squares
    perm = (1, 0, 2) if a >= b and a >= c else (0, 1, 2) if b >= c else (0, 2, 1)
    x = ch.a
    return SchmidtChannel((x[perm[0]], x[perm[1]], x[perm[2]])), perm
