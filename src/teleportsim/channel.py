"""Two-qutrit channels in Schmidt form and the teleportation-capability test."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qlinalg import TOL, LOG2_3


@dataclass(frozen=True)
class SchmidtChannel:
    """Real Schmidt coefficients (a0, a1, a2) of the shared two-qutrit state."""

    a: tuple[float, float, float]
    squares: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "squares", tuple(x * x for x in self.a))

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

    Inputs within norm_tol of unit square-sum are rescaled exactly onto the
    simplex so downstream algebra sees a normalized channel.
    """
    a = np.array([a0, a1, a2], dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("Schmidt coefficients must be finite")
    if np.any(a < 0.0):
        raise ValueError(f"negative Schmidt coefficient in {a.tolist()}")
    # Python floats, so a square that overflows is inf without a numpy warning;
    # added left to right, numpy's order for three terms (sum() would not be
    # on Python 3.12+, which compensates float sums)
    x, y, z = a.tolist()
    s = x * x + y * y + z * z
    if abs(s - 1.0) > norm_tol:
        raise ValueError(f"Schmidt coefficients not normalized: sum of squares = {s}")
    a = a / np.sqrt(s)
    return SchmidtChannel(a=tuple(float(x) for x in a))


def channel_entropy(ch: SchmidtChannel) -> float:
    """Entanglement entropy -sum a_j^2 log2 a_j^2, in [0, log2 3]."""
    e = 0.0
    for x in ch.squares:
        if x > 0.0:
            e -= x * np.log2(x)
    return min(max(float(e), 0.0), LOG2_3)


def is_teleport_capable(ch: SchmidtChannel) -> bool:
    """Perfect qubit teleportation is possible iff max a_j^2 <= 1/2.

    The gate admits max a_j^2 up to 1/2 + TOL.entry (1e-12), but the theta3
    window is already empty from about 1/2 + 1e-13, so a channel in that band
    passes this gate and then has no scheme (InfeasibleError).
    """
    return max(ch.squares) <= 0.5 + TOL.entry


def canonicalize(ch: SchmidtChannel) -> tuple[SchmidtChannel, tuple[int, int, int]]:
    """Permute coefficients so the maximal one sits at index 1.

    Returns the canonical channel and the permutation perm, with canonical
    a[i] = ch.a[perm[i]]. perm swaps index 1 with the maximum, so it is its
    own inverse. Ties break toward the permutation closest to identity
    (stable argmax), so repeated runs produce identical output.
    """
    imax = int(np.argmax(ch.squares))
    perm = [0, 1, 2]
    perm[1], perm[imax] = perm[imax], perm[1]
    return SchmidtChannel(a=tuple(ch.a[i] for i in perm)), tuple(perm)
