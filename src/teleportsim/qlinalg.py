"""Shared tolerances, state and unitarity checks, and entropy functionals.

Everything operates on plain numpy arrays: a ket is a 1-D complex array, an
operator a matrix over the last two axes; the unitarity check takes stacks.
All entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances, declared once."""

    entry: float = 1e-12       # entrywise comparisons, norms
    unitary: float = 1e-10     # ||M^dag M - I||_max for unitarity checks
    correction: float = 1e-9   # perfect-correctability conditions
    zero_branch: float = 1e-14  # branch probability / component norm taken as exactly 0
    degenerate: float = 1e-13  # constraint coefficient below this is cancellation noise
    window: float = 1e-14      # slack before an admissible u-window counts as empty
    weight: float = 1e-15      # phasor / slice weight taken as exactly 0


TOL = Tolerances()

LOG2_3 = math.log2(3.0)


def check_normalized(vec) -> None:
    """Check that one ket, a 1-D array, has unit norm."""
    dev = abs(float(np.vdot(vec, vec).real) - 1.0)
    if not (dev <= TOL.entry):
        raise ValueError(f"state not normalized: |norm^2 - 1| = {dev:.3e}")


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def check_unitary(mat) -> None:
    """Check each matrix of a (..., n, n) stack for unitarity; errors name the
    first bad one. An array whose last two axes are not square (an isometry,
    a 1-D ket) raises ValueError naming its shape. An empty stack passes."""
    m = np.asarray(mat)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square (..., n, n) matrices, got shape {m.shape}")
    # an inf entry makes the deviation NaN (inf * 0), which the check rejects
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m.conj().swapaxes(-1, -2) @ m - identity(m.shape[-1]))
    if not (dev.max(initial=0.0) <= TOL.unitary):
        per = dev.max(axis=(-2, -1))
        raise ValueError(f"matrix not unitary: max deviation "
                         f"{per[~(per <= TOL.unitary)].flat[0]:.3e}")


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not (-TOL.entry <= x <= 1.0 + TOL.entry):  # NaN fails too
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


# A bisection on an entropy (resources._q_from_entropy,
# explorer._a1_from_entropy) settles each step on a plain-float math.log2
# entropy when that lies more than this margin from the target. The plain and
# exact entropies differ by a few ulps, far below 1e-12, so such a step goes
# the same way on either; only the steps nearer the crossing take the exact
# entropy, and the bisection ends where the exact one does, bit for bit.
_FAR_MARGIN = 1e-12


def bisect(below, lo: float, hi: float) -> float:
    """Bisect [lo, hi] on a monotone predicate until (lo, hi) stops changing.

    below(x) is true left of the crossing. The loop ends once the midpoint
    rounds to an end of the interval, so the crossing is as exact as floats
    allow; returns that last midpoint.
    """
    while True:
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if below(mid) else (lo, mid)
        if step == (lo, hi):
            return mid
        lo, hi = step


def entanglement_from_tangle(c: float) -> float:
    """Entropy of entanglement H((1 + sqrt(1-C))/2) for tangle C in [0,1].

    C is clipped to [0, 1]; a NaN tangle stays NaN and binary_entropy
    raises ValueError on it.
    """
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c)) / 2.0)
