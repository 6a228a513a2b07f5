"""Shared tolerances, the unitarity check, and entropy functionals.

The unitarity check takes one square matrix.
All entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances, declared once."""

    entry: float = 1e-12       # entrywise comparisons, norms
    unitary: float = 1e-10     # ||M^dag M - I||_max for unitarity checks
    correction: float = 1e-9   # perfect-correctability conditions
    zero_branch: float = 1e-14  # component norm taken as exactly 0 (scheme._zero_branch)
    degenerate: float = 1e-13  # constraint coefficient below this is cancellation noise
    window: float = 1e-14      # capability slack over max a_j^2 = 1/2; u-window emptiness
    weight: float = 1e-15      # phasor / slice weight taken as exactly 0


TOL = Tolerances()

LOG2_3 = math.log2(3.0)


def check_unitary(mat) -> None:
    """Check one (n, n) matrix for unitarity. Any other shape (a stack, an
    isometry, a 1-D ket) raises ValueError naming it."""
    m = np.asarray(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square (n, n) matrix, got shape {m.shape}")
    # an inf entry makes the deviation NaN (inf * 0), which the check rejects
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max(initial=0.0)
    if not (dev <= TOL.unitary):
        raise ValueError(f"matrix not unitary: max deviation {dev:.3e}")


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0.

    Checks x against [0, 1] (within TOL.entry; NaN fails), clips it and
    evaluates _binary_entropy.
    """
    if not (-TOL.entry <= x <= 1.0 + TOL.entry):  # NaN fails too
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    return _binary_entropy(min(max(float(x), 0.0), 1.0))


def _binary_entropy(x: float) -> float:
    """binary_entropy without the check, for a float x in [0, 1] by
    construction (a bisection midpoint, a clipped tangle's weight)."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entanglement_from_tangle(c: float) -> float:
    """entanglement_from_tangle without the check and clip, for a tangle c
    already in [0, 1] (resource_report checks and clips its own)."""
    return _binary_entropy((1.0 + math.sqrt(1.0 - c)) / 2.0)


def bisect(below, lo: float, hi: float) -> float:
    """Bisect [lo, hi] on a monotone predicate until (lo, hi) stops changing.

    below(x) is true left of the crossing. The loop ends on the first
    midpoint that equals the end it would replace (lo when below(mid), hi
    otherwise), so the crossing is as exact as floats allow; returns that
    midpoint.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if below(mid):
            if mid == lo:
                return mid
            lo = mid
        else:
            if mid == hi:
                return mid
            hi = mid


def entanglement_from_tangle(c: float) -> float:
    """Entropy of entanglement H((1 + sqrt(1-C))/2) for tangle C in [0,1].

    C is clipped to [0, 1], which puts the weight in [1/2, 1], so the
    unchecked core _entanglement_from_tangle takes it; a NaN tangle raises
    ValueError.
    """
    if math.isnan(c):
        raise ValueError(f"tangle {c} is not a number")
    return _entanglement_from_tangle(min(max(c, 0.0), 1.0))
