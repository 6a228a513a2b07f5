"""Small-dimension complex linear algebra and entropy functionals.

Everything operates on plain numpy arrays: kets are 1-d complex arrays,
operators are 2-d complex arrays. All entropies are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical tolerances, declared once."""

    entry: float = 1e-12       # entrywise comparisons, norms
    unitary: float = 1e-10     # ||M^dag M - I||_max for unitarity checks
    psd: float = 1e-10         # admissible negative eigenvalue magnitude
    correction: float = 1e-9   # perfect-correctability conditions
    zero_branch: float = 1e-14  # branch probability / component norm taken as exactly 0
    degenerate: float = 1e-13  # constraint coefficient below this is cancellation noise
    window: float = 1e-14      # slack before an admissible u-window counts as empty
    weight: float = 1e-15      # phasor / slice weight taken as exactly 0


TOL = Tolerances()

LOG2_3 = np.log2(3.0)


def kron(a, b):
    """Tensor product with lexicographic ordering |ij> = |i> (x) |j>."""
    return np.kron(np.asarray(a), np.asarray(b))


def check_normalized(vec) -> None:
    n2 = float(np.vdot(vec, vec).real)
    if not np.isfinite(n2) or abs(n2 - 1.0) > TOL.entry:
        raise ValueError(f"state not normalized: |norm^2 - 1| = {abs(n2 - 1.0):.3e}")


def check_unitary(mat) -> None:
    m = np.asarray(mat)
    dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if dev > TOL.unitary:
        raise ValueError(f"matrix not unitary: max deviation {dev:.3e}")


def reduced_density(state, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduced density matrix of a bipartite pure state.

    state lives on C^{d1} (x) C^{d2}; keep=0 traces out the second factor,
    keep=1 the first.
    """
    d1, d2 = dims
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (d1 * d2,):
        raise ValueError(f"state dimension {psi.shape} incompatible with dims {dims}")
    m = psi.reshape(d1, d2)
    if keep == 0:
        return m @ m.conj().T
    if keep == 1:
        return m.T @ m.conj()
    raise ValueError("keep must be 0 or 1")


def von_neumann_entropy(rho) -> float:
    """-sum lambda_i log2 lambda_i of a Hermitian PSD unit-trace matrix."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    if evals.min() < -TOL.psd:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
    lam = np.clip(evals, 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if x < -TOL.entry or x > 1.0 + TOL.entry:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


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


def qubit_qutrit_tangle(state) -> float:
    """Squared concurrence 4 det(rho_qubit) of a pure qubit-qutrit state."""
    rho = reduced_density(state, (2, 3), keep=0)
    c = 4.0 * float(np.linalg.det(rho).real)
    return min(max(c, 0.0), 1.0)


def entanglement_from_tangle(c: float) -> float:
    """Entropy of entanglement H((1 + sqrt(1-C))/2) for tangle C in [0,1]."""
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + np.sqrt(1.0 - c)) / 2.0)
