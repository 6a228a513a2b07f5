"""Exact protocol execution: joint state, projective measurement, corrections.

All states are simulated exactly as complex vectors; fidelities come out as
floating-point 1 (to 1e-10), never as sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, check_normalized
from .scheme import (
    MeasurementBasis,
    SchemeParams,
    assemble_D12,
    rotation_from_angles,
)


class CapabilityError(Exception):
    """The channel cannot support perfect qubit teleportation."""


class CorrectionError(Exception):
    """A branch violates the equal-weight / orthogonality correction conditions."""


@dataclass(frozen=True)
class InputQubit:
    """The unknown qubit alpha|0> + beta|1> to be transmitted."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n2 - 1.0) > TOL.entry:
            raise ValueError(f"input qubit not normalized: |alpha|^2+|beta|^2 = {n2}")

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


@dataclass(frozen=True)
class TeleportReport:
    """Per-branch outcome data plus the fidelity certificate."""

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]
    fidelities: tuple[float, ...]
    mean_fidelity: float

    def to_json_dict(self) -> dict:
        return {
            "branches": [
                {"label": lab, "probability": p, "fidelity": f}
                for lab, p, f in zip(self.labels, self.probabilities, self.fidelities)
            ],
            "mean_fidelity": self.mean_fidelity,
        }


def random_input(rng: np.random.Generator) -> InputQubit:
    """Haar-random qubit: two complex normal deviates, normalized."""
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return InputQubit(alpha=complex(z[0]), beta=complex(z[1]))


def total_state(inp: InputQubit, coeffs) -> np.ndarray:
    """Joint ket of the input qubit and the diagonal channel sum_j coeffs[j] |jj>."""
    chan = np.diag(np.asarray(coeffs, dtype=complex)).reshape(-1)
    psi = np.outer(inp.vector(), chan).reshape(-1)  # = kron(input, chan)
    check_normalized(psi)
    return psi


def measure_branches(total: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project the joint state onto each basis ket of Alice's two subsystems.

    Works for any split: Alice's dimension is the basis-vector dimension, the
    remainder is Bob's. Returns (probabilities (n,), collapsed (n, nb)), one
    row per basis ket; collapsed states are kept unnormalized so that
    probability = <collapsed|collapsed>.
    """
    na = basis.vectors.shape[1]
    nb = total.size // na
    if na * nb != total.size:
        raise ValueError("basis dimension incompatible with total state")
    collapsed = basis.vectors.conj() @ total.reshape(na, nb)
    probs = (np.abs(collapsed) ** 2).sum(axis=1)
    if abs(float(probs.sum()) - 1.0) > TOL.entry:
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def branch_components(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Input-independent split of each collapsed state: collapsed = alpha*va + beta*vb.

    coeffs are the diagonal channel coefficients (length = Bob's dimension).
    Returns (n_branches, 2, d): entry j is branch j's pair (va, vb). va and vb
    depend only on the channel and the basis row, so Bob's correction can be
    built once per branch and reused for every input.
    """
    a = np.asarray(coeffs, dtype=float)
    n, na = basis.vectors.shape
    d = na // 2
    if a.shape != (d,):
        raise ValueError(f"expected {d} channel coefficients, got {a.shape}")
    return a * basis.vectors.conj().reshape(n, 2, d)


def correction_unitary(phi_alpha: np.ndarray, phi_beta: np.ndarray) -> np.ndarray:
    """Unitary sending the alpha-component to |0> and the beta-component to |1>.

    Works row by row on stacked components (..., d) and returns (..., d, d);
    the stacked pairs go through the same kernel as branch_corrections.
    """
    d = np.shape(phi_alpha)[-1]
    comps = np.stack([np.reshape(phi_alpha, (-1, d)), np.reshape(phi_beta, (-1, d))], axis=1)
    return _corrections(comps).reshape(np.shape(phi_alpha)[:-1] + (d, d))


def branch_corrections(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Bob's correction unitary for every branch of a valid scheme, (n_branches, d, d)."""
    return _corrections(branch_components(coeffs, basis))


# cyclic index shifts: (r0 x r1)_i = r0[i+1] r1[i+2] - r0[i+2] r1[i+1], indices mod 3
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _corrections(comps: np.ndarray) -> np.ndarray:
    """The correction kernel: pairs (va, vb) stacked as (n, 2, d) -> (n, d, d).

    Requires the equal-weight and orthogonality conditions; rows 0 and 1 of
    each unitary are the conjugated normalized components, the completion row
    is the conjugated cross product, and the free global phase is fixed by
    making the first nonzero entry (row-major, always in row 0) real positive.
    Zero branches (both components null) get the identity by convention.
    Errors name the values of the first offending row.
    """
    n, _, d = comps.shape
    if d not in (2, 3):
        raise ValueError(f"unsupported dimension {d}")
    norms = np.sqrt(np.sum(comps.real ** 2 + comps.imag ** 2, axis=-1))
    na, nb = norms.T
    zero = (na <= TOL.zero_branch) & (nb <= TOL.zero_branch)
    unequal = np.abs(na - nb) > TOL.correction
    overlap = np.abs(np.vecdot(comps[:, 0], comps[:, 1]))
    if ((unequal | (overlap > TOL.correction)) & ~zero).any():
        bad = np.flatnonzero(unequal & ~zero)
        if bad.size:
            raise CorrectionError(f"unequal component weights: |phi_alpha| = {na[bad[0]]:.6g}, "
                                  f"|phi_beta| = {nb[bad[0]]:.6g}")
        bad = np.flatnonzero((overlap > TOL.correction) & ~zero)
        raise CorrectionError(f"components not orthogonal: |overlap| = {overlap[bad[0]]:.3e}")
    r = (comps / np.where(zero[:, None], 1.0, norms)[..., None]).conj()
    w = np.empty((n, d, d), dtype=complex)
    w[:, :2] = r
    r0, r1 = r[:, 0], r[:, 1]
    if d == 3:
        np.conj(r0[:, _NEXT] * r1[:, _AFTER] - r0[:, _AFTER] * r1[:, _NEXT], out=w[:, 2])
    k = (np.abs(r0) > TOL.entry).argmax(axis=-1)
    first = np.where(zero, 1.0, r0[np.arange(n), k])
    w *= (np.abs(first) / first)[:, None, None]
    if zero.any():
        w[zero] = np.eye(d)
    dev = np.abs(w.conj().transpose(0, 2, 1) @ w - np.eye(d))
    if dev.max() > TOL.unitary:
        per_row = dev.max(axis=(1, 2))
        raise CorrectionError(f"correction not unitary: deviation "
                              f"{per_row[per_row > TOL.unitary][0]:.3e}")
    return w


def run_teleport(inp: InputQubit, ch: SchmidtChannel, params: SchemeParams) -> TeleportReport:
    """Execute the protocol exactly and certify unit fidelity on every branch."""
    if not is_teleport_capable(ch):
        raise CapabilityError(
            f"channel {ch.a} is not teleport-capable (max a_j^2 > 1/2)"
        )
    _, basis = assemble_D12(params)
    return run_with_basis(inp, ch.a, basis)


def run_with_basis(inp: InputQubit, coeffs, basis: MeasurementBasis) -> TeleportReport:
    """As run_teleport, but on the diagonal channel sum_j coeffs[j] |jj> with an
    explicitly supplied measurement basis (two-qubit or qubit-qutrit).

    Branches without a perfect correction raise CorrectionError; for the
    two-qubit basis that is every channel except the balanced a0 = a1.
    """
    probs, collapsed = measure_branches(total_state(inp, coeffs), basis)
    out = (branch_corrections(coeffs, basis) @ collapsed[..., None])[..., 0]
    # fidelity |<input|W collapsed>|^2 / P, the input padded with zeros to Bob's
    # dimension (so only his first two components count); zero branches count as 1
    live = probs > TOL.zero_branch
    overlap = np.vecdot(inp.vector(), out[:, :2])
    fids = np.where(live, np.abs(overlap) ** 2 / np.where(live, probs, 1.0), 1.0)
    probabilities, fidelities = tuple(probs.tolist()), tuple(fids.tolist())
    return TeleportReport(
        labels=tuple(basis.labels),
        probabilities=probabilities,
        fidelities=fidelities,
        mean_fidelity=sum(p * f for p, f in zip(probabilities, fidelities)),
    )


def collapsed_closed_form(inp: InputQubit, ch: SchmidtChannel, params: SchemeParams) -> np.ndarray:
    """Closed-form collapsed states, one row per branch, from the angles alone.

    Written directly in terms of the rotation entries and phases (no joint
    state, no projection), as an independent oracle for the simulator.
    """
    a0, a1, a2 = ch.a
    u = rotation_from_angles(*params.theta)
    d1, d2 = params.delta
    f1, f2 = np.exp(-1j * d1), np.exp(-1j * d2)  # conjugated column phases
    al, be = inp.alpha, inp.beta
    r2 = 1.0 / math.sqrt(2.0)
    rows = np.array([
        [al * a0 * u[0, 0], be * a1 * u[0, 1], al * a2 * u[0, 2]],
        [be * a0 * u[0, 0], al * a1 * u[0, 1] * f1, be * a2 * u[0, 2] * f2],
        [a0 * u[2, 0] * (al + be) * r2,
         a1 * u[2, 1] * (al * f1 + be) * r2,
         a2 * u[2, 2] * (al + be * f2) * r2],
        [al * a0 * u[1, 0], be * a1 * u[1, 1], al * a2 * u[1, 2]],
        [be * a0 * u[1, 0], al * a1 * u[1, 1] * f1, be * a2 * u[1, 2] * f2],
        [a0 * u[2, 0] * (-al + be) * r2,
         a1 * u[2, 1] * (al * f1 - be) * r2,
         a2 * u[2, 2] * (-al + be * f2) * r2],
    ], dtype=complex)
    return rows


def branch_probabilities(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, ...]:
    """Closed-form outcome probabilities, input-independent for valid schemes."""
    A, B, C = ch.squares
    u = rotation_from_angles(*params.theta)
    p1 = A * u[0, 0] ** 2 + C * u[0, 2] ** 2
    p2 = A * u[1, 0] ** 2 + C * u[1, 2] ** 2
    p3 = 0.5 * (A * u[2, 0] ** 2 + B * u[2, 1] ** 2 + C * u[2, 2] ** 2)
    return (p1, p1, p3, p2, p2, p3)
