"""Exact protocol execution: joint state, projective measurement, corrections.

All states are simulated exactly as complex vectors; fidelities come out as
floating-point 1 (to 1e-10), never as sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, check_normalized, identity
from .scheme import (
    MeasurementBasis,
    SchemeParams,
    assemble_D12,
    measurement_bases,
    rotation_rows,
)


class CapabilityError(Exception):
    """The channel cannot support perfect qubit teleportation."""


class CorrectionError(Exception):
    """A branch violates the equal-weight / orthogonality correction conditions."""


@dataclass(frozen=True)
class InputQubit:
    """The unknown qubit alpha|0> + beta|1> to be transmitted.

    A NaN or infinite amplitude fails the norm check (ValueError).
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        # re*re, not abs()**2: an overflow gives inf, which fails the check
        a, b = self.alpha, self.beta
        n2 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
        if not (abs(n2 - 1.0) <= TOL.entry):
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
    # np.linalg.norm's arithmetic for a complex vector, without its dispatch
    alpha, beta = (z / np.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))).tolist()
    return InputQubit(alpha=alpha, beta=beta)


def total_state(vectors, coeffs) -> np.ndarray:
    """Joint kets of input qubits (..., 2) and the diagonal channel sum_j coeffs[j] |jj>.

    Returns (..., 2 * d^2): each row is the Kronecker product input (x) chan,
    checked for unit norm.
    """
    chan = np.diag(np.asarray(coeffs, dtype=complex)).reshape(-1)
    vectors = np.asarray(vectors)
    psi = (vectors[..., None] * chan).reshape(vectors.shape[:-1] + (-1,))
    check_normalized(psi)
    return psi


def measure_branches(total: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project the joint state onto each basis ket of Alice's two subsystems.

    Works for any split: Alice's dimension is the basis-vector dimension, the
    remainder is Bob's. Returns (probabilities (n,), collapsed (n, nb)), one
    row per basis ket; collapsed states are kept unnormalized so that
    probability = <collapsed|collapsed>. A stack of bases (..., n, na)
    measures a matching stack of states (..., na * nb), each record with its
    own sum-to-1 check, and adds the same leading axes to both results.
    """
    na = basis.vectors.shape[-1]
    nb = total.shape[-1] // na
    if na * nb != total.shape[-1]:
        raise ValueError("basis dimension incompatible with total state")
    collapsed = basis.vectors.conj() @ total.reshape(total.shape[:-1] + (na, nb))
    probs = (np.abs(collapsed) ** 2).sum(axis=-1)
    if not (np.abs(probs.sum(axis=-1) - 1.0) <= TOL.entry).all():
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def branch_components(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Input-independent split of each collapsed state: collapsed = alpha*va + beta*vb.

    coeffs are the diagonal channel coefficients (length = Bob's dimension,
    all finite).
    Returns (n_branches, 2, d): entry j is branch j's pair (va, vb). va and vb
    depend only on the channel and the basis row, so Bob's correction can be
    built once per branch and reused for every input. A stack of bases
    (..., n, na) gives (..., n, 2, d).
    """
    a = np.asarray(coeffs, dtype=float)
    *lead, n, na = basis.vectors.shape
    d = na // 2
    if a.shape != (d,):
        raise ValueError(f"expected {d} channel coefficients, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"channel coefficients must be finite, got {a.tolist()}")
    return a * basis.vectors.conj().reshape(*lead, n, 2, d)


def branch_corrections(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Bob's correction unitary for every branch of a valid scheme, (n_branches, d, d).

    A stack of bases (..., n, na) gives (..., n, d, d), from one kernel call
    over all its rows.
    """
    comps = branch_components(coeffs, basis)
    d = comps.shape[-1]
    return _corrections(comps.reshape(-1, 2, d)).reshape(comps.shape[:-2] + (d, d))


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
    norms = np.sqrt(np.add.reduce(comps.real ** 2 + comps.imag ** 2, axis=-1))
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
        w[zero] = identity(d)
    dev = np.abs(w.conj().transpose(0, 2, 1) @ w - identity(d))
    if not (dev.max() <= TOL.unitary):
        per_row = dev.max(axis=(1, 2))
        raise CorrectionError(f"correction not unitary: deviation "
                              f"{per_row[~(per_row <= TOL.unitary)][0]:.3e}")
    return w


def _require_capable(ch: SchmidtChannel) -> None:
    if not is_teleport_capable(ch):
        raise CapabilityError(
            f"channel {ch.a} is not teleport-capable (max a_j^2 > 1/2)"
        )


def run_teleport(inp: InputQubit, ch: SchmidtChannel, params: SchemeParams) -> TeleportReport:
    """Execute the protocol exactly and certify unit fidelity on every branch."""
    _require_capable(ch)
    _, basis = assemble_D12(params)
    return run_with_basis(inp, ch.a, basis)


# certify_stack's gate: a record whose worst deviation is at most this has
# fidelity at least 1 - TOL.unitary for every input (see certify_stack)
STACK_BOUND = TOL.unitary / (4.0 * math.sqrt(6.0))


def certify_stack(ch: SchmidtChannel, schemes) -> np.ndarray:
    """The input-free certificate for k schemes on one channel: each record's
    worst deviation from perfect teleportation, (k,).

    Branch j collapses the input q = (alpha, beta) to alpha*va + beta*vb
    (branch_components), so Bob's output is W.[va vb].q. With the branch
    probability p = (|va|^2 + |vb|^2) / 2 (every input's, once the kernel
    has checked |va| = |vb| and va orthogonal to vb), take the 3x2 matrix
    M = W.[va vb] / sqrt(p). A branch's deviation is the largest entry of
    |M - c'.[I; 0]|, with c' = M[0, 0] / |M[0, 0]| (1 if that is 0); zero
    branches (p <= TOL.zero_branch) count as 0, as certify counts their
    fidelity as 1. A NaN anywhere gives a NaN deviation.

    Why STACK_BOUND suffices: write M = c'.[I; 0] + E with every |E_ik| <=
    eps. For a unit input q with target t = (q, 0), Mq = c't + Eq and
    |Eq| <= ||E||_F <= sqrt(6) eps = x, so |<t, Mq>| >= 1 - x and |Mq| <= 1 + x.
    The output's fidelity |<t, Mq>|^2 / |Mq|^2 (|Mq|^2 is that input's branch
    probability over p, W being unitary) is then at least
    (1 - x)^2 / (1 + x)^2 >= 1 - 4x, and eps <= TOL.unitary / (4 sqrt 6)
    gives 1 - TOL.unitary, for every input at once.

    Keeps run_teleport's checks: the bases' unitarity (measurement_bases),
    the kernel's equal-weight, orthogonality and unitarity checks, and each
    record's probabilities summing to 1 (else ValueError).
    """
    _require_capable(ch)
    comps = branch_components(ch.a, measurement_bases(schemes))
    w = _corrections(comps.reshape(-1, 2, 3)).reshape(*comps.shape[:2], 3, 3)
    p = 0.5 * np.add.reduce(comps.real ** 2 + comps.imag ** 2, axis=(-2, -1))
    if not (np.abs(p.sum(axis=-1) - 1.0) <= TOL.entry).all():
        raise ValueError("branch probabilities do not sum to 1")
    # the entries of |W.[va vb] - c'.sqrt(p).[I; 0]|, scaled by 1/sqrt(p) last
    out = w @ comps.swapaxes(-1, -2)
    dev = np.abs(out)
    r, sp = dev[..., 0, 0], np.sqrt(p)
    target = np.divide(sp * out[..., 0, 0], r, out=sp.astype(complex), where=r > 0.0)
    dev[..., 1, 1] = np.abs(out[..., 1, 1] - target)
    dev[..., 0, 0] = np.abs(r - sp)
    zero = p <= TOL.zero_branch
    dev = dev.max(axis=(-2, -1)) / np.where(zero, 1.0, sp)
    return np.where(zero, 0.0, dev).max(axis=-1)


def certify(vectors, coeffs, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """The fidelity certificate: each input qubit sent through the diagonal
    channel sum_j coeffs[j] |jj> with its measurement basis.

    vectors (..., 2) holds the inputs and basis.vectors (..., n, na) their
    bases, one per input: a single (2,) input with one (n, na) basis, or k
    inputs with a stack of k bases. Returns (probabilities, fidelities),
    each (..., n). Branches without a perfect correction raise
    CorrectionError; the corrections are built first, so non-finite
    coefficients raise ValueError before any arithmetic on them.
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.shape[:-1] != basis.vectors.shape[:-2]:
        raise ValueError(f"{vectors.shape[:-1]} inputs for {basis.vectors.shape[:-2]} bases")
    corrections = branch_corrections(coeffs, basis)
    probs, collapsed = measure_branches(total_state(vectors, coeffs), basis)
    out = (corrections @ collapsed[..., None])[..., 0]
    # fidelity |<input|W collapsed>|^2 / P, the input padded with zeros to Bob's
    # dimension (so only his first two components count); zero branches count
    # as 1, and a NaN probability is not a zero branch
    zero = probs <= TOL.zero_branch
    overlap = np.vecdot(vectors[..., None, :], out[..., :2])
    return probs, np.where(zero, 1.0, np.abs(overlap) ** 2 / np.where(zero, 1.0, probs))


def run_with_basis(inp: InputQubit, coeffs, basis: MeasurementBasis) -> TeleportReport:
    """As run_teleport, but on the diagonal channel sum_j coeffs[j] |jj> with an
    explicitly supplied measurement basis (two-qubit or qubit-qutrit): the
    one-input view of certify.

    Branches without a perfect correction raise CorrectionError; for the
    two-qubit basis that is every channel except the balanced a0 = a1.
    """
    probs, fids = certify(inp.vector(), coeffs, basis)
    probabilities, fidelities = tuple(probs.tolist()), tuple(fids.tolist())
    return TeleportReport(
        labels=tuple(basis.labels),
        probabilities=probabilities,
        fidelities=fidelities,
        mean_fidelity=sum(p * f for p, f in zip(probabilities, fidelities)),
    )


def branch_probabilities(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, ...]:
    """Closed-form outcome probabilities, input-independent for valid schemes."""
    return _probabilities(ch.squares, rotation_rows(*params.theta))


def _probabilities(squares, u) -> tuple[float, ...]:
    """branch_probabilities from the channel's squares and the rotation_rows u."""
    A, B, C = squares
    p1 = A * u[0][0] ** 2 + C * u[0][2] ** 2
    p2 = A * u[1][0] ** 2 + C * u[1][2] ** 2
    p3 = 0.5 * (A * u[2][0] ** 2 + B * u[2][1] ** 2 + C * u[2][2] ** 2)
    return (p1, p1, p3, p2, p2, p3)
