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
from .scheme import MeasurementBasis, SchemeParams, assemble_D12


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


def total_state(vector, coeffs) -> np.ndarray:
    """Joint ket of one input qubit (2,) and the diagonal channel sum_j coeffs[j] |jj>.

    Returns (2 * d^2,): the Kronecker product input (x) chan, checked for
    unit norm.
    """
    # the d x d diagonal, flattened: coeffs at every (d + 1)-th entry
    d = len(coeffs)
    chan = np.zeros(d * d, dtype=complex)
    chan[:: d + 1] = coeffs
    psi = (np.asarray(vector)[:, None] * chan).reshape(-1)
    check_normalized(psi)
    return psi


def measure_branches(total: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project the joint state onto each basis ket of Alice's two subsystems.

    Works for any split: Alice's dimension is the basis-vector dimension, the
    remainder is Bob's. Returns (probabilities (n,), collapsed (n, nb)), one
    row per ket of the one (n, na) basis; collapsed states are kept
    unnormalized so that probability = <collapsed|collapsed>, and the
    probabilities must sum to 1.
    """
    na = basis.vectors.shape[-1]
    nb = total.size // na
    if na * nb != total.size:
        raise ValueError("basis dimension incompatible with total state")
    collapsed = basis.vectors.conj() @ total.reshape(na, nb)
    probs = (np.abs(collapsed) ** 2).sum(axis=-1)
    if not (abs(float(probs.sum()) - 1.0) <= TOL.entry):
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def branch_components(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Input-independent split of each collapsed state: collapsed = alpha*va + beta*vb.

    coeffs are the diagonal channel coefficients (length = Bob's dimension,
    all finite), one set per basis record: (d,) for one (n, na) basis, (k, d)
    for a (k, n, na) stack. Returns (n_branches, 2, d), or (k, n_branches, 2,
    d) for a stack: entry j is branch j's pair (va, vb). va and vb depend
    only on the channel and the basis row, so Bob's correction can be built
    once per branch and reused for every input. The result is a fresh,
    writable array on every call.
    """
    a = np.asarray(coeffs, dtype=float)
    *lead, n, na = basis.vectors.shape
    d = na // 2
    if a.shape != (*lead, d):
        raise ValueError(f"expected {d} channel coefficients per basis record, shape "
                         f"{(*lead, d)} for a basis of shape {basis.vectors.shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"channel coefficients must be finite, got {a.tolist()}")
    return a[..., None, None, :] * basis.vectors.conj().reshape(*lead, n, 2, d)


def branch_corrections(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Bob's correction unitary for every branch of one (n, na) basis, (n, d,
    d), or of each record of a (k, n, na) stack, (k, n, d, d), with coeffs
    as branch_components takes them. One kernel call builds every branch's;
    the result is read-only and kept in the basis's one memo slot, keyed by
    the shape and exact bits of the coefficients (so -0.0 and 0.0 differ):
    asked again for the same coefficients, the basis returns that same array
    without building anything; other coefficients build afresh and take the
    slot.
    """
    a = np.asarray(coeffs, dtype=float)
    key = (a.shape, a.tobytes())
    memo = basis._memo
    if memo is not None and memo[0] == key:
        return memo[1]
    comps = branch_components(a, basis)
    d = comps.shape[-1]
    w = _corrections(comps.reshape(-1, 2, d)).reshape(*comps.shape[:-2], d, d)
    w.setflags(write=False)
    object.__setattr__(basis, "_memo", (key, w))
    return w


def _corrections(comps: np.ndarray) -> np.ndarray:
    """The correction kernel: pairs (va, vb) stacked as (n, 2, d) -> (n, d, d).

    Requires the equal-weight and orthogonality conditions; rows 0 and 1 of
    each unitary are the conjugated normalized components, the completion row
    is the conjugated cross product, and the free global phase is fixed by
    making the first nonzero entry (row-major, always in row 0) real positive.
    Zero branches (both components null) get the identity by convention.
    Errors name the values of the first offending row. branch_corrections is
    its one caller.
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
    any_zero = zero.any()
    if any_zero:
        norms = np.where(zero[:, None], 1.0, norms)
    r = (comps / norms[..., None]).conj()
    w = np.empty((n, d, d), dtype=complex)
    w[:, :2] = r
    if d == 3:
        # (r0 x r1)_i = r0[i+1] r1[i+2] - r0[i+2] r1[i+1], indices mod 3, from one
        # gather: g[..., :3] is r[..., i+1] and g[..., 1:] is r[..., i+2]
        g = r[..., [1, 2, 0, 1]]
        g0, g1 = g[:, 0], g[:, 1]
        np.conj(g0[:, :3] * g1[:, 1:] - g0[:, 1:] * g1[:, :3], out=w[:, 2])
    r0 = r[:, 0]
    first = r0[np.arange(n), (np.abs(r0) > TOL.entry).argmax(axis=-1)]
    if any_zero:
        first = np.where(zero, 1.0, first)
    w *= (np.abs(first) / first)[:, None, None]
    if any_zero:
        w[zero] = identity(d)
    dev = np.abs(w.conj().transpose(0, 2, 1) @ w - identity(d))
    if not (dev.max(initial=0.0) <= TOL.unitary):
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
    """Execute the protocol exactly and certify unit fidelity on every branch.

    The scheme's basis (assemble_D12) and its corrections for ch
    (branch_corrections) are built on the first call and reused after it,
    so a later call does only the per-input work.
    """
    _require_capable(ch)
    _, basis = assemble_D12(params)
    return run_with_basis(inp, ch.a, basis)


# certify_stack's gate: a record whose worst deviation is at most this has
# fidelity at least 1 - TOL.unitary for every input (see certify_stack)
STACK_BOUND = TOL.unitary / (4.0 * math.sqrt(6.0))


def certify_stack(channels, basis: MeasurementBasis) -> np.ndarray:
    """The input-free certificate for k records, record i being the basis
    basis.vectors[i] (a (k, 6, 6) stack, for example measurement_bases of k
    schemes) on the channel channels[i]: each record's worst deviation from
    perfect teleportation, (k,). The records may come from any number of
    channels, in any order.

    Branch j collapses the input q = (alpha, beta) to alpha*va + beta*vb
    (branch_components), so Bob's output is W.[va vb].q. With the branch
    probability p = (|va|^2 + |vb|^2) / 2 (every input's, once the kernel
    has checked |va| = |vb| and va orthogonal to vb), take the 3x2 matrix
    M = W.[va vb] / sqrt(p). A branch's deviation is the largest entry of
    |M - c'.[I; 0]|, with c' = M[0, 0] / |M[0, 0]| (1 if that is 0); zero
    branches (p <= TOL.zero_branch) count as 0, as run_with_basis counts
    their fidelity as 1. A NaN anywhere gives a NaN deviation.

    Why STACK_BOUND suffices: write M = c'.[I; 0] + E with every |E_ik| <=
    eps. For a unit input q with target t = (q, 0), Mq = c't + Eq and
    |Eq| <= ||E||_F <= sqrt(6) eps = x, so |<t, Mq>| >= 1 - x and |Mq| <= 1 + x.
    The output's fidelity |<t, Mq>|^2 / |Mq|^2 (|Mq|^2 is that input's branch
    probability over p, W being unitary) is then at least
    (1 - x)^2 / (1 + x)^2 >= 1 - 4x, and eps <= TOL.unitary / (4 sqrt 6)
    gives 1 - TOL.unitary, for every input at once.

    The corrections W are branch_corrections on the whole stack, as
    run_with_basis takes them on one basis. Keeps run_teleport's checks:
    every distinct channel's capability (CapabilityError), the kernel's
    equal-weight, orthogonality and unitarity checks, and each record's probabilities summing to 1 (else
    ValueError); the bases were checked for unitarity when built. A channel
    count other than the basis count raises ValueError. An empty stack gives
    an empty (0,) array.
    """
    for ch in dict.fromkeys(channels):
        _require_capable(ch)
    k = len(channels)
    if basis.vectors.shape[:-2] != (k,):
        raise ValueError(f"{k} channels for a basis stack of shape {basis.vectors.shape}")
    if not k:
        return np.zeros(0)
    coeffs = [ch.a for ch in channels]
    w, comps = branch_corrections(coeffs, basis), branch_components(coeffs, basis)
    squares = comps.real ** 2 + comps.imag ** 2
    # a branch's six squares, summed in the order numpy sums its (2, 3) block
    p = 0.5 * np.add.reduce(squares.reshape(k, 6, 6), axis=-1)
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


def run_with_basis(inp: InputQubit, coeffs, basis: MeasurementBasis) -> TeleportReport:
    """The fidelity certificate of one input qubit sent through the diagonal
    channel sum_j coeffs[j] |jj> with one explicitly supplied (n, na)
    measurement basis (two-qubit or qubit-qutrit); run_teleport's engine.

    Branches without a perfect correction raise CorrectionError; for the
    two-qubit basis that is every channel except the balanced a0 = a1. The
    corrections are built first, so non-finite coefficients raise ValueError
    before any arithmetic on them, and a basis stack raises ValueError.
    """
    if basis.vectors.ndim != 2:
        raise ValueError(f"one (n, na) basis expected, got a stack of shape {basis.vectors.shape}")
    vector = inp.vector()
    corrections = branch_corrections(coeffs, basis)
    probs, collapsed = measure_branches(total_state(vector, coeffs), basis)
    out = (corrections @ collapsed[..., None])[..., 0]
    # fidelity |<input|W collapsed>|^2 / P, the input padded with zeros to Bob's
    # dimension (so only his first two components count); zero branches count
    # as 1, and a NaN probability is not a zero branch
    zero = probs <= TOL.zero_branch
    overlap = np.vecdot(vector[None, :], out[..., :2])
    fids = np.where(zero, 1.0, np.abs(overlap) ** 2 / np.where(zero, 1.0, probs))
    probabilities, fidelities = tuple(probs.tolist()), tuple(fids.tolist())
    return TeleportReport(
        labels=tuple(basis.labels),
        probabilities=probabilities,
        fidelities=fidelities,
        mean_fidelity=sum(p * f for p, f in zip(probabilities, fidelities)),
    )


def branch_probabilities(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, ...]:
    """Closed-form outcome probabilities from the scheme's cached rotation,
    input-independent for valid schemes."""
    A, B, C = ch.squares
    u = params.rotation
    p1 = A * u[0][0] ** 2 + C * u[0][2] ** 2
    p2 = A * u[1][0] ** 2 + C * u[1][2] ** 2
    p3 = 0.5 * (A * u[2][0] ** 2 + B * u[2][1] ** 2 + C * u[2][2] ** 2)
    return (p1, p1, p3, p2, p2, p3)
