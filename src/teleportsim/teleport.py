"""Exact protocol execution: Alice's projection, Bob's corrections and the
fidelity certificates.

Branch j collapses the input alpha|0> + beta|1> to alpha*va + beta*vb
(branch_components): by linearity, the projection of the joint state input
(x) channel onto that branch's ket, which is never built. Fidelities come
out as floating-point 1 (to 1e-10), never as sampled statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, identity
from .scheme import BRANCH_LABELS, MeasurementBasis, SchemeParams, assemble_D12


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


def branch_components(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Input-independent split of each collapsed state: collapsed = alpha*va + beta*vb.

    coeffs are the three diagonal channel coefficients (all finite), one set
    per basis record: (3,) for one (6, 6) basis, (k, 3) for a (k, 6, 6)
    stack. Returns (6, 2, 3), or (k, 6, 2, 3) for a stack: entry j is branch
    j's pair (va, vb). va and vb depend only on the channel and the basis
    row, so Bob's correction can be built once per branch and reused for
    every input. The result is a fresh, writable array on every call.
    """
    a = np.asarray(coeffs, dtype=float)
    lead = basis.vectors.shape[:-2]
    if a.shape != (*lead, 3):
        raise ValueError(f"expected 3 channel coefficients per basis record, shape "
                         f"{(*lead, 3)} for a basis of shape {basis.vectors.shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"channel coefficients must be finite, got {a.tolist()}")
    return a[..., None, None, :] * basis.vectors.conj().reshape(*lead, 6, 2, 3)


def branch_corrections(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Bob's correction unitary for every branch of one (6, 6) basis, (6, 3,
    3), or of each record of a (k, 6, 6) stack, (k, 6, 3, 3), with coeffs as
    branch_components takes them. One kernel call builds every branch's;
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
    w = _corrections(comps.reshape(-1, 2, 3)).reshape(*comps.shape[:-2], 3, 3)
    w.setflags(write=False)
    object.__setattr__(basis, "_memo", (key, w))
    return w


def _corrections(comps: np.ndarray) -> np.ndarray:
    """The correction kernel: pairs (va, vb) stacked as (n, 2, 3) -> (n, 3, 3).

    Requires the equal-weight and orthogonality conditions; rows 0 and 1 of
    each unitary are the conjugated normalized components, the completion row
    is the conjugated cross product, and the free global phase is fixed by
    making the first nonzero entry (row-major, always in row 0) real positive.
    Zero branches (both components null) get the identity by convention.
    Errors name the values of the first offending row. branch_corrections is
    its one caller.
    """
    n = len(comps)
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
    w = np.empty((n, 3, 3), dtype=complex)
    w[:, :2] = r
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
        w[zero] = identity(3)
    dev = np.abs(w.conj().transpose(0, 2, 1) @ w - identity(3))
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


def _project(a: complex, b: complex, coeffs, basis: MeasurementBasis) -> tuple[list, list]:
    """Alice's projection of the input a|0> + b|1> onto one (6, 6) basis:
    per branch, the unnormalized collapsed state a*va + b*vb
    (branch_components) and its probability <collapsed|collapsed>. A joint
    norm (|a|^2 + |b|^2)(c0^2 + c1^2 + c2^2) more than TOL.entry from 1, or
    probabilities not summing to 1, raise ValueError (a NaN fails both)."""
    c0, c1, c2 = map(float, coeffs)
    n2 = (a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag) * (
        c0 * c0 + c1 * c1 + c2 * c2)
    if not (abs(n2 - 1.0) <= TOL.entry):
        raise ValueError(f"joint state not normalized: |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
    collapsed = [(a * u0 + b * v0, a * u1 + b * v1, a * u2 + b * v2)
                 for (u0, u1, u2), (v0, v1, v2) in branch_components(coeffs, basis).tolist()]
    probs = [x0.real * x0.real + x0.imag * x0.imag + x1.real * x1.real + x1.imag * x1.imag
             + x2.real * x2.real + x2.imag * x2.imag for x0, x1, x2 in collapsed]
    if not (abs(math.fsum(probs) - 1.0) <= TOL.entry):
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def run_with_basis(inp: InputQubit, coeffs, basis: MeasurementBasis) -> TeleportReport:
    """The fidelity certificate of one input qubit sent through the diagonal
    two-qutrit channel sum_j coeffs[j] |jj> with one explicitly supplied
    (6, 6) measurement basis; run_teleport's engine.

    Branches without a perfect correction raise CorrectionError. The
    corrections are built first, so coefficients of the wrong shape or not
    finite raise ValueError before any arithmetic on them, and a basis stack
    raises ValueError; then _project's norm and sum-to-1 checks run.
    """
    if basis.vectors.ndim != 2:
        raise ValueError(f"one (6, 6) basis expected, got a stack of shape {basis.vectors.shape}")
    corrections = branch_corrections(coeffs, basis)
    a, b = complex(inp.alpha), complex(inp.beta)
    probs, collapsed = _project(a, b, coeffs, basis)
    ac, bc = a.conjugate(), b.conjugate()
    fidelities, mean = [], 0.0
    for p, (x0, x1, x2), ((w00, w01, w02), (w10, w11, w12)) in zip(
            probs, collapsed, corrections[:, :2].tolist()):
        # fidelity |<input|W collapsed>|^2 / P, the input padded with a zero to
        # Bob's qutrit (so only his first two components count); zero branches
        # count as 1, and a NaN probability is not a zero branch
        o = ac * (w00 * x0 + w01 * x1 + w02 * x2) + bc * (w10 * x0 + w11 * x1 + w12 * x2)
        f = 1.0 if p <= TOL.zero_branch else (o.real * o.real + o.imag * o.imag) / p
        fidelities.append(f)
        mean += p * f  # left to right, never through sum(), compensated from Python 3.12 on
    return TeleportReport(labels=BRANCH_LABELS, probabilities=tuple(probs),
                          fidelities=tuple(fidelities), mean_fidelity=mean)
