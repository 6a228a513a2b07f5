"""Exact protocol execution: Alice's projection, Bob's corrections and the
fidelity certificates.

Branch j collapses the input alpha|0> + beta|1> to alpha*va + beta*vb
(branch_components): by linearity, the projection of the joint state input
(x) channel onto that branch's ket, which is never built. run_with_basis
certifies one input on one basis from those components and Bob's
corrections; certify_scheme certifies a solved scheme for every input at
once from the closed forms of the same components, with no basis built.
Fidelities come out as floating-point 1 (to 1e-10), never as sampled
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, identity
from .scheme import (BRANCH_LABELS, MeasurementBasis, SchemeParams, assemble_D12,
                     constraint_residuals)


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
    # np.linalg.norm's sum of squares for a complex vector in plain floats, not
    # ndarray.dot, whose BLAS kernel (the OpenBLAS core) could move its bits
    (x0, x1), (y0, y1) = z.real.tolist(), z.imag.tolist()
    alpha, beta = (z / math.sqrt((x0 * x0 + x1 * x1) + (y0 * y0 + y1 * y1))).tolist()
    return InputQubit(alpha=alpha, beta=beta)


def branch_components(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Input-independent split of each collapsed state: collapsed = alpha*va + beta*vb.

    coeffs are the three diagonal channel coefficients (all finite). Returns
    (6, 2, 3): entry j is branch j's pair (va, vb). va and vb depend only on
    the channel and the basis row, so Bob's correction can be built once per
    branch and reused for every input. The result is a fresh, writable array
    on every call.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 channel coefficients, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"channel coefficients must be finite, got {a.tolist()}")
    return a * basis.vectors.conj().reshape(6, 2, 3)


def branch_corrections(coeffs, basis: MeasurementBasis) -> np.ndarray:
    """Bob's correction unitary for every branch of one basis, (6, 3, 3),
    with coeffs as branch_components takes them. One kernel call builds
    every branch's; the result is read-only and kept, with the read-only
    components it was built from, in the basis's one memo slot, keyed by the
    exact bits of the coefficients (so -0.0 and 0.0 differ): asked again for
    the same coefficients, the basis returns that same array without
    building anything; other coefficients build afresh and take the slot.
    """
    a = np.asarray(coeffs, dtype=float)
    key = (a.shape, a.tobytes())
    memo = basis._memo
    if memo is not None and memo[0] == key:
        return memo[2]
    comps = branch_components(a, basis)
    w = _corrections(comps)
    comps.setflags(write=False)
    w.setflags(write=False)
    object.__setattr__(basis, "_memo", (key, comps, w))
    return w


def _corrections(comps: np.ndarray) -> np.ndarray:
    """The correction kernel: pairs (va, vb) stacked as (n, 2, 3) -> (n, 3, 3).

    Requires the equal-weight and orthogonality conditions; rows 0 and 1 of
    each unitary are the conjugated normalized components, the completion row
    is the conjugated cross product, and the free global phase makes the
    first entry of row 0 above TOL.entry real positive. Zero branches (both
    components null) get the identity by convention. Each branch is built in
    Python complex arithmetic, so no bit depends on numpy's SIMD dispatch; a
    null or NaN component of a live branch gives NaN entries, which the
    unitarity check refuses. Errors name the values of the first offending
    row. branch_corrections is its one src/ caller.
    """
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
    rows = []
    for (va, vb), (na, nb), z in zip(comps.tolist(), norms.tolist(), zero.tolist()):
        if z:
            rows += ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            continue
        # x * (1 / |v|), as numpy divides a complex by a real; a null v gives NaN
        sa, sb = 1.0 / na if na else math.nan, 1.0 / nb if nb else math.nan
        a0, a1, a2 = (va[0] * sa).conjugate(), (va[1] * sa).conjugate(), (va[2] * sa).conjugate()
        b0, b1, b2 = (vb[0] * sb).conjugate(), (vb[1] * sb).conjugate(), (vb[2] * sb).conjugate()
        x0, x1, x2 = ((a1 * b2 - a2 * b1).conjugate(), (a2 * b0 - a0 * b2).conjugate(),
                      (a0 * b1 - a1 * b0).conjugate())
        f = (a0 if abs(a0) > TOL.entry else a1 if abs(a1) > TOL.entry
             else a2 if abs(a2) > TOL.entry else math.nan)  # NaN: row 0 null or NaN
        c = abs(f) / f
        rows += ((a0 * c, a1 * c, a2 * c), (b0 * c, b1 * c, b2 * c), (x0 * c, x1 * c, x2 * c))
    w = np.array(rows, dtype=complex).reshape(-1, 3, 3)
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


# certify_scheme's gate: a scheme whose worst deviation is at most this
# teleports every input with fidelity at least 1 - TOL.unitary (see certify_scheme)
DEVIATION_BOUND = TOL.unitary / (4.0 * math.sqrt(6.0))


def certify_scheme(ch: SchmidtChannel, params: SchemeParams) -> float:
    """The input-free certificate of one solved scheme on the channel ch:
    its worst deviation from perfect teleportation over the six branches,
    in plain floats from closed forms.

    Branch j collapses the input q = (alpha, beta) to alpha*va + beta*vb
    (branch_components), so Bob's output is W.[va vb].q. With the branch
    probability p = (|va|^2 + |vb|^2) / 2, take the 3x2 matrix M =
    W.[va vb] / sqrt(p). A branch's deviation is the largest entry of
    |M - c'.[I; 0]|, with c' = M[0, 0] / |M[0, 0]|. The correction kernel's
    W has rows conj(va)/|va| and conj(vb)/|vb| times one phase c, and a
    third row, their cross product, orthogonal to both va and vb. So
    M = (c / sqrt p).[[|va|, <va, vb>/|va|], [<vb, va>/|vb|, |vb|], [0, 0]],
    c' = c, and the deviation is

        max(||va| - sqrt p|, ||vb| - sqrt p|, |<va, vb>| / min(|va|, |vb|)) / sqrt p.

    In the _d12_entries layout each term is a closed form in the rotation u,
    the phases and the channel squares (A, B, C):
    * 1+ and 2+ (1- and 2-: row 1 of u) have disjoint supports, so
      <va, vb> = 0, and the weights |va|^2, |vb|^2 are A u00^2 + C u02^2
      and B u01^2 (swapped on 2+); 1+ and 2+ deviate alike;
    * 3+ and 3- have |va|^2 = |vb|^2 = p = (A u20^2 + B u21^2 + C u22^2) / 2
      (zeta = pi/4) and |<va, vb>| = r3 / 2, with r3 the phasor residual of
      constraint_residuals, so their deviation is r3 / (2p).
    Zero branches (p <= TOL.zero_branch) count as 0, as run_with_basis
    counts their fidelity as 1. A NaN anywhere gives NaN, which fails the
    gate `deviation <= DEVIATION_BOUND`.

    Why DEVIATION_BOUND suffices: write M = c'.[I; 0] + E with every
    |E_ik| <= eps. For a unit input q with target t = (q, 0), Mq = c't + Eq
    and |Eq| <= ||E||_F <= sqrt(6) eps = x, so |<t, Mq>| >= 1 - x and
    |Mq| <= 1 + x. The output's fidelity |<t, Mq>|^2 / |Mq|^2 is then at
    least (1 - x)^2 / (1 + x)^2 >= 1 - 4x, and eps <= TOL.unitary / (4 sqrt 6)
    gives 1 - TOL.unitary, for every input at once.

    Rounding: the closed forms are exact identities of the layout; in
    floats each term carries a few ulps of error relative to its branch's
    weight, so the value is within 1e-15 of the exact deviation of the
    scheme's float angles (and within 2e-15 of the kernel-built stack
    certificate, tests/oracles.certify_stack). The gate thus admits an exact
    deviation up to DEVIATION_BOUND + 1e-15: a fidelity of at least
    1 - TOL.unitary - 4 sqrt(6) x 1e-15, under 1e-14 below 1 - TOL.unitary.

    Keeps the checks of run_teleport that do not depend on the input: the
    channel's capability (CapabilityError) and the branch probabilities
    summing to 1 within TOL.entry (ValueError). It raises no
    CorrectionError: a branch the kernel would refuse (||va| - |vb|| or
    |<va, vb>| above TOL.correction) deviates by more than DEVIATION_BOUND,
    so it fails the gate instead.
    """
    _require_capable(ch)
    A, B, C = ch.squares
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = params.rotation
    x0, y0 = A * u00 * u00 + C * u02 * u02, B * u01 * u01
    x1, y1 = A * u10 * u10 + C * u12 * u12, B * u11 * u11
    p3 = 0.5 * (A * u20 * u20 + B * u21 * u21 + C * u22 * u22)
    if abs(x0 + y0 + x1 + y1 + 2.0 * p3 - 1.0) > TOL.entry:  # a NaN goes on to the deviation
        raise ValueError("branch probabilities do not sum to 1")
    r3 = constraint_residuals(ch, params)[2]
    d0, d1, d2 = (_split_deviation(x0, y0), _split_deviation(x1, y1),
                  0.0 if p3 <= TOL.zero_branch else 0.5 * r3 / p3)
    # a bare max would drop a NaN that does not come first
    return math.nan if math.isnan(d0 + d1 + d2) else max(d0, d1, d2)


def _split_deviation(x: float, y: float) -> float:
    """The deviation of a branch whose components have disjoint supports and
    squared norms x and y (certify_scheme)."""
    p = 0.5 * (x + y)
    if p <= TOL.zero_branch:
        return 0.0
    sp = math.sqrt(p)
    return max(abs(math.sqrt(x) - sp), abs(math.sqrt(y) - sp)) / sp


def _project(a: complex, b: complex, coeffs, basis: MeasurementBasis) -> tuple[list, list]:
    """Alice's projection of the input a|0> + b|1> onto one basis: per
    branch, the unnormalized collapsed state a*va + b*vb and its probability
    <collapsed|collapsed>, with (va, vb) the components branch_corrections
    kept in the basis's memo for coeffs (run_with_basis builds them first).
    A joint norm (|a|^2 + |b|^2)(c0^2 + c1^2 + c2^2) more than TOL.entry
    from 1, or probabilities not summing to 1, raise ValueError (a NaN fails
    both)."""
    c0, c1, c2 = map(float, coeffs)
    n2 = (a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag) * (
        c0 * c0 + c1 * c1 + c2 * c2)
    if not (abs(n2 - 1.0) <= TOL.entry):
        raise ValueError(f"joint state not normalized: |norm^2 - 1| = {abs(n2 - 1.0):.3e}")
    collapsed = [(a * u0 + b * v0, a * u1 + b * v1, a * u2 + b * v2)
                 for (u0, u1, u2), (v0, v1, v2) in basis._memo[1].tolist()]
    probs = [x0.real * x0.real + x0.imag * x0.imag + x1.real * x1.real + x1.imag * x1.imag
             + x2.real * x2.real + x2.imag * x2.imag for x0, x1, x2 in collapsed]
    if not (abs(math.fsum(probs) - 1.0) <= TOL.entry):
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def run_with_basis(inp: InputQubit, coeffs, basis: MeasurementBasis) -> TeleportReport:
    """The fidelity certificate of one input qubit sent through the diagonal
    two-qutrit channel sum_j coeffs[j] |jj> with one explicitly supplied
    measurement basis; run_teleport's engine.

    Branches without a perfect correction raise CorrectionError. The
    corrections are built first (or read from the basis's memo), so
    coefficients of the wrong shape or not finite raise ValueError before
    any arithmetic on them; then _project's norm and sum-to-1 checks run.
    """
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
