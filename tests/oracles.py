"""Reference oracles for the tests: independent, slow and plain.

Each one recomputes something the library does in closed form (branch
tangles, collapsed states, the channel ket, the resource report) straight
from its definition or its first plain recipe, so a test can compare the
two (the joint-state projection, total_state and measure_branches, is
run_with_basis's, and run_from_arrays is its array-reading form);
gour_basis builds the comparison protocol's measurement, and
tuple_bisect keeps the bisection's first loop; certify_stack is the
kernel-built reference for scheme.certify_scheme, on the (k, 6, 6) basis
stacks of measurement_bases (checked by check_unitary_stack, the stack form
of qlinalg.check_unitary). The bases the
library does not build also live here: the closed-form a0 = 0 families
(special_case_basis) and the two-qubit scheme with its own plain
certificate (two_qubit_D12, two_qubit_certificate). The library itself
never calls them.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from teleportsim import qlinalg, teleport
from teleportsim.channel import SchmidtChannel, channel_entropy, make_channel
from teleportsim.qlinalg import check_unitary, entanglement_from_tangle
from teleportsim.resources import ResourceReport, classical_cost
from teleportsim.scheme import (
    MeasurementBasis,
    SchemeParams,
    _d12_entries,
    assemble_D12,
    phases_from_weights,
    rotation_rows,
)
from teleportsim.teleport import CorrectionError, InputQubit

TOL = SimpleNamespace(psd=1e-10)  # admissible negative eigenvalue magnitude


def channel_ket(ch: SchmidtChannel) -> np.ndarray:
    """The 9-dim ket a0|00> + a1|11> + a2|22> on C^3 (x) C^3."""
    v = np.zeros(9, dtype=complex)
    v[0], v[4], v[8] = ch.a
    return v


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


def qubit_qutrit_tangle(state) -> float:
    """Squared concurrence 4 det(rho_qubit) of a pure qubit-qutrit state."""
    rho = reduced_density(state, (2, 3), keep=0)
    c = 4.0 * float(np.linalg.det(rho).real)
    return min(max(c, 0.0), 1.0)


def plane_rotation(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """The SO(3) rotation G01(theta1) G02(-theta2) G12(theta3) as a matrix
    product, Gij(t) turning axis i towards axis j by t."""
    def g(i, j, t):
        m = np.eye(3)
        m[i, i] = m[j, j] = math.cos(t)
        m[j, i], m[i, j] = math.sin(t), -math.sin(t)
        return m

    return g(0, 1, theta1) @ g(0, 2, -theta2) @ g(1, 2, theta3)


def gour_basis(ch: SchmidtChannel) -> MeasurementBasis:
    """Gour's measurement (Phys. Rev. A 70, 042301 (2004)) on a capable channel.

    Six kets (1/sqrt 6) sum_j w^{mj} (|0> + s e^{i xi_j} |1>)|j>, rows in the
    order (m, s) = (0, +), (1, +), (2, +), (0, -), (1, -), (2, -), with
    w = e^{2 pi i/3} and xi = (0, d1, -d2) closing sum_j a_j^2 e^{i xi_j} = 0.
    """
    d1, d2 = phases_from_weights(*ch.squares)
    xi = np.array([0.0, d1, -d2])
    omega = np.exp(2j * math.pi / 3.0)
    rows = []
    for s in (1.0, -1.0):
        for m in range(3):
            phase = omega ** (m * np.arange(3))
            rows.append(np.concatenate([phase, s * phase * np.exp(1j * xi)]) / math.sqrt(6.0))
    return MeasurementBasis(vectors=np.array(rows))


def input_vector(inp: InputQubit) -> np.ndarray:
    """The input qubit alpha|0> + beta|1> as its (2,) ket."""
    return np.array([inp.alpha, inp.beta], dtype=complex)


def total_state(vector, coeffs) -> np.ndarray:
    """Joint ket of one input qubit (2,) and the two-qutrit channel
    sum_j coeffs[j] |jj> (three coefficients).

    Returns (18,): the Kronecker product input (x) chan, checked for unit
    norm (ValueError "not normalized" otherwise, a NaN included).
    """
    # the 3 x 3 diagonal, flattened: coeffs at every 4th entry
    chan = np.zeros(9, dtype=complex)
    chan[::4] = coeffs
    psi = (np.asarray(vector)[:, None] * chan).reshape(-1)
    dev = abs(float(np.vdot(psi, psi).real) - 1.0)
    if not (dev <= qlinalg.TOL.entry):
        raise ValueError(f"state not normalized: |norm^2 - 1| = {dev:.3e}")
    return psi


def measure_branches(total: np.ndarray, basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Project the joint state (18,) onto each ket of Alice's qubit-qutrit
    pair: the library's first per-input recipe, kept as the joint-state
    oracle for run_with_basis, which projects the input-free split instead.

    Returns (probabilities (6,), collapsed (6, 3)), one row per ket of the
    one (6, 6) basis; collapsed states are kept unnormalized so that
    probability = <collapsed|collapsed>, and the probabilities must sum to 1.
    A joint state of any other size raises ValueError.
    """
    if total.size != 18:
        raise ValueError(f"expected a joint state of 18 amplitudes, got {total.size}")
    collapsed = basis.vectors.conj() @ total.reshape(6, 3)
    probs = (np.abs(collapsed) ** 2).sum(axis=-1)
    if not (abs(float(probs.sum()) - 1.0) <= qlinalg.TOL.entry):
        raise ValueError("branch probabilities do not sum to 1")
    return probs, collapsed


def run_from_arrays(inp: InputQubit, coeffs, basis: MeasurementBasis):
    """run_with_basis as it first read the basis's memo: the components and
    Bob's first two rows taken from the kept arrays through .tolist() on every
    call, not from the memo's Python rows. Returns (probabilities,
    fidelities, mean fidelity), the report's three number fields."""
    corrections = teleport.branch_corrections(coeffs, basis)
    _, comps, _, zero, _, _ = basis._memo
    a, b = complex(inp.alpha), complex(inp.beta)
    c0, c1, c2 = map(float, coeffs)
    n2 = (a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag) * (
        c0 * c0 + c1 * c1 + c2 * c2)
    if not (abs(n2 - 1.0) <= qlinalg.TOL.entry):
        raise ValueError("joint state not normalized")
    collapsed = [(a * u0 + b * v0, a * u1 + b * v1, a * u2 + b * v2)
                 for (u0, u1, u2), (v0, v1, v2) in comps.tolist()]
    probs = [x0.real * x0.real + x0.imag * x0.imag + x1.real * x1.real + x1.imag * x1.imag
             + x2.real * x2.real + x2.imag * x2.imag for x0, x1, x2 in collapsed]
    ac, bc = a.conjugate(), b.conjugate()
    fidelities, mean = [], 0.0
    for p, z, (x0, x1, x2), ((w00, w01, w02), (w10, w11, w12)) in zip(
            probs, zero, collapsed, corrections[:, :2].tolist()):
        o = ac * (w00 * x0 + w01 * x1 + w02 * x2) + bc * (w10 * x0 + w11 * x1 + w12 * x2)
        f = 1.0 if z else (o.real * o.real + o.imag * o.imag) / p
        fidelities.append(f)
        mean += p * f
    return probs, fidelities, mean


def check_unitary_stack(mat) -> None:
    """qlinalg.check_unitary over each matrix of a (..., n, n) stack, in one
    pass; the error is the first bad matrix's own. An empty stack passes."""
    m = np.asarray(mat)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square (..., n, n) matrices, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        per = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(
            axis=(-2, -1), initial=0.0)
    bad = per[~(per <= qlinalg.TOL.unitary)]  # NaN fails too
    if bad.size:
        raise ValueError(f"matrix not unitary: max deviation {bad[0]:.3e}")


def measurement_bases(schemes) -> np.ndarray:
    """The bases of k schemes as one (k, 6, 6) array in the assemble_D12
    layout, built from one flat list and checked for unitarity in one call."""
    entries = []
    for params in schemes:
        entries += _d12_entries(params)
    vectors = np.array(entries, dtype=complex).reshape(-1, 6, 6)
    check_unitary_stack(vectors)
    return vectors


def correction_kernel(comps) -> tuple[np.ndarray, tuple[bool, ...]]:
    """The library's correction kernel (teleport._corrections) on an (n, 2, 3)
    array of components: the (n, 3, 3) corrections as the array
    branch_corrections builds from the kernel's flat entries, and the
    kernel's zero flags."""
    flat, zero = teleport._corrections(np.asarray(comps).tolist())
    return np.array(flat, dtype=complex).reshape(-1, 3, 3), zero


def certify_stack(channels, vectors) -> np.ndarray:
    """The input-free certificate of k records, record i being the basis
    vectors[i] of a (k, 6, 6) array (measurement_bases of k schemes, or
    Gour's kets) on the channel channels[i]: each record's worst deviation,
    (k,), the quantity scheme.certify_scheme gives in closed form.

    The reference recipe, with Bob's corrections built by the library's
    correction kernel (teleport._corrections) on the whole stack: branch j
    collapses the input q to alpha*va + beta*vb, M = W.[va vb] / sqrt(p)
    with p = (|va|^2 + |vb|^2) / 2, and a branch's deviation is the largest
    entry of |M - c'.[I; 0]|, c' = M[0, 0] / |M[0, 0]| (1 if that is 0);
    zero branches (the kernel's flags, scheme._zero_branch) count as 0
    and a NaN gives NaN.
    The kernel raises CorrectionError on a branch it cannot correct.
    """
    k = len(channels)
    if vectors.shape != (k, 6, 6):
        raise ValueError(f"{k} channels for a basis stack of shape {vectors.shape}")
    coeffs = np.array([ch.a for ch in channels], dtype=float).reshape(k, 3)
    comps = coeffs[:, None, None, :] * vectors.conj().reshape(k, 6, 2, 3)
    w, zero = correction_kernel(comps.reshape(-1, 2, 3))
    w, zero = w.reshape(k, 6, 3, 3), np.reshape(zero, (k, 6))
    # a branch's six squares, summed in the order numpy sums its (2, 3) block
    p = 0.5 * np.add.reduce((comps.real ** 2 + comps.imag ** 2).reshape(k, 6, 6), axis=-1)
    # the entries of |W.[va vb] - c'.sqrt(p).[I; 0]|, scaled by 1/sqrt(p) last
    out = w @ comps.swapaxes(-1, -2)
    dev = np.abs(out)
    r, sp = dev[..., 0, 0], np.sqrt(p)
    target = np.divide(sp * out[..., 0, 0], r, out=sp.astype(complex), where=r > 0.0)
    dev[..., 1, 1] = np.abs(out[..., 1, 1] - target)
    dev[..., 0, 0] = np.abs(r - sp)
    dev = dev.max(axis=(-2, -1)) / np.where(zero, 1.0, sp)
    return np.where(zero, 0.0, dev).max(axis=-1)


def collapsed_closed_form(inp: InputQubit, ch: SchmidtChannel, params: SchemeParams) -> np.ndarray:
    """Closed-form collapsed states, one row per branch, from the angles alone.

    Written directly in terms of the rotation entries and phases (no joint
    state, no projection), as an independent oracle for the simulator.
    """
    a0, a1, a2 = ch.a
    u = plane_rotation(*params.theta)
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


def resource_report_per_branch(ch: SchmidtChannel, params: SchemeParams) -> ResourceReport:
    """resource_report by its plain per-branch recipe.

    Each formula block builds its own rotation, the branch entropy is
    evaluated once per branch (six calls), and the channel entropy is
    recomputed from the channel. The library's report must equal this one
    bit for bit.
    """
    A, B, C = ch.squares
    u = rotation_rows(*params.theta)
    p1 = A * u[0][0] ** 2 + C * u[0][2] ** 2
    p2 = A * u[1][0] ** 2 + C * u[1][2] ** 2
    p3 = 0.5 * (A * u[2][0] ** 2 + B * u[2][1] ** 2 + C * u[2][2] ** 2)
    probs = (p1, p1, p3, p2, p2, p3)

    u = rotation_rows(*params.theta)
    d1, d2 = params.delta
    c12 = 4.0 * u[0][1] ** 2 * (u[0][0] ** 2 + u[0][2] ** 2)
    c12m = 4.0 * u[1][1] ** 2 * (u[1][0] ** 2 + u[1][2] ** 2)
    c3 = (
        2.0 * u[2][0] ** 2 * u[2][1] ** 2 * (1.0 - math.cos(d1))
        + 2.0 * u[2][0] ** 2 * u[2][2] ** 2 * (1.0 - math.cos(d2))
        + 2.0 * u[2][1] ** 2 * u[2][2] ** 2 * (1.0 - math.cos(d1 + d2))
    )
    clip = lambda c: min(max(c, 0.0), 1.0)
    tangles = (clip(c12), clip(c12), clip(c3), clip(c12m), clip(c12m), clip(c3))

    e12 = 0.0  # left to right: sum() compensates float sums from Python 3.12 on
    for p, c in zip(probs, tangles):
        e12 += p * entanglement_from_tangle(c)
    h12 = classical_cost(probs)
    return ResourceReport(
        e_channel=channel_entropy(ch),
        e12=e12,
        h12=h12,
        tangles=tangles,
        probabilities=probs,
        sum=e12 + h12,
    )


def tuple_bisect(below, lo: float, hi: float) -> float:
    """qlinalg.bisect as first written, frozen: each step builds the next
    (lo, hi) as a tuple and the loop ends when it equals the last one."""
    while True:
        mid = 0.5 * (lo + hi)
        step = (mid, hi) if below(mid) else (lo, mid)
        if step == (lo, hi):
            return mid
        lo, hi = step


def a1_from_entropy_exact(e: float) -> float:
    """explorer._a1_from_entropy with every bisection step decided by
    channel_entropy on a freshly built channel, on the frozen tuple_bisect."""
    def above(b):  # entropy decreases from log2(3) to 1 as b = a1^2 grows
        ch = make_channel(math.sqrt(max(1.0 - 2.0 * b, 0.0)), math.sqrt(b), math.sqrt(b))
        return channel_entropy(ch) > e

    return math.sqrt(tuple_bisect(above, 1.0 / 3.0, 0.5))


def special_case_basis(variant: str, theta: float) -> MeasurementBasis:
    """The two closed-form basis families of the degenerate (a0 = 0) channel.

    Variant "A" keeps theta1 free; variant "B" keeps theta2 free. Both are
    assemble_D12 at theta3 = pi/4 and phases (0, pi). The two families are
    not related by any local unitary.
    """
    if not (-qlinalg.TOL.entry <= theta <= math.pi / 2 + qlinalg.TOL.entry):
        raise ValueError(f"theta = {theta} outside [0, pi/2]")
    angles = {"A": (theta, 0.0, math.pi / 4), "B": (0.0, theta, math.pi / 4)}
    if variant not in angles:
        raise ValueError(f"unknown variant {variant!r}; expected 'A' or 'B'")
    return assemble_D12(SchemeParams(theta=angles[variant], delta=(0.0, math.pi)))[1]


TWO_QUBIT_LABELS = ("1+", "2+", "1-", "2-")


def two_qubit_D12(u, eta: float, delta: float) -> np.ndarray:
    """4x4 measurement unitary of the two-qubit scheme; rows are basis kets.

    u is a real 2x2 orthogonal matrix; row order TWO_QUBIT_LABELS over
    columns (|00>, |01>, |10>, |11>).
    """
    u = np.asarray(u, dtype=float)
    check_unitary(u)
    ce, se = math.cos(eta), math.sin(eta)
    ph = np.exp(-1j * delta)
    dmat = np.array([
        [u[0, 0], 0, 0, u[0, 1]],
        [u[1, 0] * ce, u[1, 1] * ph * se, u[1, 0] * se, u[1, 1] * ce],
        [0, u[0, 1] * ph, u[0, 0], 0],
        [-u[1, 0] * se, u[1, 1] * ph * ce, u[1, 0] * ce, -u[1, 1] * se],
    ], dtype=complex)
    check_unitary(dmat)
    return dmat


def two_qubit_feasible(a0: float, a1: float) -> bool:
    """Perfect two-qubit teleportation needs a maximally entangled channel."""
    return abs(a0 * a0 - 0.5) <= qlinalg.TOL.entry


def two_qubit_certificate(inp: InputQubit, coeffs, dmat) -> tuple[np.ndarray, np.ndarray]:
    """Teleport one qubit through the two-qubit channel a0|00> + a1|11> with
    the 4x4 measurement dmat (rows the kets, as two_qubit_D12 lays them out).

    Projects the joint state input (x) channel onto each ket of Alice's two
    qubits, splits each collapsed state as alpha*va + beta*vb, tests equal
    weights and orthogonality of va and vb at the library's TOL.correction
    (CorrectionError otherwise), corrects with the unitary whose rows are
    va/|va| and vb/|vb| conjugated, and takes the fidelity. A branch whose
    components are both null (at most TOL.zero_branch) has fidelity 1.
    Returns (probabilities, fidelities), one entry per ket.
    """
    tol = qlinalg.TOL
    chan = np.array([coeffs[0], 0.0, 0.0, coeffs[1]], dtype=complex)

    def project(q):
        # Alice holds the input qubit and her channel qubit, the first two factors
        return np.asarray(dmat).conj() @ np.kron(q, chan).reshape(4, 2)

    comps_a, comps_b = project(np.array([1.0, 0.0])), project(np.array([0.0, 1.0]))
    collapsed = project(input_vector(inp))
    probs, fids = [], []
    for va, vb, c in zip(comps_a, comps_b, collapsed):
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        p = float(np.vdot(c, c).real)
        probs.append(p)
        if max(na, nb) <= tol.zero_branch:
            fids.append(1.0)
            continue
        if abs(na - nb) > tol.correction or abs(np.vdot(va, vb)) > tol.correction:
            raise CorrectionError(f"branch not correctable: |va| = {na:.6g}, |vb| = {nb:.6g}, "
                                  f"|<va|vb>| = {abs(np.vdot(va, vb)):.3e}")
        w = np.array([va / na, vb / nb]).conj()
        fids.append(abs(np.vdot(input_vector(inp), w @ c)) ** 2 / p)
    return np.array(probs), np.array(fids)
