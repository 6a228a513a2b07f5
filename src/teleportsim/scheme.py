"""Construction of Alice's joint-measurement unitary.

The 6x6 measurement unitary is assembled from a 3x3 rotation U, two column
phases (delta1, delta2) and a balance angle zeta frozen at pi/4. For a given
channel the perfect-teleportation constraints reduce to closed form:

* the row-sum of the two weight-balance residuals is linear in sin^2(theta2),
  fixing theta2 (or leaving it free on a degenerate ridge);
* the remaining residual is a single harmonic in 2*theta1, fixed by atan2;
* theta3 stays free inside an admissible window that is an intersection of
  half-lines in u = sin^2(theta3), so the window is exact, not searched.

The phases come from a law-of-cosines closure of the three-phasor sum over
the third row.

solve_constraints, the one place that accepts a scheme, returns only schemes
that certify_scheme certifies: fidelity 1 on every branch for every input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .channel import SchmidtChannel, _require_capable, is_teleport_capable
from .qlinalg import TOL, check_unitary

BRANCH_LABELS = ("1+", "2+", "3+", "1-", "2-", "3-")

ZETA = math.pi / 4
_COS_ZETA, _SIN_ZETA = math.cos(ZETA), math.sin(ZETA)


class InfeasibleError(Exception):
    """No scheme exists for the requested channel/angle combination."""

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class SchemeParams:
    """Angles defining Alice's measurement: rotation and phases (balance angle ZETA).

    rotation is rotation_rows(*theta), built once here and read by every
    per-scheme formula (residuals, basis, probabilities, tangles). It is not an
    init argument, and equality, hashing, repr and to_json_dict ignore it, so a
    scheme is still its angles alone.
    """

    theta: tuple[float, float, float]
    delta: tuple[float, float]
    rotation: list[list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (t1, t2, t3), (d1, d2), isfinite = self.theta, self.delta, math.isfinite
        if not (isfinite(t1) and isfinite(t2) and isfinite(t3) and isfinite(d1) and isfinite(d2)):
            raise ValueError(f"scheme angles must be finite: {self.theta}, {self.delta}")
        object.__setattr__(self, "rotation", rotation_rows(t1, t2, t3))

    @cached_property
    def basis(self) -> MeasurementBasis:
        """This scheme's measurement basis (assemble_D12's), built and checked
        on first read and kept.

        Not a field, so equality, hashing, repr, to_json_dict and
        dataclasses.replace ignore it; a scheme that is never measured never
        builds it.
        """
        return MeasurementBasis(vectors=np.array(_d12_entries(self), dtype=complex).reshape(6, 6))

    def to_json_dict(self) -> dict:
        return {"theta": list(self.theta), "delta": list(self.delta), "zeta": ZETA}


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Six orthonormal qubit-qutrit kets, one per measurement outcome, row j
    the ket for BRANCH_LABELS[j].

    vectors is a read-only copy of the array given, so no later write to the
    caller's array reaches the checked basis. It must be (6, 6) (ValueError
    naming the shape otherwise) and unitary. The basis keeps one memo slot
    for teleport.branch_corrections: the components, corrections and zero
    flags of the last coefficients it was asked for, keyed by their exact
    bits. A basis is one object: == and hash go by identity, so two bases
    with equal kets are still two bases.
    """

    vectors: np.ndarray
    # teleport.branch_corrections' (key, comps, w, zero flags, comps.tolist(), Bob's rows)
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors)
        if vectors.shape != (6, 6):
            raise ValueError(f"expected (6, 6) qubit-qutrit kets, got shape {vectors.shape}")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        check_unitary(vectors)

    def __reduce__(self):
        # copies and pickles rebuild through __init__: read-only kets, checked
        # again, and an empty memo
        return MeasurementBasis, (self.vectors,)


def rotation_rows(theta1: float, theta2: float, theta3: float) -> list[list[float]]:
    """SO(3) rotation as a product of plane rotations G01(t1) G02(-t2) G12(t3),
    multiplied out into nested lists of Python floats.

    Closed-form code indexes them as u[i][j], without numpy scalar overhead
    on every product; np.array(rotation_rows(...)) is the matrix.
    """
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    return [
        [c1 * c2, c1 * s2 * s3 - s1 * c3, c1 * s2 * c3 + s1 * s3],
        [s1 * c2, s1 * s2 * s3 + c1 * c3, s1 * s2 * c3 - c1 * s3],
        [-s2, c2 * s3, c2 * c3],
    ]


def phases_from_weights(p: float, q: float, r: float) -> tuple[float, float]:
    """Solve p + q e^{i d1} + r e^{-i d2} = 0 for (d1, d2).

    p, q, r are the nonnegative squared weights of the third-row phasors.
    The d1 branch with sin(d1) >= 0 is returned. Plain floats and numpy
    scalars give the same bits: the complex quotient is taken as numpy takes
    it. Weights that break the triangle inequality raise InfeasibleError.
    """
    total, slack = p + q + r, TOL.entry
    # a NaN weight passes (every comparison with it is False); the message is built on failure only
    if p > total - p + slack or q > total - q + slack or r > total - r + slack:
        name, val = next((name, val) for name, val in (("p", p), ("q", q), ("r", r))
                         if val > total - val + slack)
        raise InfeasibleError(f"phasor closure infeasible: weight {name}={val:.6g} exceeds "
                              f"the sum of the other two ({total - val:.6g})")
    if q <= TOL.weight and r <= TOL.weight:
        return 0.0, 0.0
    if p <= TOL.weight or q <= TOL.weight:
        # remaining pair must cancel: e^{-i d2} = -1 (a vanishing q also forces p ~ r)
        return 0.0, math.pi
    if r <= TOL.weight:
        return math.pi, 0.0
    cos_d1 = (r * r - p * p - q * q) / (2.0 * p * q)
    d1 = math.acos(min(max(cos_d1, -1.0), 1.0))
    # e^{-i d2} = (x + iy) / r with x + iy = -(p + q e^{i d1}), divided as numpy
    # divides a complex by a real: times 1/r, the imaginary part less x * 0,
    # which makes y = -0 a +0 when x < 0 (d1 = 0), so that d2 is -pi, not pi
    x, y = -(p + q * math.cos(d1)), -(q * math.sin(d1))
    inv = 1.0 / r
    d2 = -math.atan2((y - x * 0.0) * inv, x * inv)
    return d1, d2


def _window_from_halflines(lo: float, hi: float, cons) -> tuple[float, float] | None:
    """Intersect [lo, hi] with linear constraints alpha*u <= beta."""
    for alpha, beta in cons:
        # coefficients are O(1) combinations of channel squares; magnitudes
        # below TOL.degenerate are cancellation noise: the constraint is vacuous
        if alpha > TOL.degenerate:
            hi = min(hi, beta / alpha)
        elif alpha < -TOL.degenerate:
            lo = max(lo, beta / alpha)
        elif beta < -TOL.entry:
            return None
    if lo > hi + TOL.window:
        return None
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, lo), 1.0)
    return lo, hi


# every solve re-derives its channel's window, and a sweep solves several
# points of one channel in a row
@lru_cache(maxsize=16)
def admissible_u_window(ch: SchmidtChannel) -> tuple[float, float]:
    """Admissible interval of u = sin^2(theta3) for a canonical channel.

    The weight-balance equations force sin^2(theta2) = N/(N+d) with
    N = (B+C)u - (B-A), and the phasor closure adds three inequalities that
    are all linear in u, so the feasible set is a single exact interval.
    Raises InfeasibleError for a channel is_teleport_capable refuses, and,
    failing closed, should a capable channel's half-lines not meet.
    """
    A, B, C = ch.squares
    if B + TOL.entry < max(A, C):
        raise ValueError("channel must be canonicalized (maximal coefficient at index 1)")
    d = B - C
    cons = [
        (-(B + C), -(B - A)),                      # N >= 0
        (A * (B + C) - d * d, d * C + A * (B - A)),    # p <= q + r
        ((B + C) * (d - A), C * d - A * (B - A)),      # q <= p + r
        (-(B + C) * (A + d), -(C * d + A * (B - A))),  # r <= p + q
    ]
    w = _window_from_halflines(0.0, 1.0, cons) if is_teleport_capable(ch) else None
    if w is None:
        raise InfeasibleError(
            f"no admissible theta3 for channel a^2 = ({A:.6g}, {B:.6g}, {C:.6g}); "
            "perfect teleportation requires max a_j^2 <= 1/2"
        )
    return w


def admissible_theta3(ch: SchmidtChannel) -> tuple[float, float]:
    """Admissible theta3 interval in radians (monotone image of the u window)."""
    lo, hi = admissible_u_window(ch)
    return math.asin(math.sqrt(lo)), math.asin(math.sqrt(hi))


@lru_cache(maxsize=16)
def free_theta2_window(ch: SchmidtChannel, u: float) -> tuple[float, float]:
    """Phasor-feasible interval of sin^2(theta2) when theta2 is unconstrained.

    Only meaningful on the degenerate ridge (a1 = a2 at the pinned theta3),
    where the weight-balance equations leave theta2 free and only the phasor
    triangle restricts it.
    """
    A, B, C = ch.squares
    qr = B * u + C * (1.0 - u)
    cons = [(A + qr, qr)]  # p <= q + r
    for big, rest in ((B * u, C * (1.0 - u)), (C * (1.0 - u), B * u)):
        e = big - rest
        if e > TOL.entry:
            cons.append((-(A + e), -e))  # w >= e/(A+e)
    w = _window_from_halflines(0.0, 1.0, cons)
    if w is None:
        raise InfeasibleError("no feasible theta2 at this theta3", interval=None)
    return w


def solve_constraints(
    ch: SchmidtChannel,
    theta3: float,
    *,
    theta2_hint: float = math.pi / 4,
    theta1_hint: float = 0.0,
) -> SchemeParams:
    """Solve the perfect-teleportation constraints at a given theta3.

    The channel must be capable and canonicalized. The hints are consumed
    only when the corresponding angle is left free by the constraints
    (degenerate channels); otherwise both angles are pinned in closed form.
    theta3 is gated on u = sin^2(theta3) against admissible_u_window, within
    TOL.entry. Raises InfeasibleError (with the admissible theta3 interval
    attached) when theta3 lies outside that window or the scheme's
    certify_scheme deviation is not at most DEVIATION_BOUND (the message names
    the worst branch pair), ValueError when theta3 is not finite.
    """
    if not math.isfinite(theta3):
        raise ValueError(f"theta3 must be finite, got {theta3}")
    A, B, C = ch.squares
    ulo, uhi = admissible_u_window(ch)
    s3 = math.sin(theta3)
    u = s3 ** 2
    if not (ulo - TOL.entry <= u <= uhi + TOL.entry):
        lo, hi = admissible_theta3(ch)
        raise InfeasibleError(
            f"theta3 = {theta3:.6g} outside the admissible interval "
            f"[{lo:.6g}, {hi:.6g}] for this channel",
            interval=(lo, hi),
        )
    d = B - C
    n = (B + C) * u - (B - A)
    if abs(n) < TOL.degenerate and abs(n + d) < TOL.degenerate:
        # degenerate ridge: theta2 free up to the phasor triangle
        wlo, whi = free_theta2_window(ch, u)
        w = math.sin(theta2_hint) ** 2
        w = min(max(w, wlo), whi)
        theta2 = math.asin(math.sqrt(w))
    else:
        x = min(max(n / (n + d), 0.0), 1.0)
        theta2 = math.asin(math.sqrt(x))
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3sq, s3sq = 1.0 - u, u
    k = A * c2 * c2 + C * s2 * s2 * c3sq - B * s2 * s2 * s3sq
    ell = C * s3sq - B * c3sq
    m = s2 * math.sqrt(s3sq * c3sq) * (B + C)
    if abs(ell - k) < TOL.degenerate and abs(m) < TOL.degenerate:
        theta1 = theta1_hint
    else:
        theta1 = 0.5 * math.atan2(ell - k, 2.0 * m)
    # the phasor weights from rotation_rows' third row (-s2, c2 s3, c2 c3)
    c3 = math.cos(theta3)
    d1, d2 = phases_from_weights(A * (-s2) ** 2, B * (c2 * s3) ** 2, C * (c2 * c3) ** 2)
    params = SchemeParams(theta=(theta1, theta2, theta3), delta=(d1, d2))
    if not certify_scheme(ch, params) <= DEVIATION_BOUND:  # fail closed: NaN does not pass
        devs = _pair_deviations(ch, params)
        j = max(range(3), key=lambda i: math.inf if math.isnan(devs[i]) else devs[i])
        raise InfeasibleError(
            f"scheme at theta3 = {theta3:.6g} not certified: branches "
            f"{('1+/2+', '1-/2-', '3+/3-')[j]} deviate by {devs[j]:.3g} of their weight "
            f"(bound {DEVIATION_BOUND:.3g})",
            interval=admissible_theta3(ch),
        )
    return params


def constraint_residuals(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, float, float]:
    """Absolute residuals of the two weight-balance equations and the phasor sum."""
    A, B, C = ch.squares
    u = params.rotation
    r1 = A * u[0][0] ** 2 + C * u[0][2] ** 2 - B * u[0][1] ** 2
    r2 = A * u[1][0] ** 2 + C * u[1][2] ** 2 - B * u[1][1] ** 2
    return abs(r1), abs(r2), _phasor_residual(A, B, C, u[2], params.delta)


def _phasor_residual(A: float, B: float, C: float, row, delta) -> float:
    """|A u20^2 + B u21^2 e^{i d1} + C u22^2 e^{-i d2}|: the phasor residual r3
    of one scheme's third rotation row and phases, for constraint_residuals
    and the certificate alike."""
    (u20, u21, u22), (d1, d2) = row, delta
    return abs(A * u20 ** 2 + B * u21 ** 2 * cmath.exp(1j * d1)
               + C * u22 ** 2 * cmath.exp(-1j * d2))


# the solver's one acceptance rule: a scheme whose certify_scheme deviation is
# at most this teleports every input with fidelity at least 1 - TOL.unitary
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
      (zeta = pi/4) and |<va, vb>| = r3 / 2, with r3 the phasor residual
      (_phasor_residual, the r3 of constraint_residuals), so their
      deviation is r3 / (2p).
    A zero branch (_zero_branch on |va| and |vb|) counts as 0, as
    run_with_basis counts its fidelity as 1. A NaN anywhere gives NaN,
    which fails the gate `deviation <= DEVIATION_BOUND`.

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

    It is the NaN-aware max of _pair_deviations, which keeps the checks of
    run_teleport that do not depend on the input: the channel's capability
    (CapabilityError) and the branch probabilities summing to 1 within
    TOL.entry (ValueError). It raises no CorrectionError: a branch the kernel
    would refuse (||va| - |vb|| or |<va, vb>| above TOL.correction) deviates
    by more than DEVIATION_BOUND, so it fails the gate instead.
    """
    d0, d1, d2 = _pair_deviations(ch, params)
    # a bare max would drop a NaN that does not come first
    return math.nan if math.isnan(d0 + d1 + d2) else max(d0, d1, d2)


def _pair_deviations(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, float, float]:
    """certify_scheme's deviations of the branch pairs 1+/2+, 1-/2-, 3+/3-.

    A 1+/2+ or 1-/2- pair's components have disjoint supports with squared
    norms x and y; the 3+/3- pair's is r3 / (2 p3), r3 from _phasor_residual.
    """
    _require_capable(ch)
    A, B, C = ch.squares
    (u00, u01, u02), (u10, u11, u12), row = params.rotation
    u20, u21, u22 = row
    x0, y0 = A * u00 * u00 + C * u02 * u02, B * u01 * u01
    x1, y1 = A * u10 * u10 + C * u12 * u12, B * u11 * u11
    p3 = 0.5 * (A * u20 * u20 + B * u21 * u21 + C * u22 * u22)
    if abs(x0 + y0 + x1 + y1 + 2.0 * p3 - 1.0) > TOL.entry:  # a NaN goes on to the deviation
        raise ValueError("branch probabilities do not sum to 1")
    devs = []
    for x, y in ((x0, y0), (x1, y1)):
        na, nb = math.sqrt(x), math.sqrt(y)
        if _zero_branch(na, nb):
            devs.append(0.0)
        else:
            sp = math.sqrt(0.5 * (x + y))
            devs.append(max(abs(na - sp), abs(nb - sp)) / sp)
    n3 = math.sqrt(p3)
    if _zero_branch(n3, n3):
        devs.append(0.0)
    else:
        devs.append(0.5 * _phasor_residual(A, B, C, row, params.delta) / p3)
    return tuple(devs)


def _zero_branch(na: float, nb: float) -> bool:
    """The one zero-branch rule: both component norms |va|, |vb| <= TOL.zero_branch."""
    return na <= TOL.zero_branch and nb <= TOL.zero_branch


def assemble_D12(params: SchemeParams) -> tuple[np.ndarray, MeasurementBasis]:
    """The 6x6 measurement unitary, rows the six basis kets, and its basis.

    Row order is (1+, 2+, 3+, 1-, 2-, 3-) over the computational columns
    (|00>, |01>, |02>, |10>, |11>, |12>). The basis is params.basis, built and
    checked for unitarity once per scheme: every call returns that one basis
    object and its read-only array.
    """
    basis = params.basis
    return basis.vectors, basis


def _d12_entries(params: SchemeParams) -> list:
    """The assemble_D12 layout for one scheme: its 36 entries, row by row."""
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = params.rotation
    d1, d2 = params.delta
    e1, e2 = cmath.exp(1j * d1), cmath.exp(1j * d2)
    cz, sz = _COS_ZETA, _SIN_ZETA
    return [
        u00, 0, u02, 0, u01, 0,
        0, u01 * e1, 0, u00, 0, u02 * e2,
        u20 * cz, u21 * e1 * sz, u22 * cz, u20 * sz, u21 * cz, u22 * e2 * sz,
        u10, 0, u12, 0, u11, 0,
        0, u11 * e1, 0, u10, 0, u12 * e2,
        -u20 * sz, u21 * e1 * cz, -u22 * sz, u20 * cz, -u21 * sz, u22 * e2 * cz,
    ]


def find_scheme(ch: SchmidtChannel, *, theta3: float | None = None) -> SchemeParams:
    """Convenience solver: solve_constraints at theta3 when it is given.

    Otherwise solve at the midpoint of the admissible theta3 window and, if
    that scheme is refused, once at the window's bottom lo; if both are
    refused, the midpoint's InfeasibleError is raised. The bottom is the one
    retry because its phasor triangle is flat (the largest weight is the sum
    of the other two, cos d1 = +1): there |p + q e^{i d1}| is stationary in
    d1, so acos's sqrt(ulp) error in d1 reaches the phasor residual only at
    second order. At the window's top the triangle is a needle (r -> 0) and
    that error is first order. An incapable channel has no window, so
    admissible_u_window refuses it.
    """
    if theta3 is not None:
        return solve_constraints(ch, theta3)
    lo, hi = admissible_theta3(ch)
    try:
        return solve_constraints(ch, 0.5 * (lo + hi))
    except InfeasibleError:
        try:
            return solve_constraints(ch, lo)
        except InfeasibleError:
            pass
        raise  # the midpoint's refusal, message and interval
