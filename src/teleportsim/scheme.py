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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, check_unitary

BRANCH_LABELS = ("1+", "2+", "3+", "1-", "2-", "3-")

ZETA = math.pi / 4


class InfeasibleError(Exception):
    """No scheme exists for the requested channel/angle combination."""

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


class PhaseInfeasibleError(InfeasibleError):
    """The three-phasor closure has no solution (triangle inequality violated)."""


@dataclass(frozen=True)
class SchemeParams:
    """Angles defining Alice's measurement: rotation and phases (balance angle ZETA)."""

    theta: tuple[float, float, float]
    delta: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {"theta": list(self.theta), "delta": list(self.delta), "zeta": ZETA}


@dataclass(frozen=True)
class MeasurementBasis:
    """Six orthonormal qubit-qutrit kets, one per measurement outcome."""

    vectors: np.ndarray  # (6, 6), row j is the ket for BRANCH_LABELS[j]
    labels: tuple[str, ...] = BRANCH_LABELS

    def __post_init__(self):
        check_unitary(self.vectors)


def rotation_from_angles(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """SO(3) rotation as a product of plane rotations G01(t1) G02(-t2) G12(t3)."""
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    c3, s3 = math.cos(theta3), math.sin(theta3)
    return np.array([
        [c1 * c2, c1 * s2 * s3 - s1 * c3, c1 * s2 * c3 + s1 * s3],
        [s1 * c2, s1 * s2 * s3 + c1 * c3, s1 * s2 * c3 - c1 * s3],
        [-s2, c2 * s3, c2 * c3],
    ])


def phases_from_weights(p: float, q: float, r: float) -> tuple[float, float]:
    """Solve p + q e^{i d1} + r e^{-i d2} = 0 for (d1, d2).

    p, q, r are the nonnegative squared weights of the third-row phasors.
    The d1 branch with sin(d1) >= 0 is returned.
    """
    sides = {"p": p, "q": q, "r": r}
    for name, val in sides.items():
        others = sum(sides.values()) - val
        if val > others + TOL.entry:
            raise PhaseInfeasibleError(
                f"phasor closure infeasible: weight {name}={val:.6g} exceeds "
                f"the sum of the other two ({others:.6g})"
            )
    if q <= TOL.weight and r <= TOL.weight:
        return 0.0, 0.0
    if p <= TOL.weight or q <= TOL.weight:
        # remaining pair must cancel: e^{-i d2} = -1 (a vanishing q also forces p ~ r)
        return 0.0, math.pi
    if r <= TOL.weight:
        return math.pi, 0.0
    cos_d1 = (r * r - p * p - q * q) / (2.0 * p * q)
    d1 = math.acos(min(max(cos_d1, -1.0), 1.0))
    z = -(p + q * complex(math.cos(d1), math.sin(d1))) / r  # = e^{-i d2}
    d2 = -math.atan2(z.imag, z.real)
    return d1, d2


def solve_phases(ch: SchmidtChannel, u: np.ndarray) -> tuple[float, float]:
    """Column phases closing the third-row phasor sum for channel ch and rotation u."""
    a0sq, a1sq, a2sq = ch.squares
    p = a0sq * u[2, 0] ** 2
    q = a1sq * u[2, 1] ** 2
    r = a2sq * u[2, 2] ** 2
    return phases_from_weights(p, q, r)


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


def admissible_u_window(ch: SchmidtChannel) -> tuple[float, float]:
    """Admissible interval of u = sin^2(theta3) for a canonical channel.

    The weight-balance equations force sin^2(theta2) = N/(N+d) with
    N = (B+C)u - (B-A), and the phasor closure adds three inequalities that
    are all linear in u, so the feasible set is a single exact interval.
    Raises InfeasibleError when it is empty (incapable channel).
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
    w = _window_from_halflines(0.0, 1.0, cons)
    if w is None:
        raise InfeasibleError(
            f"no admissible theta3 for channel a^2 = ({A:.6g}, {B:.6g}, {C:.6g}); "
            "perfect teleportation requires max a_j^2 <= 1/2",
            interval=None,
        )
    return w


def admissible_theta3(ch: SchmidtChannel) -> tuple[float, float]:
    """Admissible theta3 interval in radians (monotone image of the u window)."""
    lo, hi = admissible_u_window(ch)
    return math.asin(math.sqrt(lo)), math.asin(math.sqrt(hi))


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
    Raises InfeasibleError (with the admissible theta3 interval attached)
    when theta3 lies outside the feasible window.
    """
    A, B, C = ch.squares
    lo, hi = admissible_theta3(ch)
    u = math.sin(theta3) ** 2
    ulo, uhi = math.sin(lo) ** 2, math.sin(hi) ** 2
    if not (ulo - TOL.entry <= u <= uhi + TOL.entry):
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
    umat = rotation_from_angles(theta1, theta2, theta3)
    d1, d2 = solve_phases(ch, umat)
    params = SchemeParams(theta=(theta1, theta2, theta3), delta=(d1, d2))
    res = constraint_residuals(ch, params)
    if max(res) > TOL.unitary:
        raise InfeasibleError(
            f"constraint residuals {res} exceed tolerance at theta3 = {theta3:.6g}",
            interval=(lo, hi),
        )
    return params


def constraint_residuals(ch: SchmidtChannel, params: SchemeParams) -> tuple[float, float, float]:
    """Absolute residuals of the two weight-balance equations and the phasor sum."""
    A, B, C = ch.squares
    u = rotation_from_angles(*params.theta)
    d1, d2 = params.delta
    r1 = A * u[0, 0] ** 2 + C * u[0, 2] ** 2 - B * u[0, 1] ** 2
    r2 = A * u[1, 0] ** 2 + C * u[1, 2] ** 2 - B * u[1, 1] ** 2
    r3 = abs(
        A * u[2, 0] ** 2
        + B * u[2, 1] ** 2 * np.exp(1j * d1)
        + C * u[2, 2] ** 2 * np.exp(-1j * d2)
    )
    return abs(r1), abs(r2), float(r3)


def assemble_D12(params: SchemeParams) -> tuple[np.ndarray, MeasurementBasis]:
    """Assemble the 6x6 measurement unitary; rows are the six basis kets.

    Row order is (1+, 2+, 3+, 1-, 2-, 3-) over the computational columns
    (|00>, |01>, |02>, |10>, |11>, |12>). Unitarity is checked once, by
    MeasurementBasis.
    """
    # plain Python scalars: the same products as numpy scalars, without their overhead
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = rotation_from_angles(*params.theta).tolist()
    e1, e2 = np.exp(1j * np.asarray(params.delta)).tolist()
    cz, sz = math.cos(ZETA), math.sin(ZETA)
    dmat = np.array([
        [u00, 0, u02, 0, u01, 0],
        [0, u01 * e1, 0, u00, 0, u02 * e2],
        [u20 * cz, u21 * e1 * sz, u22 * cz, u20 * sz, u21 * cz, u22 * e2 * sz],
        [u10, 0, u12, 0, u11, 0],
        [0, u11 * e1, 0, u10, 0, u12 * e2],
        [-u20 * sz, u21 * e1 * cz, -u22 * sz, u20 * cz, -u21 * sz, u22 * e2 * cz],
    ], dtype=complex)
    return dmat, MeasurementBasis(vectors=dmat)


def special_case_basis(variant: str, theta: float) -> MeasurementBasis:
    """The two closed-form basis families of the degenerate (a0 = 0) channel.

    Variant "A" keeps theta1 free; variant "B" keeps theta2 free. Both are
    assemble_D12 at theta3 = pi/4 and phases (0, pi). The two families are
    not related by any local unitary.
    """
    if not (-TOL.entry <= theta <= math.pi / 2 + TOL.entry):
        raise ValueError(f"theta = {theta} outside [0, pi/2]")
    angles = {"A": (theta, 0.0, math.pi / 4), "B": (0.0, theta, math.pi / 4)}
    if variant not in angles:
        raise ValueError(f"unknown variant {variant!r}; expected 'A' or 'B'")
    return assemble_D12(SchemeParams(theta=angles[variant], delta=(0.0, math.pi)))[1]


TWO_QUBIT_LABELS = ("1+", "2+", "1-", "2-")


def two_qubit_D12(u, eta: float, delta: float) -> np.ndarray:
    """4x4 measurement unitary of the two-qubit scheme; rows are basis kets.

    u is a real 2x2 orthogonal matrix; row order (1+, 2+, 1-, 2-) over
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
    return abs(a0 * a0 - 0.5) <= TOL.entry


def find_scheme(ch: SchmidtChannel, *, theta3: float | None = None) -> SchemeParams:
    """Convenience solver: pick a feasible theta3 (window midpoint) if not given."""
    if not is_teleport_capable(ch):
        raise InfeasibleError(
            f"channel {ch.a} is not teleport-capable (max a_j^2 > 1/2)", interval=None
        )
    if theta3 is None:
        lo, hi = admissible_theta3(ch)
        theta3 = 0.5 * (lo + hi)
    return solve_constraints(ch, theta3)
