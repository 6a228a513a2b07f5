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

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .channel import SchmidtChannel, is_teleport_capable
from .qlinalg import TOL, check_unitary

BRANCH_LABELS = ("1+", "2+", "3+", "1-", "2-", "3-")

ZETA = math.pi / 4
_COS_ZETA, _SIN_ZETA = math.cos(ZETA), math.sin(ZETA)


class InfeasibleError(Exception):
    """No scheme exists for the requested channel/angle combination."""

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


class PhaseInfeasibleError(InfeasibleError):
    """The three-phasor closure has no solution (triangle inequality violated)."""


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
        if not all(math.isfinite(x) for x in (*self.theta, *self.delta)):
            raise ValueError(f"scheme angles must be finite: {self.theta}, {self.delta}")
        object.__setattr__(self, "rotation", rotation_rows(*self.theta))

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
    """Six orthonormal qubit-qutrit kets, one per measurement outcome.

    vectors is a read-only copy of the array given, so no later write to the
    caller's array reaches the checked basis. Its last two axes must be
    square (ValueError naming the shape otherwise) and each matrix unitary;
    labels names the rows, one label per ket (ValueError otherwise). The
    basis keeps one memo slot for teleport.branch_corrections: the
    corrections of the last coefficients it was asked for, keyed by their
    exact bits. A basis is one object: == and hash go by identity, so two
    bases with equal kets are still two bases.
    """

    vectors: np.ndarray  # (6, 6), row j is the ket for BRANCH_LABELS[j]; (k, 6, 6) holds k bases
    labels: tuple[str, ...] = BRANCH_LABELS
    # (key, corrections) for teleport.branch_corrections; None until its first call
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        vectors = np.array(self.vectors)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        check_unitary(vectors)
        if len(self.labels) != vectors.shape[-2]:
            raise ValueError(f"{len(self.labels)} labels for {vectors.shape[-2]} basis kets")

    def __reduce__(self):
        # copies and pickles rebuild through __init__: read-only kets, checked
        # again, and an empty memo
        return MeasurementBasis, (self.vectors, self.labels)


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
    it.
    """
    total = p + q + r
    for name, val in (("p", p), ("q", q), ("r", r)):
        others = total - val
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
    when theta3 lies outside the feasible window, ValueError when it is not
    finite.
    """
    if not math.isfinite(theta3):
        raise ValueError(f"theta3 must be finite, got {theta3}")
    A, B, C = ch.squares
    lo, hi = admissible_theta3(ch)
    s3 = math.sin(theta3)
    u = s3 ** 2
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
    # the phasor weights from rotation_rows' third row (-s2, c2 s3, c2 c3)
    c3 = math.cos(theta3)
    d1, d2 = phases_from_weights(A * (-s2) ** 2, B * (c2 * s3) ** 2, C * (c2 * c3) ** 2)
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
    u = params.rotation
    d1, d2 = params.delta
    r1 = A * u[0][0] ** 2 + C * u[0][2] ** 2 - B * u[0][1] ** 2
    r2 = A * u[1][0] ** 2 + C * u[1][2] ** 2 - B * u[1][1] ** 2
    r3 = abs(
        A * u[2][0] ** 2
        + B * u[2][1] ** 2 * cmath.exp(1j * d1)
        + C * u[2][2] ** 2 * cmath.exp(-1j * d2)
    )
    return abs(r1), abs(r2), r3


def assemble_D12(params: SchemeParams) -> tuple[np.ndarray, MeasurementBasis]:
    """The 6x6 measurement unitary, rows the six basis kets, and its basis.

    Row order is (1+, 2+, 3+, 1-, 2-, 3-) over the computational columns
    (|00>, |01>, |02>, |10>, |11>, |12>). The basis is params.basis, built and
    checked for unitarity once per scheme: every call returns that one basis
    object and its read-only array. measurement_bases fills the same layout
    for k schemes.
    """
    basis = params.basis
    return basis.vectors, basis


def measurement_bases(schemes) -> MeasurementBasis:
    """The bases of k schemes as one (k, 6, 6) stack, checked for unitarity in one call."""
    entries = []
    for params in schemes:
        entries += _d12_entries(params)
    return MeasurementBasis(vectors=np.array(entries, dtype=complex).reshape(-1, 6, 6))


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
