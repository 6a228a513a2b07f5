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

One acceptance rule, certify_scheme's deviation at most DEVIATION_BOUND
(fidelity 1 on every branch for every input), has two appliers that agree
bit for bit: solve_constraints, the scalar path, and solve_points, which
solves and certifies all of a sweep's points in one array pass. Neither
returns a scheme the rule refuses.
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

    @classmethod
    def _from_rotation(cls, theta, delta, rotation) -> SchemeParams:
        """The scheme with these finite angles and rotation, which the caller
        has computed as rotation_rows(*theta) computes it, bit for bit
        (solve_points' array pass): __post_init__'s checks and rotation_rows
        are skipped, not changed."""
        params = object.__new__(cls)
        params.__dict__.update(theta=theta, delta=delta, rotation=rotation)
        return params

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


# every scalar solve re-derives its channel's window, and solve_points takes
# the window of a channel whose family has just derived it
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


_HINT_NAMES = frozenset({"theta2_hint", "theta1_hint"})
_NO_WINDOW = (2.0, -1.0)  # an empty window: it refuses every point
# cos and sin of the phase pi that phases_from_weights returns without acos
_COS_PI, _SIN_PI = math.cos(math.pi), math.sin(math.pi)


def _map(fn, *values) -> np.ndarray:
    """fn on each value (each tuple of values) of Python lists, through
    Python: no bit depends on the SIMD code numpy dispatches to."""
    return np.fromiter(map(fn, *values), float)


def _squares(values) -> np.ndarray:
    """x ** 2 of each value of a Python list, as Python takes it (libm pow,
    which is not always x * x)."""
    return np.fromiter((x ** 2 for x in values), float)


def _clip(x, lo, hi) -> np.ndarray:
    """min(max(x, lo), hi) with Python's min and max: the first argument wins
    a tie or a NaN, so signed zeros and NaNs come out as they do there."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def solve_points(points) -> list[SchemeParams | None]:
    """solve_constraints over many points in one array pass.

    points is an iterable of (ch, theta3, hints), hints a dict of
    solve_constraints' keyword hints, read once, in order. For each point
    the result is the scheme solve_constraints(ch, theta3, **hints) returns,
    equal to it bit for bit in theta, delta and rotation and holding the
    point's own theta3 object, or None where solve_constraints raises
    InfeasibleError. Any other exception is raised as solve_constraints
    raises it, at the first point that raises one.

    solve_constraints stays the scalar path and the reference: one point
    costs it a few microseconds, where the arrays here cost a few hundred.
    The two apply the one acceptance rule bit for bit. numpy does the
    + - * /, sqrt, real abs, comparisons and clips; every sin, cos, asin,
    acos, atan2, ** 2 and complex abs is taken through Python (_map,
    _squares), as the scalar path takes it. The gate reads the pair
    deviations from _point_deviations, its one seam.

    Each channel's u-window is taken once per run of points on it, through
    admissible_u_window when its first point is read, so a caller that
    yields a channel's points right after deriving its window (the sweeps)
    hits that memo; each ridge theta2-window is taken once per run of
    (channel, u). A point the arrays cannot take (a non-finite theta3, hint
    or channel square, an unknown hint, a channel not canonicalized, a zero
    division, probabilities that do not sum to 1) is solved by
    solve_constraints itself, in order, so every exception keeps its type,
    message and place.
    """
    pts, run_sq, run_win, run_len, run_odd = [], [], [], [], []
    prev = None
    for point in points:
        pts.append(point)
        ch = point[0]
        if ch is prev:
            run_len[-1] += 1
            continue
        prev, win, bad = ch, _NO_WINDOW, False
        try:
            win = admissible_u_window(ch)
        except InfeasibleError:
            pass
        except ValueError:  # not canonicalized: solve_constraints raises it
            bad = True
        run_sq.append(ch.squares if win is not _NO_WINDOW else (0.0, 0.0, 0.0))
        run_win.append(win)
        run_len.append(1)
        run_odd.append(bad)
    out: list[SchemeParams | None] = [None] * len(pts)
    if not pts:
        return out
    chs, t3_objs, hints = zip(*pts)
    h1_objs = [h.get("theta1_hint", 0.0) for h in hints]
    A, B, C = np.repeat(np.array(run_sq, dtype=float), run_len, axis=0).T
    ulo, uhi = np.repeat(np.array(run_win), run_len, axis=0).T
    t3 = np.array(t3_objs, dtype=float)
    h2 = np.array([h.get("theta2_hint", math.pi / 4) for h in hints], dtype=float)
    h1 = np.array(h1_objs, dtype=float)
    odd = np.repeat(np.array(run_odd), run_len)
    odd |= np.array([not h.keys() <= _HINT_NAMES for h in hints])
    odd |= ~(np.isfinite(t3) & np.isfinite(h2) & np.isfinite(h1))
    odd |= ~(np.isfinite(A) & np.isfinite(B) & np.isfinite(C))
    if odd.any():  # the arrays carry an odd point as zeros, which raise nothing
        t3, h2, h1, A, B, C = (np.where(odd, 0.0, v) for v in (t3, h2, h1, A, B, C))
    with np.errstate(divide="ignore", invalid="ignore"):
        t3l = t3.tolist()
        s3l = list(map(math.sin, t3l))
        s3, c3, u = np.array(s3l), _map(math.cos, t3l), _squares(s3l)
        ok = (ulo - TOL.entry <= u) & (u <= uhi + TOL.entry) & ~odd
        d = B - C
        n = (B + C) * u - (B - A)
        ridge = (np.abs(n) < TOL.degenerate) & (np.abs(n + d) < TOL.degenerate)
        odd |= ok & ~ridge & (n + d == 0.0)  # solve_constraints' ZeroDivisionError
        x = _clip(n / (n + d), 0.0, 1.0)
        at = np.flatnonzero(ridge & ok & ~odd)
        if at.size:
            # on the ridge sin^2(theta2) is the hint's, clipped to the
            # theta2-window of each run of (channel, u)
            run_id = np.repeat(np.arange(len(run_len)), run_len)[at].tolist()
            wins, key, win = [], None, None
            for i, r_id, ui in zip(at.tolist(), run_id, u[at].tolist()):
                if key != (r_id, ui):
                    key = (r_id, ui)
                    try:
                        win = free_theta2_window(chs[i], ui)
                    except InfeasibleError:
                        win = _NO_WINDOW
                wins.append(win)
            wlo, whi = np.array(wins).T
            refused = wlo > whi
            ok[at] &= ~refused
            w = _clip(_squares(map(math.sin, h2[at].tolist())), wlo, whi)
            x[at] = np.where(refused, 0.0, w)
        t2l = list(map(math.asin, np.sqrt(x).tolist()))
        c2, s2 = _map(math.cos, t2l), _map(math.sin, t2l)
        c3sq, s3sq = 1.0 - u, u
        k = A * c2 * c2 + C * s2 * s2 * c3sq - B * s2 * s2 * s3sq
        ell = C * s3sq - B * c3sq
        m = s2 * np.sqrt(s3sq * c3sq) * (B + C)
        hinted = (np.abs(ell - k) < TOL.degenerate) & (np.abs(m) < TOL.degenerate)
        t1 = np.where(hinted, h1, 0.5 * _map(math.atan2, (ell - k).tolist(), (2.0 * m).tolist()))
        # phases_from_weights on the weights of the third row (-s2, c2 s3, c2 c3)
        u20, u21, u22 = -s2, c2 * s3, c2 * c3
        p, q, r = (A * _squares(u20.tolist()), B * _squares(u21.tolist()),
                   C * _squares(u22.tolist()))
        total, slack, tiny = p + q + r, TOL.entry, TOL.weight
        ok &= ~((p > total - p + slack) | (q > total - q + slack) | (r > total - r + slack))
        d1l = list(map(math.acos, _clip((r * r - p * p - q * q) / (2.0 * p * q), -1.0, 1.0).tolist()))
        cd1, sd1 = _map(math.cos, d1l), _map(math.sin, d1l)
        xx, yy = -(p + q * cd1), -(q * sd1)
        inv = 1.0 / r
        d2 = -_map(math.atan2, ((yy - xx * 0.0) * inv).tolist(), (xx * inv).tolist())
        cases = [(q <= tiny) & (r <= tiny), (p <= tiny) | (q <= tiny), r <= tiny]
        d1 = np.select(cases, [0.0, 0.0, math.pi], np.array(d1l))
        d2 = np.select(cases, [0.0, math.pi, 0.0], d2)
        cd1 = np.select(cases, [1.0, 1.0, _COS_PI], cd1)
        sd1 = np.select(cases, [0.0, 0.0, _SIN_PI], sd1)
        # the certificate, on rotation_rows(t1, t2, theta3) in its arithmetic
        t1l = t1.tolist()
        c1, s1 = _map(math.cos, t1l), _map(math.sin, t1l)
        u00, u01, u02 = c1 * c2, c1 * s2 * s3 - s1 * c3, c1 * s2 * c3 + s1 * s3
        u10, u11, u12 = s1 * c2, s1 * s2 * s3 + c1 * c3, s1 * s2 * c3 - c1 * s3
        x0, y0 = A * u00 * u00 + C * u02 * u02, B * u01 * u01
        x1, y1 = A * u10 * u10 + C * u12 * u12, B * u11 * u11
        p3 = 0.5 * (A * u20 * u20 + B * u21 * u21 + C * u22 * u22)
        odd |= ok & (np.abs(x0 + y0 + x1 + y1 + 2.0 * p3 - 1.0) > TOL.entry)
        # the certificate's points, each as the scalar path reaches it
        at = np.flatnonzero(ok & ~odd)
        # _phasor_residual's |p + q e^{i d1} + r e^{-i d2}|, each exponential
        # exactly (cos, sin) of its angle; the signs of zero its complex
        # products add do not reach the modulus
        nd2 = (-d2[at]).tolist()
        cd2, sd2 = _map(math.cos, nd2), _map(math.sin, nd2)
        p, q, r = p[at], q[at], r[at]
        r3 = _map(lambda re, im: abs(complex(re, im)),
                  (p + q * cd1[at] + r * cd2).tolist(), (q * sd1[at] + r * sd2).tolist())
        devs = _point_deviations(x0[at], y0[at], x1[at], y1[at], p3[at], r3)
    # certify_scheme's NaN-aware max is at most the bound iff each deviation is
    passed = np.ones(at.size, dtype=bool)
    for dev in devs:
        passed &= dev <= DEVIATION_BOUND
    at = at[passed]
    rows = np.stack([u00, u01, u02, u10, u11, u12, u20, u21, u22], axis=1)[at]
    hinted = hinted.tolist()
    for i, t1i, t2i, d1i, d2i, rot in zip(at.tolist(), t1[at].tolist(), np.array(t2l)[at].tolist(),
                                           d1[at].tolist(), d2[at].tolist(),
                                           rows.reshape(-1, 3, 3).tolist()):
        theta = (h1_objs[i] if hinted[i] else t1i, t2i, t3_objs[i])
        out[i] = SchemeParams._from_rotation(theta, (d1i, d2i), rot)
    for i in np.flatnonzero(odd).tolist():
        try:
            out[i] = solve_constraints(chs[i], t3_objs[i], **hints[i])
        except InfeasibleError:
            pass
    return out


def _point_deviations(x0, y0, x1, y1, p3, r3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_pair_deviations over arrays, from each scheme's branch weights (x, y
    of the 1+/2+ and 1-/2- pairs, p3 of 3+/3-) and phasor residual r3: the
    deviations of the pairs 1+/2+, 1-/2- and 3+/3-, in its arithmetic."""
    zero = TOL.zero_branch
    devs = []
    for x, y in ((x0, y0), (x1, y1)):
        na, nb = np.sqrt(x), np.sqrt(y)
        sp = np.sqrt(0.5 * (x + y))
        a, b = np.abs(na - sp), np.abs(nb - sp)
        devs.append(np.where((na <= zero) & (nb <= zero), 0.0, np.where(b > a, b, a) / sp))
    devs.append(np.where(np.sqrt(p3) <= zero, 0.0, 0.5 * r3 / p3))
    return tuple(devs)


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
