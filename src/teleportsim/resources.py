"""Resource accounting: entanglement consumed, classical bits sent, and the
trade-off bounds on their sum.

Quantities per scheme, all from one resource_report pass, a ResourceReport
tuple (its closed-form branch probabilities and tangles have no other home
in the library):
* e_channel — entanglement entropy of the shared channel;
* e12 — probability-weighted average entanglement of the measurement basis;
* h12 — Shannon entropy of the outcome distribution (classical cost);
* gour_e12 — the e12 of Gour's protocol on the same channel, for comparison.

Bounds as functions of channel entanglement E:
* upper_bound_sum — the optimal-curve value of e12 + h12 for the one-parameter
  family a2 = a1 (expressed through a1). It bounds the sum on that family
  only: off it, a valid scheme can sum above the curve at the same E (the
  tests pin one, 1.2e-5 bits above);
* lower_bound_sum — piecewise envelope f1 (E < 3/2, via an auxiliary weight q
  with H(q) = 2(E-1)) and the affine f2 = k*E + b (E >= 3/2).

The trade-off, e12 falling as h12 rises along a channel's schemes, holds
strictly on the face max a_j^2 = 1/2 and at a0 = 0, not in a generic window:
on the case-1 ridge (a2 = a1) many theta2 steps move both the same way.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .channel import SchmidtChannel
from .qlinalg import (LOG2_3, TOL, _binary_entropy, _entanglement_from_tangle, binary_entropy,
                      bisect, entanglement_from_tangle)
from .scheme import PhaseInfeasibleError, SchemeParams, phases_from_weights

# affine piece of the lower bound: f2(E) = K_SLOPE * E + B_INTERCEPT,
# pinned by f2(log2 3) = 1 + log2 6 and the stated slope
K_SLOPE = (5.0 / 3.0 - LOG2_3) / (LOG2_3 - 1.5)
B_INTERCEPT = 2.0 * LOG2_3 + 11.0 / 6.0 - 1.0 / (4.0 * LOG2_3 - 6.0)
# the probabilities every check takes: [0, 1], TOL.entry wide on each side (NaN fails)
_P_MIN, _P_MAX = -TOL.entry, 1.0 + TOL.entry
# the call ResourceReport's generated __new__ makes, here without that Python frame
_tuple_new = tuple.__new__


class ResourceReport(NamedTuple):
    """All resource quantifiers of one solved scheme on one channel: a
    tuple of its six fields, in this order."""

    e_channel: float
    e12: float
    h12: float
    tangles: tuple[float, ...]
    probabilities: tuple[float, ...]
    sum: float

    def to_json_dict(self) -> dict:
        return {
            "e_channel": self.e_channel,
            "e12": self.e12,
            "h12": self.h12,
            "tangles": list(self.tangles),
            "probabilities": list(self.probabilities),
            "sum": self.sum,
        }


def measurement_entanglement(probabilities, tangles) -> float:
    """e12 = sum of P_j * H((1 + sqrt(1 - C_j)) / 2) over branches, added left
    to right, never through sum(), which compensates float sums from Python
    3.12 on. Sequences of unequal length raise ValueError naming both, and a
    probability outside [0, 1] or NaN raises classical_cost's ValueError."""
    probabilities, tangles = list(probabilities), list(tangles)
    if len(probabilities) != len(tangles):
        raise ValueError(f"{len(probabilities)} probabilities but {len(tangles)} tangles")
    total = 0.0
    for p, c in zip(probabilities, tangles):
        _check_probability(p)
        total += p * entanglement_from_tangle(c)
    return float(total)


def _check_probability(p: float) -> None:
    if not (_P_MIN <= p <= _P_MAX):  # NaN fails too
        raise ValueError(f"probability {p} outside [0, 1]")


def classical_cost(probabilities) -> float:
    """Shannon entropy (bits) of the outcome distribution, with 0 log 0 = 0;
    a probability more than TOL.entry outside [0, 1], or a NaN, raises
    ValueError."""
    h = 0.0
    for p in probabilities:
        _check_probability(p)
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def _triangle_entanglement(xi1: float, xi2: float) -> float:
    """H((1 + sqrt(1 - C)) / 2) for the tangle C = 1 - |1 + e^{i xi1} + e^{i xi2}|^2 / 9."""
    rad = 1.0 / 3.0 + (2.0 / 9.0) * (math.cos(xi1) + math.cos(xi2) + math.cos(xi1 - xi2))
    return binary_entropy((1.0 + math.sqrt(max(rad, 0.0))) / 2.0)


def gour_e12(ch: SchmidtChannel) -> float:
    """Average measurement entanglement of Gour's protocol (Phys. Rev. A 70,
    042301 (2004)) on a capable channel, in any coefficient order.

    Gour's six kets (1/sqrt 6) sum_j w^{mj} (|0> + s e^{i xi_j} |1>)|j>
    (m = 0, 1, 2; s = +-1; w = e^{2 pi i/3}) all have the tangle of
    _triangle_entanglement(xi1, xi2), where xi = (0, d1, -d2) closes
    sum_j a_j^2 e^{i xi_j} = 0: phases_from_weights(*ch.squares). Raises
    ValueError for an incapable channel.
    """
    try:
        d1, d2 = phases_from_weights(*ch.squares)
    except PhaseInfeasibleError as exc:
        raise ValueError(f"channel {ch.a} is not teleport-capable (max a_j^2 > 1/2)") from exc
    return _triangle_entanglement(d1, -d2)


def upper_bound_sum(a1: float) -> float:
    """e12 + h12 along the optimal curve of the a2 = a1 family, via a1.

    An upper bound on the sum for the schemes of that family only, not for
    every channel of the same entanglement.

    The curve pins theta3 by cos(2*theta3) = (1 - 2*a1^2)/a1^2 and theta1 by
    tan(2*theta1) = -sqrt(2)/tan(2*theta3); the sum is evaluated in closed
    form. Domain: 1/3 <= a1^2 <= 1/2.
    """
    b = a1 * a1
    # the domain is 0 <= arg <= 1; b = 0 (a1 = 0, or a square that underflows) lies outside it
    arg = (1.0 - 2.0 * b) / b if b > 0.0 else math.inf
    if not (-TOL.entry <= arg <= 1.0 + TOL.entry):  # NaN fails too
        raise ValueError(f"a1 = {a1} outside domain (1/3 <= a1^2 <= 1/2)")
    t3 = 0.5 * math.acos(min(max(arg, -1.0), 1.0))
    tan23 = math.tan(2.0 * t3)
    t1 = 0.5 * math.atan(-math.sqrt(2.0) / tan23) if abs(tan23) > 1e-300 else -math.pi / 4
    c1, s1 = math.cos(t1) ** 2, math.sin(t1) ** 2
    c3, s3 = math.cos(t3) ** 2, math.sin(t3) ** 2
    tangles = (1.0 - c1 * c1 * s3 * s3, 1.0 - s1 * s1 * s3 * s3, c3 * (1.0 + s3))
    den = 4.0 + 2.0 * math.cos(2.0 * t3)
    probs = ((s1 + c1 * c3) / den, (c3 + c1 * s3) / den, c3 / den)
    total = 0.0
    for p, c in zip(probs, tangles):
        total += 2.0 * p * (entanglement_from_tangle(min(max(c, 0.0), 1.0)) - math.log2(p))
    return total


def _g_of_q(q: float) -> float:
    """Value of the low-entanglement bound piece at auxiliary weight q."""
    if q <= 0.0:
        return 3.0
    return (
        (q + 3.0) / (q + 1.0)
        + 2.0 * math.log2(q + 1.0)
        - (2.0 * q + 1.0) / (q + 1.0) ** 2 * math.log2(2.0 * q + 1.0)
        - q * (2.0 * q + 1.0) / (q + 1.0) ** 2 * math.log2(q)
    )


def _q_from_entropy(e: float) -> float:
    """Solve H(q) = 2(E - 1) for q in [0, 1/2] by bisection."""
    target = 2.0 * (e - 1.0)
    # every midpoint lies in [0, 1/2], so each step takes the unchecked core
    return bisect(lambda q: _binary_entropy(q) < target, 0.0, 0.5)


def lower_bound_sum(e: float) -> float:
    """Piecewise lower envelope of e12 + h12 at channel entanglement E.

    E < 3/2 uses the q-parameterized piece; E >= 3/2 the affine piece
    (the two pieces disagree at E = 3/2; the affine value is returned there).
    Domain: 1 < E <= log2 3 (+ tolerance).
    """
    if not (1.0 - TOL.entry < e <= LOG2_3 + TOL.entry):
        raise ValueError(f"channel entanglement {e} outside (1, log2 3]")
    if e < 1.5:
        return _g_of_q(_q_from_entropy(e))
    return K_SLOPE * e + B_INTERCEPT


def resource_report(ch: SchmidtChannel, params: SchemeParams) -> ResourceReport:
    """All resource quantifiers of a solved scheme, in one pass: the cached
    rotation's squares give the three distinct probabilities and clipped
    tangles (branches p1 p1 p3 p2 p2 p3), each entropy and log2 is taken once,
    and the e12 and h12 terms are added left to right in branch order, as
    measurement_entanglement and classical_cost add them, with their checks
    and bits: the three tangles are checked for NaN once, then each takes the
    unchecked entropy core. The channel entropy is the channel's cached
    ch.entropy.
    """
    A, B, C = ch.squares
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = params.rotation
    s00, s01, s02 = u00 ** 2, u01 ** 2, u02 ** 2
    s10, s11, s12 = u10 ** 2, u11 ** 2, u12 ** 2
    s20, s21, s22 = u20 ** 2, u21 ** 2, u22 ** 2
    d1, d2 = params.delta
    p1 = A * s00 + C * s02
    p2 = A * s10 + C * s12
    p3 = 0.5 * (A * s20 + B * s21 + C * s22)
    c1 = 4.0 * s01 * (s00 + s02)
    c2 = 4.0 * s11 * (s10 + s12)
    c3 = (2.0 * s20 * s21 * (1.0 - math.cos(d1))
          + 2.0 * s20 * s22 * (1.0 - math.cos(d2))
          + 2.0 * s21 * s22 * (1.0 - math.cos(d1 + d2)))
    # clip to [0, 1] by two comparisons, not min/max calls; a NaN and a -0.0
    # pass through unchanged, as they did with min(max(c, 0.0), 1.0)
    c1 = 0.0 if c1 < 0.0 else 1.0 if c1 > 1.0 else c1
    c2 = 0.0 if c2 < 0.0 else 1.0 if c2 > 1.0 else c2
    c3 = 0.0 if c3 < 0.0 else 1.0 if c3 > 1.0 else c3
    if math.isnan(c1 + c3 + c2):  # the clip keeps a NaN
        for c in (c1, c3, c2):
            entanglement_from_tangle(c)  # raises, naming the first bad tangle
    t1 = p1 * _entanglement_from_tangle(c1)
    t3 = p3 * _entanglement_from_tangle(c3)
    t2 = p2 * _entanglement_from_tangle(c2)
    probs = (p1, p1, p3, p2, p2, p3)
    if not (_P_MIN <= p1 <= _P_MAX and _P_MIN <= p3 <= _P_MAX and _P_MIN <= p2 <= _P_MAX):
        classical_cost(probs)  # raises, naming the first bad probability
    l1 = p1 * math.log2(p1) if p1 > 0.0 else 0.0
    l3 = p3 * math.log2(p3) if p3 > 0.0 else 0.0
    l2 = p2 * math.log2(p2) if p2 > 0.0 else 0.0
    e12 = 0.0 + t1 + t1 + t3 + t2 + t2 + t3  # from 0.0 as the loops, so -0.0 terms give 0.0
    h12 = 0.0 - l1 - l1 - l3 - l2 - l2 - l3
    return _tuple_new(ResourceReport,
                      (ch.entropy, e12, h12, (c1, c1, c3, c2, c2, c3), probs, e12 + h12))
