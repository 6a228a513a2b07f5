"""Resource accounting: entanglement consumed, classical bits sent, and the
trade-off bounds on their sum.

Quantities per scheme:
* e_channel — entanglement entropy of the shared channel;
* e12 — probability-weighted average entanglement of the measurement basis;
* h12 — Shannon entropy of the outcome distribution (classical cost);
* gour_e12 — the e12 of Gour's protocol on the same channel, for comparison.

Bounds as functions of channel entanglement E:
* upper_bound_sum — the optimal-curve value of e12 + h12 for the one-parameter
  family a2 = a1 (expressed through a1);
* lower_bound_sum — piecewise envelope f1 (E < 3/2, via an auxiliary weight q
  with H(q) = 2(E-1)) and the affine f2 = k*E + b (E >= 3/2).

The trade-off, e12 falling as h12 rises along a channel's schemes, holds
strictly on the face max a_j^2 = 1/2 and at a0 = 0, not in a generic window:
on the case-1 ridge (a2 = a1) many theta2 steps move both the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SchmidtChannel
from .qlinalg import LOG2_3, TOL, _FAR_MARGIN, binary_entropy, bisect, entanglement_from_tangle
from .scheme import PhaseInfeasibleError, SchemeParams, phases_from_weights
from .teleport import branch_probabilities

# affine piece of the lower bound: f2(E) = K_SLOPE * E + B_INTERCEPT,
# pinned by f2(log2 3) = 1 + log2 6 and the stated slope
K_SLOPE = (5.0 / 3.0 - LOG2_3) / (LOG2_3 - 1.5)
B_INTERCEPT = 2.0 * LOG2_3 + 11.0 / 6.0 - 1.0 / (4.0 * LOG2_3 - 6.0)


@dataclass(frozen=True)
class ResourceReport:
    """All resource quantifiers of one solved scheme on one channel."""

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
    """e12 = sum of P_j * H((1 + sqrt(1 - C_j)) / 2) over branches.

    H is evaluated once per distinct tangle (a scheme's six branches share
    three), and the terms are summed in branch order.
    """
    h = {}
    for c in tangles:
        if c not in h:
            h[c] = entanglement_from_tangle(c)
    return float(sum([p * h[c] for p, c in zip(probabilities, tangles)]))


def classical_cost(probabilities) -> float:
    """Shannon entropy (bits) of the outcome distribution, with 0 log 0 = 0."""
    h = 0.0
    for p in probabilities:
        if not (-TOL.entry <= p):  # NaN fails too
            raise ValueError(f"negative or NaN probability {p}")
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def branch_tangles(params: SchemeParams) -> tuple[float, ...]:
    """Closed-form tangles of the six basis rows, in label order, from the
    scheme's cached rotation."""
    u = params.rotation
    d1, d2 = params.delta
    c12 = 4.0 * u[0][1] ** 2 * (u[0][0] ** 2 + u[0][2] ** 2)
    c12m = 4.0 * u[1][1] ** 2 * (u[1][0] ** 2 + u[1][2] ** 2)
    c3 = (
        2.0 * u[2][0] ** 2 * u[2][1] ** 2 * (1.0 - math.cos(d1))
        + 2.0 * u[2][0] ** 2 * u[2][2] ** 2 * (1.0 - math.cos(d2))
        + 2.0 * u[2][1] ** 2 * u[2][2] ** 2 * (1.0 - math.cos(d1 + d2))
    )
    c12 = min(max(c12, 0.0), 1.0)
    c12m = min(max(c12m, 0.0), 1.0)
    c3 = min(max(c3, 0.0), 1.0)
    return (c12, c12, c3, c12m, c12m, c3)


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

    def below(q: float) -> bool:
        # far steps are settled in plain floats, near ones by binary_entropy
        if q > 0.0:
            h = -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
            if abs(h - target) > _FAR_MARGIN:
                return h < target
        return binary_entropy(q) < target

    return bisect(below, 0.0, 0.5)


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
    """Assemble all resource quantifiers for a solved scheme.

    The probabilities and the tangles read the scheme's cached rotation, and
    the channel entropy is the channel's cached ch.entropy.
    """
    probs = branch_probabilities(ch, params)
    tangles = branch_tangles(params)
    e12 = measurement_entanglement(probs, tangles)
    h12 = classical_cost(probs)
    return ResourceReport(
        e_channel=ch.entropy,
        e12=e12,
        h12=h12,
        tangles=tangles,
        probabilities=probs,
        sum=e12 + h12,
    )
