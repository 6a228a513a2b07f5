"""Sweep engine reproducing the resource-tradeoff data sets.

Three sweeps cover the documented channel families:
* case 1 — a2 = a1 (the one-parameter slice containing the optimal curve,
  whose rows have theta2 = pi/4);
* case 2 — a1 = 1/sqrt(2) (maximal coefficient pinned; the extremal rows
  have theta2 = 0);
* degenerate — a0 = 0, sweeping the free angle theta1.

Each sweep takes a density and rejects one below 2; it draws no random
numbers, so its output depends on the density alone. A family only lists its
channels and each channel's solve_constraints points; one driver, _sweep,
does the rest for all three. It solves a channel's points one by one,
certifies them in stacks of at most _BLOCK schemes with the input-free
certify_stack, which covers every input qubit at once, and accounts each
record that passes the gate with one resource_report call. Every emitted
record teleports every input with fidelity at least 1 - TOL.unitary;
infeasible points are counted and reported, never fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import channel_entropy, make_channel
from .qlinalg import LOG2_3, TOL, _FAR_MARGIN, bisect
from .resources import lower_bound_sum, resource_report, upper_bound_sum
from .scheme import (
    InfeasibleError,
    SchemeParams,
    admissible_u_window,
    free_theta2_window,
    solve_constraints,
)
from .teleport import STACK_BOUND, certify_stack

# number of scheme-angle samples per swept channel
_INNER_GRID = 5

# most schemes certified in one stack. A stack's first record waits for all
# of the stack's solves and its certificate, so the stack size trades the
# latency of that record against the number of certificate calls.
_BLOCK = 3


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One emitted data point: channel, scheme angles, resources, bounds."""

    a0: float
    a1: float
    a2: float
    theta1: float
    theta2: float
    theta3: float
    e_channel: float
    e12: float
    h12: float
    sum: float
    bound_lower: float
    bound_upper: float | None


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    skipped: int


def record_fields() -> tuple[str, ...]:
    return tuple(f.name for f in fields(SweepRecord))


def _bound_lower(e: float) -> float:
    if e <= 1.0 + TOL.entry:
        return 3.0  # two-qubit-reduction limit of the envelope
    return lower_bound_sum(min(e, LOG2_3))


def _grid(lo: float, hi: float, density: int) -> np.ndarray:
    if density < 2:
        raise ValueError("density must be at least 2")
    return np.linspace(lo, hi, density)


def _distinct(values):
    """The values in order, each dropped when one before it rounds to the
    same number at 15 decimals."""
    seen = set()
    for v in values:
        key = round(v, 15)
        if key not in seen:
            seen.add(key)
            yield v


def _sweep(channels) -> SweepResult:
    """The sweep driver: `channels` yields (ch, bound_upper, points), each
    point a (theta3, hints) pair for solve_constraints(ch, theta3, **hints);
    a channel with no points (an empty window) counts as one skipped point.

    Each point is solved in turn, infeasible ones skipped. The solved schemes
    are certified in stacks of at most _BLOCK, a stack never spanning two
    channels, by certify_stack. A record is emitted for each scheme whose
    deviation is at most STACK_BOUND; the rest are skipped.
    """
    records: list[SweepRecord] = []
    skipped = 0
    for ch, bound_upper, points in channels:
        if not points:
            skipped += 1
            continue
        bound_lower = _bound_lower(ch.entropy)
        schemes: list[SchemeParams] = []
        for n, (theta3, hints) in enumerate(points, 1):
            try:
                schemes.append(solve_constraints(ch, theta3, **hints))
            except InfeasibleError:
                skipped += 1
            if not schemes or (len(schemes) < _BLOCK and n < len(points)):
                continue  # certify once the stack is full or the channel ends
            for params, dev in zip(schemes, certify_stack(ch, schemes).tolist()):
                if not (dev <= STACK_BOUND):  # fail closed: NaN does not pass
                    skipped += 1
                    continue
                res = resource_report(ch, params)
                records.append(SweepRecord(
                    a0=ch.a[0], a1=ch.a[1], a2=ch.a[2],
                    theta1=params.theta[0], theta2=params.theta[1], theta3=params.theta[2],
                    e_channel=res.e_channel, e12=res.e12, h12=res.h12, sum=res.sum,
                    bound_lower=bound_lower, bound_upper=bound_upper,
                ))
            schemes = []
    return SweepResult(records=tuple(records), skipped=skipped)


def sweep_case1(density: int) -> SweepResult:
    """Channels with a2 = a1 over the canonical range a1^2 in [1/3, 1/2].

    theta3 is pinned by the channel; theta2 is swept across its feasible
    window, always including theta2 = pi/4 (the optimal-curve rows).
    """
    return _sweep(_case1_channels(density))


def _case1_channels(density: int):
    for a1sq in _grid(1.0 / 3.0, 0.5, density):
        a0sq = max(1.0 - 2.0 * a1sq, 0.0)
        ch = make_channel(math.sqrt(a0sq), math.sqrt(a1sq), math.sqrt(a1sq))
        try:
            ulo, uhi = admissible_u_window(ch)
            ustar = 0.5 * (ulo + uhi)
            theta3 = math.asin(math.sqrt(ustar))
            wlo, whi = free_theta2_window(ch, ustar)
        except InfeasibleError:
            yield ch, None, ()
            continue
        wgrid = [min(max(0.5, wlo), whi), *np.linspace(wlo, whi, _INNER_GRID)]
        points = [(theta3, {"theta2_hint": math.asin(math.sqrt(w))}) for w in _distinct(wgrid)]
        yield ch, upper_bound_sum(math.sqrt(a1sq)), points


def sweep_case2(density: int) -> SweepResult:
    """Channels with a1 = 1/sqrt(2), sweeping a2^2 in [0, 1/2] and theta3."""
    return _sweep(_case2_channels(density))


def _case2_channels(density: int):
    for a2sq in _grid(0.0, 0.5, density):
        a0sq = max(0.5 - a2sq, 0.0)
        ch = make_channel(math.sqrt(a0sq), math.sqrt(0.5), math.sqrt(a2sq))
        try:
            ulo, uhi = admissible_u_window(ch)
        except InfeasibleError:
            yield ch, None, ()
            continue
        us = np.linspace(ulo, uhi, _INNER_GRID).tolist()
        yield ch, None, [(math.asin(math.sqrt(u)), {}) for u in _distinct(us)]


def sweep_degenerate(density: int) -> SweepResult:
    """The a0 = 0 channel swept over the free angle theta1 in [0, pi/2]."""
    grid = _grid(0.0, math.pi / 2, density).tolist()
    ch = make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))
    points = [(math.pi / 4, {"theta2_hint": 0.0, "theta1_hint": t1}) for t1 in grid]
    return _sweep([(ch, None, points)])


def _a1_from_entropy(e: float) -> float:
    """Invert channel entropy on the a2 = a1 slice (a1^2 in [1/3, 1/2]).

    Each bisection step first takes the slice entropy in plain floats and is
    settled by it when that lies more than _FAR_MARGIN from e; only the steps
    nearer the crossing build the channel and read channel_entropy.
    """
    def above(b):  # entropy decreases from log2(3) to 1 as b = a1^2 grows
        c = 1.0 - 2.0 * b  # a0^2, whose term is 0 at c = 0
        h = -2.0 * b * math.log2(b) - (c * math.log2(c) if c > 0.0 else 0.0)
        if abs(h - e) > _FAR_MARGIN:
            return h > e
        ch = make_channel(math.sqrt(c), math.sqrt(b), math.sqrt(b))
        return channel_entropy(ch) > e

    return math.sqrt(bisect(above, 1.0 / 3.0, 0.5))


def bounds_table(e_grid) -> list[tuple[float, float, float]]:
    """Rows (E, lower bound, upper-curve value) on a grid of E in (1, log2 3]."""
    rows = []
    for e in e_grid:
        e = float(e)
        if not (1.0 < e <= LOG2_3 + TOL.entry):
            raise ValueError(f"grid point {e} outside (1, log2 3]")
        rows.append((e, lower_bound_sum(min(e, LOG2_3)), upper_bound_sum(_a1_from_entropy(e))))
    return rows
