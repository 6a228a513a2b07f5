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
does the rest for all three. It solves all of a sweep's points with one
solve_points call, in channel order; then each solved scheme is accounted
with one resource_report call and emitted as a SweepRecord, a tuple of its
fields in CSV column order. solve_points returns only the schemes
solve_constraints would, certified ones, so every emitted record teleports
every input with fidelity at least 1 - TOL.unitary; infeasible points are
counted and reported, never fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import channel_entropy, make_channel
from .qlinalg import LOG2_3, TOL, bisect
from .resources import lower_bound_sum, resource_report, upper_bound_sum
from .scheme import InfeasibleError, admissible_u_window, free_theta2_window, solve_points

# number of scheme-angle samples per swept channel
_INNER_GRID = 5
# the call SweepRecord's generated __new__ makes, here without that Python frame
_tuple_new = tuple.__new__


class SweepRecord(NamedTuple):
    """One emitted data point: channel, scheme angles, resources, bounds; a
    tuple of its twelve fields, in this order (the CSV columns)."""

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


def _bound_lower(e: float) -> float:
    if e <= 1.0 + TOL.entry:
        return 3.0  # two-qubit-reduction limit of the envelope
    return lower_bound_sum(min(e, LOG2_3))


def _grid(lo: float, hi: float, density: int) -> np.ndarray:
    """np.linspace(lo, hi, density). A density below 2 raises ValueError.

    A density whose grid numpy cannot allocate raises MemoryError, also
    where numpy refuses the size before any allocation: np.linspace raises
    ValueError there (from about 2^60 points), or IndexError on an empty
    array (from 2^63 - 1)."""
    if density < 2:
        raise ValueError("density must be at least 2")
    try:
        return np.linspace(lo, hi, density)
    except (ValueError, IndexError):
        raise MemoryError(f"a grid of {density} points is larger than numpy can allocate") from None


def _inner_grid(lo: float, hi: float) -> list[float]:
    """np.linspace(lo, hi, _INNER_GRID) in plain floats, bit for bit: point i
    is i * step + lo, and the last is hi."""
    step = (hi - lo) / (_INNER_GRID - 1)
    return [i * step + lo for i in range(_INNER_GRID - 1)] + [hi]


def _distinct(values: list[float]) -> list[float]:
    """The values in order, each dropped when one kept before it rounds to
    the same number at 15 decimals.

    Two values whose round(v, 15) keys are equal lie within 1e-15 plus one
    ulp of the key of each other. So when no two neighbours of the sorted
    values are a near tie, 0 < gap <= 2e-15 + 5e-16 * max(|a|, |b|), or a
    NaN gap (from NaN or +-inf), equal keys mean equal values, and the
    exact repeats are dropped with no round call (-0.0 equals 0.0). Any
    near tie sends the whole list through the keys.
    """
    s = sorted(values)
    for a, b in zip(s, s[1:]):
        # max(b, -a) is max(|a|, |b|) for a <= b; a NaN gap fails both tests
        if not (b == a or b - a > 2e-15 + 5e-16 * max(b, -a)):
            seen = set()
            kept = []
            for v in values:
                key = round(v, 15)
                if key not in seen:
                    seen.add(key)
                    kept.append(v)
            return kept
    return list(dict.fromkeys(values))


def _sweep(channels) -> SweepResult:
    """The sweep driver: `channels` yields (ch, bound_upper, points), each
    point a (theta3, hints) pair for solve_constraints(ch, theta3, **hints);
    a channel with no points (an empty window) counts as one skipped point.

    Two passes. The first solves every point of the sweep with one
    solve_points call, which skips a point that solve_constraints refuses
    (InfeasibleError: outside the window, or not certified). It reads the
    channels as they are yielded, so each channel's u-window, which its
    family has just derived, is a memo hit there. The second accounts each
    solved scheme, in order, with one resource_report call and emits its
    record.

    Accounting stays a pass of its own, one call per record to the
    module-level resource_report (looked up at call time), because that call
    is the record boundary: perfbench's family-sweeps workload times each
    record between two of its returns, and
    test_accounting_follows_every_certificate pins the order.
    """
    points: list[tuple] = []  # (ch, bound_lower, bound_upper) of each point
    skipped = 0

    def each_point():
        nonlocal skipped
        for ch, bound_upper, pts in channels:
            if not pts:
                skipped += 1
                continue
            point = (ch, _bound_lower(ch.entropy), bound_upper)
            for theta3, hints in pts:
                points.append(point)
                yield ch, theta3, hints

    schemes = solve_points(each_point())
    solved = [(ch, params, bound_lower, bound_upper)
              for (ch, bound_lower, bound_upper), params in zip(points, schemes)
              if params is not None]
    skipped += len(points) - len(solved)
    records: list[SweepRecord] = []
    for ch, params, bound_lower, bound_upper in solved:
        e_channel, e12, h12, _, _, total = resource_report(ch, params)
        records.append(_tuple_new(SweepRecord, (*ch.a, *params.theta, e_channel, e12, h12,
                                                total, bound_lower, bound_upper)))
    return SweepResult(records=tuple(records), skipped=skipped)


def sweep_case1(density: int) -> SweepResult:
    """Channels with a2 = a1 over the canonical range a1^2 in [1/3, 1/2].

    theta3 is pinned by the channel; theta2 is swept across its feasible
    window, always including theta2 = pi/4 (the optimal-curve rows).
    """
    return _sweep(_case1_channels(density))


def _case1_channels(density: int):
    for a1sq in _grid(1.0 / 3.0, 0.5, density).tolist():
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
        wgrid = [min(max(0.5, wlo), whi), *_inner_grid(wlo, whi)]
        points = [(theta3, {"theta2_hint": math.asin(math.sqrt(w))}) for w in _distinct(wgrid)]
        yield ch, upper_bound_sum(math.sqrt(a1sq)), points


def sweep_case2(density: int) -> SweepResult:
    """Channels with a1 = 1/sqrt(2), sweeping a2^2 in [0, 1/2] and theta3."""
    return _sweep(_case2_channels(density))


def _case2_channels(density: int):
    for a2sq in _grid(0.0, 0.5, density).tolist():
        a0sq = max(0.5 - a2sq, 0.0)
        ch = make_channel(math.sqrt(a0sq), math.sqrt(0.5), math.sqrt(a2sq))
        try:
            ulo, uhi = admissible_u_window(ch)
        except InfeasibleError:
            yield ch, None, ()
            continue
        us = _inner_grid(ulo, uhi)
        yield ch, None, [(math.asin(math.sqrt(u)), {}) for u in _distinct(us)]


def sweep_degenerate(density: int) -> SweepResult:
    """The a0 = 0 channel swept over the free angle theta1 in [0, pi/2]."""
    grid = _grid(0.0, math.pi / 2, density).tolist()
    ch = make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))
    theta3 = math.pi / 4  # one object for every point, so the CSV formats it once
    points = [(theta3, {"theta2_hint": 0.0, "theta1_hint": t1}) for t1 in grid]
    return _sweep([(ch, None, points)])


def _a1_from_entropy(e: float) -> float:
    """Invert channel entropy on the a2 = a1 slice (a1^2 in [1/3, 1/2]).

    A bisection on b = a1^2: each step builds the channel
    (sqrt(1 - 2b), sqrt(b), sqrt(b)) and compares its channel_entropy with e.
    """
    def above(b):  # entropy decreases from log2(3) to 1 as b = a1^2 grows
        ch = make_channel(math.sqrt(1.0 - 2.0 * b), math.sqrt(b), math.sqrt(b))
        return channel_entropy(ch) > e

    return math.sqrt(bisect(above, 1.0 / 3.0, 0.5))


def bounds_grid(density: int) -> np.ndarray:
    """The bounds table's E grid: density points from just above 1 to log2 3."""
    return _grid(1.0 + 1e-9, LOG2_3, density)


def bounds_table(e_grid) -> list[tuple[float, float, float]]:
    """Rows (E, lower bound, upper-curve value) on a grid of E in (1, log2 3]."""
    rows = []
    for e in e_grid:
        e = float(e)
        if not (1.0 < e <= LOG2_3 + TOL.entry):
            raise ValueError(f"grid point {e} outside (1, log2 3]")
        rows.append((e, lower_bound_sum(min(e, LOG2_3)), upper_bound_sum(_a1_from_entropy(e))))
    return rows
