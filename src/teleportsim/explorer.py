"""Sweep engine reproducing the resource-tradeoff data sets.

Three sweeps cover the documented channel families:
* case 1 — a2 = a1 (the one-parameter slice containing the optimal curve,
  whose rows have theta2 = pi/4);
* case 2 — a1 = 1/sqrt(2) (maximal coefficient pinned; the extremal rows
  have theta2 = 0);
* degenerate — a0 = 0, sweeping the free angle theta1.

Every emitted record passes an exact fidelity check; infeasible grid points
are counted and reported, never fatal. A sweep solves a channel's grid points
one by one and certifies them in stacks of at most _BLOCK schemes; each record
that passes the gate is then accounted by resource_report, one call per
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import SchmidtChannel, channel_entropy, make_channel
from .qlinalg import LOG2_3, TOL, bisect
from .resources import lower_bound_sum, resource_report, upper_bound_sum
from .scheme import (
    InfeasibleError,
    SchemeParams,
    admissible_u_window,
    free_theta2_window,
    solve_constraints,
)
from .teleport import certify_schemes, random_input

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


def _certified(ch: SchmidtChannel, schemes: list[SchemeParams], rng: np.random.Generator,
               bound_lower: float, bound_upper: float | None,
               records: list[SweepRecord]) -> int:
    """Certify solved schemes of one channel as one stack, each on its own
    Haar-random input; append a record for each scheme that passes the
    fidelity gate and return how many did not."""
    if not schemes:
        return 0
    fids = certify_schemes([random_input(rng) for _ in schemes], ch, schemes)
    failed = 0
    for params, fid in zip(schemes, fids.min(axis=-1).tolist()):
        if not (fid >= 1.0 - TOL.unitary):  # fail closed: NaN does not pass
            failed += 1
            continue
        res = resource_report(ch, params)
        records.append(SweepRecord(
            a0=ch.a[0], a1=ch.a[1], a2=ch.a[2],
            theta1=params.theta[0], theta2=params.theta[1], theta3=params.theta[2],
            e_channel=res.e_channel, e12=res.e12, h12=res.h12, sum=res.sum,
            bound_lower=bound_lower, bound_upper=bound_upper,
        ))
    return failed


def sweep_case1(density: int, seed: int) -> SweepResult:
    """Channels with a2 = a1 over the canonical range a1^2 in [1/3, 1/2].

    theta3 is pinned by the channel; theta2 is swept across its feasible
    window, always including theta2 = pi/4 (the optimal-curve rows).
    """
    if density < 2:
        raise ValueError("density must be at least 2")
    rng = np.random.default_rng(seed)
    records: list[SweepRecord] = []
    skipped = 0
    for a1sq in np.linspace(1.0 / 3.0, 0.5, density):
        a0sq = max(1.0 - 2.0 * a1sq, 0.0)
        ch = make_channel(math.sqrt(a0sq), math.sqrt(a1sq), math.sqrt(a1sq))
        try:
            ulo, uhi = admissible_u_window(ch)
            ustar = 0.5 * (ulo + uhi)
            theta3 = math.asin(math.sqrt(ustar))
            wlo, whi = free_theta2_window(ch, ustar)
            wgrid = [min(max(0.5, wlo), whi)]
            wgrid += list(np.linspace(wlo, whi, _INNER_GRID))
            bu = upper_bound_sum(math.sqrt(a1sq))
            bl = _bound_lower(channel_entropy(ch))
        except InfeasibleError:
            skipped += 1
            continue
        seen, schemes = set(), []
        for w in wgrid:
            key = round(w, 15)
            if key in seen:
                continue
            seen.add(key)
            theta2 = math.asin(math.sqrt(w))
            try:
                schemes.append(solve_constraints(ch, theta3, theta2_hint=theta2))
            except InfeasibleError:
                skipped += 1
            if len(schemes) == _BLOCK:
                skipped += _certified(ch, schemes, rng, bl, bu, records)
                schemes = []
        skipped += _certified(ch, schemes, rng, bl, bu, records)
    return SweepResult(records=tuple(records), skipped=skipped)


def sweep_case2(density: int, seed: int) -> SweepResult:
    """Channels with a1 = 1/sqrt(2), sweeping a2^2 in [0, 1/2] and theta3."""
    if density < 2:
        raise ValueError("density must be at least 2")
    rng = np.random.default_rng(seed)
    records: list[SweepRecord] = []
    skipped = 0
    for a2sq in np.linspace(0.0, 0.5, density):
        a0sq = max(0.5 - a2sq, 0.0)
        ch = make_channel(math.sqrt(a0sq), math.sqrt(0.5), math.sqrt(a2sq))
        try:
            ulo, uhi = admissible_u_window(ch)
        except InfeasibleError:
            skipped += 1
            continue
        bl = _bound_lower(channel_entropy(ch))
        seen, schemes = set(), []
        for u in np.linspace(ulo, uhi, _INNER_GRID):
            key = round(float(u), 15)
            if key in seen:
                continue
            seen.add(key)
            theta3 = math.asin(math.sqrt(u))
            try:
                schemes.append(solve_constraints(ch, theta3))
            except InfeasibleError:
                skipped += 1
            if len(schemes) == _BLOCK:
                skipped += _certified(ch, schemes, rng, bl, None, records)
                schemes = []
        skipped += _certified(ch, schemes, rng, bl, None, records)
    return SweepResult(records=tuple(records), skipped=skipped)


def sweep_degenerate(theta_grid, seed: int = 0) -> SweepResult:
    """The a0 = 0 channel swept over the free angle theta1 in [0, pi/2]."""
    rng = np.random.default_rng(seed)
    ch = make_channel(0.0, math.sqrt(0.5), math.sqrt(0.5))
    bl = _bound_lower(channel_entropy(ch))
    records: list[SweepRecord] = []
    schemes: list[SchemeParams] = []
    skipped = 0
    for t1 in theta_grid:
        if not (-TOL.entry <= t1 <= math.pi / 2 + TOL.entry):
            raise ValueError(f"theta1 = {t1} outside [0, pi/2]")
        try:
            schemes.append(solve_constraints(ch, math.pi / 4, theta2_hint=0.0,
                                             theta1_hint=float(t1)))
        except InfeasibleError:
            skipped += 1
        if len(schemes) == _BLOCK:
            skipped += _certified(ch, schemes, rng, bl, None, records)
            schemes = []
    skipped += _certified(ch, schemes, rng, bl, None, records)
    return SweepResult(records=tuple(records), skipped=skipped)


def _a1_from_entropy(e: float) -> float:
    """Invert channel entropy on the a2 = a1 slice (a1^2 in [1/3, 1/2])."""
    def above(b):  # entropy decreases from log2(3) to 1 as b = a1^2 grows
        ch = make_channel(math.sqrt(max(1.0 - 2.0 * b, 0.0)), math.sqrt(b), math.sqrt(b))
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
