import itertools
import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DEGENERATE, SYMMETRIC, random_capable_channel, random_incapable_channel
from oracles import (
    certify_stack,
    gour_basis,
    qubit_qutrit_tangle,
    resource_report_per_branch,
    tuple_bisect,
)
from teleportsim import channel, explorer, resources, teleport
from teleportsim.channel import SchmidtChannel, canonicalize, channel_entropy, make_channel
from teleportsim.qlinalg import LOG2_3, TOL, binary_entropy, entanglement_from_tangle
from teleportsim.resources import (
    B_INTERCEPT,
    K_SLOPE,
    ResourceReport,
    _q_from_entropy,
    classical_cost,
    gour_e12,
    lower_bound_sum,
    measurement_entanglement,
    resource_report,
    upper_bound_sum,
)
from teleportsim.scheme import (
    BRANCH_LABELS,
    DEVIATION_BOUND,
    SchemeParams,
    admissible_theta3,
    assemble_D12,
    constraint_residuals,
    find_scheme,
    solve_constraints,
)
from teleportsim.teleport import (
    InputQubit,
    random_input,
    run_teleport,
    run_with_basis,
)

# frozen fixtures, each computed once from the defining formulas
H_THREE_QUARTERS = 0.8112781244591328
E12_BALANCED = 0.9056390622295664        # (1 + H(3/4)) / 2
H_TWO_THIRDS = 0.9182958340544896        # binary_entropy(2/3)
SUM_UPPER_AT_HALF = 3.4056390622295667   # upper_bound_sum(1/sqrt 2)
SUM_MAX = 3.584962500721156              # 1 + log2 6
LOWER_NEAR_ONE = 3.000001724796099       # lower_bound_sum(1 + 1e-6)
# lower_bound_sum near both ends of the bisected piece and at log2 3; the
# frozen values pin where the bisection stops
LOWER_AT_ONE_PLUS_1E12 = 3.00000000000185
LOWER_BELOW_THREE_HALVES = 3.058814300845643  # E = 3/2 - 1e-12
LOWER_AT_LOG2_3 = 3.584962500721157
LOWER_AT_THREE_HALVES = 3.503258334775646  # affine piece at E = 3/2
G_AT_HALF = 3.0588138903312014           # low-E piece limit as E -> 3/2 from below
K_FROZEN = 0.9616497307872428
B_FROZEN = 2.060783738594782


def _solved(ch, frac=0.5):
    lo, hi = admissible_theta3(ch)
    return solve_constraints(ch, lo + frac * (hi - lo))


class TestClassicalCost:
    def test_uniform_six(self):
        assert classical_cost([1 / 6] * 6) == pytest.approx(math.log2(6), abs=1e-12)

    def test_four_outcomes(self):
        assert classical_cost([0, 0, 0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_balanced(self):
        p = [1 / 8, 1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4]
        assert classical_cost(p) == pytest.approx(2.5, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classical_cost([-0.1, 1.1, 0, 0, 0, 0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=re.escape("probability nan outside [0, 1]")):
            classical_cost([math.nan, 0.5])


class TestMeasurementEntanglement:
    def test_all_maximal(self):
        assert measurement_entanglement([1 / 6] * 6, [1.0] * 6) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_family_closed_form(self):
        # e12(theta1) = [1 + sin^2 H((1+cos^2)/2) + cos^2 H((1+sin^2)/2)] / 2
        ch = make_channel(*DEGENERATE)
        for t1 in np.linspace(0.0, math.pi / 2, 9):
            params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=t1)
            rep = resource_report(ch, params)
            c2, s2 = math.cos(t1) ** 2, math.sin(t1) ** 2
            expected = 0.5 * (1.0 + s2 * binary_entropy((1 + c2) / 2)
                              + c2 * binary_entropy((1 + s2) / 2))
            assert rep.e12 == pytest.approx(expected, abs=1e-10)

    def test_balanced_point(self):
        ch = make_channel(*DEGENERATE)
        params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=math.pi / 4)
        rep = resource_report(ch, params)
        assert rep.e12 == pytest.approx(E12_BALANCED, abs=1e-12)

    @pytest.mark.parametrize("probabilities, tangles", [([0.5, 0.5], [1.0]), ([1.0], [1.0, 0.0])])
    def test_unequal_lengths_rejected(self, probabilities, tangles):
        # zip would cut the longer one short: [0.5, 0.5], [1.0] read 0.5
        with pytest.raises(ValueError, match=f"{len(probabilities)} probabilities "
                                             f"but {len(tangles)} tangles"):
            measurement_entanglement(probabilities, tangles)

    @pytest.mark.parametrize("p", [math.nan, -0.1])
    def test_negative_or_nan_probability_rejected(self, p):
        # classical_cost's error; a NaN probability used to give a NaN e12
        with pytest.raises(ValueError, match=re.escape(f"probability {p} outside [0, 1]")):
            measurement_entanglement([0.5, p], [1.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"probability {p} outside [0, 1]")):
            classical_cost([0.5, p])

    @pytest.mark.parametrize("p", [1.5, 2.0, 1.0 + 2.0 * TOL.entry, math.inf])
    def test_probability_above_one_rejected(self, p):
        # a probability above 1 gave classical_cost([1.5]) = -0.877 bits and
        # measurement_entanglement([2.0], [1.0]) = 2.0
        with pytest.raises(ValueError, match=re.escape(f"probability {p} outside [0, 1]")):
            classical_cost([p])
        with pytest.raises(ValueError, match=re.escape(f"probability {p} outside [0, 1]")):
            measurement_entanglement([p], [1.0])

    def test_probability_within_entry_tolerance_of_one_taken(self):
        p = 1.0 + 0.5 * TOL.entry
        assert classical_cost([p]) == -p * math.log2(p)
        assert measurement_entanglement([p], [1.0]) == p


class TestBranchTangles:
    def test_identity_rows_zero(self):
        params = SchemeParams(theta=(0.0, 0.0, 0.0), delta=(0.0, 0.0))
        assert max(resource_report(make_channel(*SYMMETRIC), params).tangles) <= 1e-12

    def test_symmetric_third_row_maximal(self):
        # equal third-row weights with 120-degree phases give tangle 1
        theta2 = math.asin(math.sqrt(1.0 / 3.0))
        params = SchemeParams(theta=(0.3, theta2, math.pi / 4),
                              delta=(2 * math.pi / 3, 2 * math.pi / 3))
        tangles = resource_report(make_channel(*SYMMETRIC), params).tangles
        assert tangles[2] == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_raw_rows(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        closed = resource_report(ch, params).tangles
        raw = [qubit_qutrit_tangle(v) for v in basis.vectors]
        assert np.max(np.abs(np.array(closed) - np.array(raw))) <= 1e-10


def _slice_channel(b):
    """The capable a2 = a1 channel with a1^2 = b."""
    return make_channel(math.sqrt(max(1.0 - 2.0 * b, 0.0)), math.sqrt(b), math.sqrt(b))


class TestGourComparison:
    """gour_e12 on the two swept slices (a2 = a1, and a1^2 = 1/2) and off them."""

    def test_case1_maximally_entangled(self):
        assert gour_e12(make_channel(*SYMMETRIC)) == pytest.approx(1.0, abs=1e-12)

    def test_case1_degenerate_limit(self):
        val = gour_e12(_slice_channel(0.5 - 1e-9))
        assert val == pytest.approx(H_TWO_THIRDS, abs=1e-6)

    def test_case1_capability_boundary(self):
        # a1^2 = 1/4 puts a0^2 exactly at the capability threshold 1/2
        assert gour_e12(_slice_channel(0.25)) == pytest.approx(H_TWO_THIRDS, abs=1e-12)

    def test_case2_small_a2_limit(self):
        ch = make_channel(math.sqrt(0.5 - 1e-10), math.sqrt(0.5), 1e-5)
        assert gour_e12(ch) == pytest.approx(H_TWO_THIRDS, abs=1e-6)

    def test_case2_balanced_point(self):
        # regression-pinned: the case-2 value is H(2/3) across the slice
        val = gour_e12(make_channel(0.5, math.sqrt(0.5), 0.5))
        assert val == pytest.approx(H_TWO_THIRDS, abs=1e-12)
        assert 0.9 < val <= 1.0

    def test_any_coefficient_order(self, rng):
        for ch in [random_capable_channel(rng) for _ in range(50)] + [make_channel(*DEGENERATE)]:
            vals = [gour_e12(make_channel(*(ch.a[i] for i in perm)))
                    for perm in itertools.permutations(range(3))]
            assert max(vals) - min(vals) <= 1e-13

    def test_incapable_rejected(self, rng):
        # a1 = 0.9 (a1^2 above 1/2) and a1 = 0.49 on the a2 = a1 slice (a0^2 above 1/2)
        chans = [make_channel(math.sqrt(0.095), 0.9, math.sqrt(0.095)), _slice_channel(0.49 ** 2)]
        for ch in chans + [random_incapable_channel(rng) for _ in range(20)]:
            with pytest.raises(ValueError, match="not teleport-capable"):
                gour_e12(ch)

    def test_nan(self):
        with pytest.raises(ValueError):
            gour_e12(SchmidtChannel(a=(math.nan, math.sqrt(0.5), 0.5)))


class TestGourProtocol:
    """Gour's measurement (oracles.gour_basis) run through the certificate:
    perfect teleportation with six uniform outcomes, so Gour's H12 is log2 6,
    and gour_e12 is its basis's average entanglement."""

    @pytest.fixture(scope="class")
    def runs(self):
        rng = np.random.default_rng(11)
        out = []
        for _ in range(300):
            ch = random_capable_channel(rng)
            basis = gour_basis(ch)
            out.append((ch, basis, run_with_basis(random_input(rng), ch.a, basis)))
        return out

    def test_certified_with_uniform_outcomes(self, runs):
        # the 300 bases as one input-free certificate: every input, every branch
        stack = np.stack([basis.vectors for _, basis, _ in runs])
        devs = certify_stack([ch for ch, _, _ in runs], stack)
        assert devs.shape == (300,)
        assert devs.max() <= DEVIATION_BOUND
        for ch, _, rep in runs:
            assert max(abs(1.0 - f) for f in rep.fidelities) <= 1e-12, ch.a
            assert max(abs(p - 1.0 / 6.0) for p in rep.probabilities) <= 1e-15, ch.a
            assert classical_cost(rep.probabilities) == pytest.approx(math.log2(6.0), abs=1e-12)

    def test_e12_is_the_basis_entanglement(self, runs):
        for ch, basis, rep in runs:
            raw = sum(p * entanglement_from_tangle(qubit_qutrit_tangle(v))
                      for p, v in zip(rep.probabilities, basis.vectors))
            assert gour_e12(ch) == pytest.approx(raw, abs=1e-12), ch.a


class TestClaimsAgainstGour:
    """The abstract's comparison with Gour's protocol on the whole capable
    simplex, in the form in which it holds: (a) the best theta3 of the
    window needs less measurement entanglement than Gour's (a single theta3
    need not: a 17-point grid misses on one channel here by 1.24e-3 bits),
    and (b) no scheme sends more classical bits than Gour's log2 6."""

    @pytest.fixture(scope="class")
    def sample(self):
        rng = np.random.default_rng(12)
        out = []
        for _ in range(400):
            ch = random_capable_channel(rng)
            lo, hi = admissible_theta3(ch)
            out.append((ch, [resource_report(ch, solve_constraints(ch, t))
                             for t in np.linspace(lo, hi, 33)]))
        return out

    def test_a_best_theta3_below_gour(self, sample):
        # smallest margin in this sample: about 8.0e-6 bits
        for ch, reps in sample:
            assert min(r.e12 for r in reps) < gour_e12(ch), ch.a

    def test_b_h12_at_most_log2_6(self, sample):
        for ch, reps in sample:
            assert max(r.h12 for r in reps) <= math.log2(6.0) + 1e-12, ch.a
        # equality at the symmetric channel, whose six outcomes are uniform
        ch = make_channel(*SYMMETRIC)
        assert resource_report(ch, find_scheme(ch)).h12 == pytest.approx(math.log2(6.0), abs=1e-12)


class TestSumAtWindowEndpoint:
    """The least E12 + H12 over a channel's theta3 window lies at one of its
    two endpoints, so a channel's best scheme for the sum, and the lower
    envelope of the sum over channels, need only the two endpoint schemes.
    Checked here on a seeded whole-simplex sample, not assumed: a point the
    solver refuses fails the test; none is skipped."""

    def test_least_sum_at_an_endpoint(self):
        rng = np.random.default_rng(31)
        where = {"bottom": 0, "inside": 0, "top": 0}
        n = 0
        while n < 300:
            ch = random_capable_channel(rng)
            lo, hi = admissible_theta3(ch)
            if not hi - lo > 1e-6:
                continue
            n += 1
            sums = [resource_report(ch, solve_constraints(ch, t)).sum
                    for t in np.linspace(lo, hi, 33).tolist()]
            least = sums.index(min(sums))
            where["bottom" if least == 0 else "top" if least == 32 else "inside"] += 1
        assert where == {"bottom": 147, "inside": 0, "top": 153}


def _step_directions(result, angle):
    """(opposite, same, flat) over the steps between consecutive records of
    one channel, ordered by the swept angle: a step is flat when E12 or H12
    moves by less than 1e-12, opposite when they move in opposite directions."""
    counts = [0, 0, 0]
    for _, group in itertools.groupby(result.records, key=lambda r: (r.a0, r.a1, r.a2)):
        group = sorted(group, key=lambda r: getattr(r, angle))
        for r, s in zip(group, group[1:]):
            de, dh = s.e12 - r.e12, s.h12 - r.h12
            if abs(de) < 1e-12 or abs(dh) < 1e-12:
                counts[2] += 1
            else:
                counts[(de > 0) == (dh > 0)] += 1
    return tuple(counts)


class TestTradeOff:
    """The trade-off between E12 and H12 is strict on the face
    max a_j^2 = 1/2 and at a0 = 0, and fails on the case-1 ridge."""

    def test_strict_on_the_face_and_at_a0_zero(self):
        assert _step_directions(explorer.sweep_case2(200), "theta3") == (797, 0, 3)
        assert _step_directions(explorer.sweep_degenerate(200), "theta1") == (198, 0, 1)

    def test_not_on_the_case1_ridge(self):
        assert _step_directions(explorer.sweep_case1(200), "theta2") == (272, 520, 7)


class TestUpperBound:
    def test_maximally_entangled_point(self):
        assert upper_bound_sum(1.0 / math.sqrt(3.0)) == pytest.approx(SUM_MAX, abs=1e-9)

    def test_balanced_endpoint(self):
        assert upper_bound_sum(math.sqrt(0.5)) == pytest.approx(SUM_UPPER_AT_HALF, abs=1e-12)
        # equals 3 + H(3/4)/2
        assert upper_bound_sum(math.sqrt(0.5)) == pytest.approx(3 + H_THREE_QUARTERS / 2, abs=1e-9)

    def test_domain(self):
        for a1 in (0.5, 0.0, -0.0, 1e-200, 0.8):  # a1^2 = 1/4, 0, 0, 0 (underflow), 0.64
            with pytest.raises(ValueError, match="outside domain"):
                upper_bound_sum(a1)

    def test_nan(self):
        with pytest.raises(ValueError, match="outside domain"):
            upper_bound_sum(math.nan)

    def test_dominates_scheme_sums_on_curve(self):
        for b in np.linspace(1 / 3 + 1e-6, 0.5, 12):
            a = max(1.0 - 2.0 * b, 0.0)
            ch = make_channel(math.sqrt(a), math.sqrt(b), math.sqrt(b))
            lo, hi = admissible_theta3(ch)
            params = solve_constraints(ch, 0.5 * (lo + hi), theta2_hint=math.pi / 4)
            rep = resource_report(ch, params)
            assert upper_bound_sum(math.sqrt(b)) >= rep.sum - 1e-9


# an off-slice scheme above the upper curve at its channel's entropy: the top
# of the channel's theta3 window, one of 4 such schemes among 5,100 (random
# channels from seed 41, 17 theta3 per channel)
OFF_SLICE_A = (0.6573883489300235, 0.6597240350144477, 0.36414935989963493)
OFF_SLICE_THETA3 = 0.5458917285133558
OFF_SLICE_GAP = 1.199e-5  # e12 + h12 - upper_bound_sum(a1 of the slice channel of equal E), bits


class TestUpperCurveReach:
    """upper_bound_sum bounds E12 + H12 on the a2 = a1 family alone; the
    on-slice side is checked on every case-1 sweep record."""

    def test_off_slice_scheme_above_the_curve(self):
        ch = make_channel(*OFF_SLICE_A)
        assert ch.a[2] != ch.a[1] and OFF_SLICE_THETA3 == pytest.approx(
            admissible_theta3(ch)[1], abs=1e-15)
        params = solve_constraints(ch, OFF_SLICE_THETA3)
        assert max(constraint_residuals(ch, params)) <= 1e-15
        tele = run_teleport(InputQubit(alpha=0.6, beta=0.8j), ch, params)
        assert min(tele.fidelities) >= 1.0 - 1e-10
        rep = resource_report(ch, params)
        gap = rep.sum - upper_bound_sum(explorer._a1_from_entropy(rep.e_channel))
        assert gap > 0.0 and gap == pytest.approx(OFF_SLICE_GAP, abs=1e-8)


class TestLowerBound:
    def test_near_unit_entanglement(self):
        val = lower_bound_sum(1.0 + 1e-6)
        assert val == pytest.approx(LOWER_NEAR_ONE, abs=1e-12)
        assert math.isclose(val, 3.0, rel_tol=1e-6)
        assert lower_bound_sum(1.0 + 1e-12) == pytest.approx(LOWER_AT_ONE_PLUS_1E12, abs=1e-14)

    def test_unit_entanglement_is_three(self):
        # at E = 1 (and within TOL.entry below it) the bisection lands on
        # q = 0, where the low piece is 3 exactly: the two-qubit limit the
        # sweeps' explorer._bound_lower returns
        for e in (1.0, 1.0 - 5e-13):
            assert lower_bound_sum(e) == 3.0 == explorer._bound_lower(e)

    def test_maximally_entangled_point(self):
        assert lower_bound_sum(LOG2_3) == pytest.approx(SUM_MAX, abs=1e-9)
        assert lower_bound_sum(LOG2_3) == pytest.approx(LOWER_AT_LOG2_3, abs=1e-14)

    def test_affine_constants(self):
        assert K_SLOPE == pytest.approx(K_FROZEN, abs=1e-12)
        assert B_INTERCEPT == pytest.approx(B_FROZEN, abs=1e-12)

    def test_affine_pins_exact(self):
        # the constants' formulas, taken exactly, meet both pins of the affine
        # piece: f2(log2 3) = 1 + log2 6 and f2(3/2) = 2 log2 3 + 1/3
        log2_3 = sp.log(3, 2)
        k = (sp.Rational(5, 3) - log2_3) / (log2_3 - sp.Rational(3, 2))
        b = 2 * log2_3 + sp.Rational(11, 6) - 1 / (4 * log2_3 - 6)
        assert sp.simplify(k * log2_3 + b - (1 + sp.log(6, 2))) == 0
        assert sp.simplify(k * sp.Rational(3, 2) + b - (2 * log2_3 + sp.Rational(1, 3))) == 0
        # the floats are a few ulp off (K 30, B 10), from the cancellation
        # in LOG2_3 - 1.5
        assert K_SLOPE == pytest.approx(float(k.evalf(30)), rel=1e-14, abs=0.0)
        assert B_INTERCEPT == pytest.approx(float(b.evalf(30)), rel=1e-14, abs=0.0)

    def test_three_halves_uses_affine_piece(self):
        assert lower_bound_sum(1.5) == pytest.approx(LOWER_AT_THREE_HALVES, abs=1e-12)

    def test_discontinuity_exposed(self):
        below = lower_bound_sum(1.5 - 1e-9)
        assert below == pytest.approx(G_AT_HALF, abs=1e-3)
        assert lower_bound_sum(1.5) - below > 0.4
        assert lower_bound_sum(1.5 - 1e-12) == pytest.approx(LOWER_BELOW_THREE_HALVES, abs=1e-14)

    def test_plain_float_on_both_pieces(self):
        assert type(K_SLOPE) is float and type(B_INTERCEPT) is float
        for e in (1.0 + 1e-6, 1.2, 1.5 - 1e-12, 1.5, 1.55, LOG2_3):
            assert type(lower_bound_sum(e)) is float

    def test_bisection_takes_the_binary_entropy_steps(self, rng, monkeypatch):
        # q is bit for bit the frozen tuple bisection on the checked
        # binary_entropy, down to E = 1
        def same_as_bisect(es):
            for e in es:
                target = 2.0 * (e - 1.0)
                want = tuple_bisect(lambda q: binary_entropy(q) < target, 0.0, 0.5)
                assert _q_from_entropy(e) == want, e

        es = [1.0 - 1e-13, 1.0, 1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-9, 1.5 - 1e-12]
        # entropies at which an entropy off by one ulp near the crossing ends
        # the bisection on another q
        es += [1.0356168503062684, 1.4553265057264508, 1.2384246619250296,
               1.3944560280983205, 1.2062600409704516]
        es += np.linspace(1.0 + 1e-6, 1.5 - 1e-6, 100).tolist() + rng.uniform(1.0, 1.5, 100).tolist()
        same_as_bisect(es)
        # every E the density-200 sweeps invert for their lower bounds
        swept = []
        q_from_entropy = resources._q_from_entropy
        monkeypatch.setattr(resources, "_q_from_entropy",
                            lambda e: swept.append(e) or q_from_entropy(e))
        for sweep in (explorer.sweep_case1, explorer.sweep_case2, explorer.sweep_degenerate):
            sweep(200)
        monkeypatch.undo()
        assert len(swept) == 305
        same_as_bisect(swept)
        # the E < 3/2 rows of `teleportsim bounds --density 200`
        same_as_bisect([e for e in explorer.bounds_grid(200).tolist() if e < 1.5])
        same_as_bisect(rng.uniform(1.0, 1.5, 2000).tolist())

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_sum(0.9)
        with pytest.raises(ValueError):
            lower_bound_sum(1.7)

    def test_generic_channel_margin(self, rng):
        # the affine piece can exceed solved-scheme sums for generic channels
        # near maximal entanglement by a few 1e-6; pin that margin
        worst = np.inf
        for _ in range(300):
            ch = random_capable_channel(rng)
            e = channel_entropy(ch)
            if not (1.0 < e < LOG2_3):
                continue
            rep = resource_report(ch, _solved(ch, frac=0.5))
            worst = min(worst, rep.sum - lower_bound_sum(e))
        assert worst >= -5e-6


# a near-symmetric channel whose solved scheme, at the top of its theta3
# window, sits below lower_bound_sum: a counterexample to the stated bound
COUNTEREXAMPLE_A = (0.5736098, 0.5843559, 0.5740208)
COUNTEREXAMPLE_GAP = -2.656e-6  # e12 + h12 - lower_bound_sum(E), in bits


def _counterexample():
    a = np.array(COUNTEREXAMPLE_A)
    ch, _ = canonicalize(make_channel(*(a / np.linalg.norm(a))))
    params = _solved(ch, frac=1.0)
    return ch, params, resource_report(ch, params)


class TestBoundCounterexample:
    def test_scheme_is_valid_and_gap_measured(self):
        ch, params, rep = _counterexample()
        assert max(constraint_residuals(ch, params)) <= 1e-15
        tele = run_teleport(InputQubit(alpha=0.6, beta=0.8j), ch, params)
        assert min(tele.fidelities) >= 1.0 - 1e-10
        assert rep.sum - lower_bound_sum(rep.e_channel) == pytest.approx(COUNTEREXAMPLE_GAP,
                                                                         abs=1e-9)

    @pytest.mark.xfail(strict=True, reason="e12 + h12 - lower_bound_sum(E) = -2.656e-6 bits at "
                                           "a = (0.5736098, 0.5843559, 0.5740208), E = 1.5847481, "
                                           "theta3 at the top of its window, a valid scheme")
    def test_lower_bound_holds(self):
        _, _, rep = _counterexample()
        assert rep.sum >= lower_bound_sum(rep.e_channel) - 1e-9


class TestResourceReport:
    def test_degenerate_two_qubit_reduction(self):
        ch = make_channel(*DEGENERATE)
        params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=0.0)
        rep = resource_report(ch, params)
        assert rep.e12 == pytest.approx(1.0, abs=1e-12)
        assert rep.h12 == pytest.approx(2.0, abs=1e-12)
        assert rep.sum == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_balanced(self):
        ch = make_channel(*DEGENERATE)
        params = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=math.pi / 4)
        rep = resource_report(ch, params)
        assert rep.e12 == pytest.approx(E12_BALANCED, abs=1e-12)
        assert rep.h12 == pytest.approx(2.5, abs=1e-12)

    def test_symmetric_consistent_with_bound(self):
        ch = make_channel(*SYMMETRIC)
        rep = resource_report(ch, _solved(ch))
        assert rep.sum >= lower_bound_sum(LOG2_3) - 1e-9

    def test_invariant_ranges(self, rng):
        for _ in range(20):
            ch = random_capable_channel(rng)
            rep = resource_report(ch, _solved(ch, frac=rng.uniform()))
            assert 0.0 <= rep.e12 <= 1.0 + 1e-12
            assert 0.0 <= rep.h12 <= math.log2(6) + 1e-12
            assert all(0.0 <= c <= 1.0 for c in rep.tangles)
            assert sum(rep.probabilities) == pytest.approx(1.0, abs=1e-12)
            assert rep.sum == pytest.approx(rep.e12 + rep.h12, abs=1e-15)

    def test_nan_probability_rejected(self):
        # a hand-built channel skips make_channel's checks, so its NaN reaches
        # the probabilities; classical_cost's error names the first one
        ch = SchmidtChannel(a=(math.nan, math.sqrt(0.5), 0.5))
        with pytest.raises(ValueError, match=re.escape("probability nan outside [0, 1]")):
            resource_report(ch, _solved(make_channel(*SYMMETRIC), frac=0.3))

    def test_probability_above_one_rejected(self):
        # a hand-built channel of squares far above 1 pushes p1 past 1, which
        # the guard refuses as classical_cost does
        ch = SchmidtChannel(a=(3.0, 3.0, 3.0))
        params = _solved(make_channel(*SYMMETRIC), frac=0.3)
        u = params.rotation
        p1 = 9.0 * u[0][0] ** 2 + 9.0 * u[0][2] ** 2  # as resource_report forms it
        assert p1 > 1.0
        with pytest.raises(ValueError, match=re.escape(f"probability {p1} outside [0, 1]")):
            resource_report(ch, params)

    @pytest.mark.parametrize("row,col", itertools.product(range(3), repeat=2))
    def test_nan_tangle_rejected(self, row, col):
        # each rotation entry feeds one tangle, which the clip leaves NaN; the
        # one check before the entropies raises entanglement_from_tangle's error
        ch = make_channel(*SYMMETRIC)
        params = _solved(ch, frac=0.3)
        rotation = [list(r) for r in params.rotation]
        rotation[row][col] = math.nan
        object.__setattr__(params, "rotation", rotation)
        with pytest.raises(ValueError, match=re.escape("tangle nan is not a number")):
            resource_report(ch, params)

    def test_tangle_clipped_at_one(self):
        # rotation row 0 = (0.9, 0.9, 0) gives branches 1+ and 2+ (row 0's
        # pair) the raw tangle 4 * 0.81 * 0.81 > 1, which the clip sets to
        # exactly 1; rows 1 and 2 keep their tangles
        ch = make_channel(*SYMMETRIC)
        params = _solved(ch, frac=0.3)
        before = resource_report(ch, params)
        rotation = [list(r) for r in params.rotation]
        rotation[0] = [0.9, 0.9, 0.0]
        object.__setattr__(params, "rotation", rotation)
        rep = resource_report(ch, params)
        assert 4.0 * 0.81 * 0.81 > 1.0
        tangles = dict(zip(BRANCH_LABELS, rep.tangles))
        assert tangles["1+"] == tangles["2+"] == 1.0
        assert [tangles[b] for b in ("3+", "1-", "2-", "3-")] == [
            dict(zip(BRANCH_LABELS, before.tangles))[b] for b in ("3+", "1-", "2-", "3-")]
        e12 = measurement_entanglement(rep.probabilities, rep.tangles)
        assert rep.e12.hex() == e12.hex()

    def test_report_is_a_read_only_tuple(self):
        ch = make_channel(*SYMMETRIC)
        rep = resource_report(ch, _solved(ch, frac=0.3))
        assert type(rep) is ResourceReport
        assert rep == tuple(getattr(rep, name) for name in rep._fields)
        assert rep._fields == ("e_channel", "e12", "h12", "tangles", "probabilities", "sum")
        for name in rep._fields:
            with pytest.raises(AttributeError):
                setattr(rep, name, 0.0)
        for copy in (ResourceReport(**rep._asdict()), rep._replace(),
                     pickle.loads(pickle.dumps(rep))):
            assert type(copy) is ResourceReport and copy == rep
        changed = rep._replace(e12=0.5)
        assert type(changed) is ResourceReport and changed.e12 == 0.5 and changed[2:] == rep[2:]


def _swept_cases(density):
    """(channel, scheme) of each record of the three sweeps at `density`
    (543 at 50, 2,199 at 200), as their driver passes it to resource_report:
    the case-1 ridge at its theta2 hints, the face a1^2 = 1/2, and a0 = 0,
    where some branches have probability exactly 0."""
    with mock.patch.object(explorer, "resource_report", wraps=resource_report) as spy:
        for sweep in (explorer.sweep_case1, explorer.sweep_case2, explorer.sweep_degenerate):
            sweep(density)
    return [call.args for call in spy.call_args_list]


def _accounting_cases():
    """(channel, scheme) pairs: 2,000 seeded random capable channels at
    random theta3, the a0 = 0 ridge at 25 theta1 hints, the face a1^2 = 1/2
    at 25 splits, the symmetric point, and every density-50 and density-200
    sweep record (the latter are family-sweeps' records)."""
    rng = np.random.default_rng(909)
    for _ in range(2000):
        ch = random_capable_channel(rng)
        yield ch, _solved(ch, frac=rng.uniform())
    ridge = make_channel(*DEGENERATE)
    for t1 in np.linspace(0.0, math.pi / 2, 25).tolist():
        yield ridge, solve_constraints(ridge, math.pi / 4, theta2_hint=0.0, theta1_hint=t1)
    for a2sq in np.linspace(0.0, 0.5, 25).tolist():
        ch = make_channel(math.sqrt(0.5 - a2sq), math.sqrt(0.5), math.sqrt(a2sq))
        yield ch, find_scheme(ch)
    ch = make_channel(*SYMMETRIC)
    yield ch, find_scheme(ch)
    yield from _swept_cases(50)
    yield from _swept_cases(200)


def _compensated_sum(iterable, start=0):
    """sum() as Python 3.12 and later add floats: Neumaier-compensated."""
    total, comp = float(start), 0.0
    for x in iterable:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def _left_to_right(terms):
    total = 0.0
    for x in terms:
        total += x
    return total


class TestSumOfThePythonVersion:
    """e12 and the mean fidelity are added left to right, so a Python whose
    sum() compensates float sums (3.12 on) reports the same bits."""

    def test_compensated_sum_changes_nothing(self, monkeypatch, rng):
        cases = list(_accounting_cases())
        runs = [(random_input(rng), ch.a, assemble_D12(params)[1]) for ch, params in cases[::5]]

        def outputs():
            return ([resource_report(ch, params) for ch, params in cases],
                    [run_with_basis(*run) for run in runs])

        reports, teleports = outputs()
        # the data has teeth: compensation moves some e12 and some mean fidelity
        e12_terms = [[p * entanglement_from_tangle(c) for p, c in zip(r.probabilities, r.tangles)]
                     for r in reports]
        fid_terms = [[p * f for p, f in zip(r.probabilities, r.fidelities)] for r in teleports]
        for terms in (e12_terms, fid_terms):
            assert any(_compensated_sum(t) != _left_to_right(t) for t in terms)
        for module in (resources, teleport):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
        patched_reports, patched_teleports = outputs()
        assert list(map(repr, patched_reports)) == list(map(repr, reports))
        assert list(map(repr, patched_teleports)) == list(map(repr, teleports))


class TestAccounting:
    def test_report_equals_per_branch_recipe(self):
        n = zero = 0
        for ch, params in _accounting_cases():
            got = resource_report(ch, params)
            want = resource_report_per_branch(ch, params)
            for name in ("e_channel", "e12", "h12", "tangles", "probabilities", "sum"):
                assert getattr(got, name) == getattr(want, name), (name, ch.a, params)
            assert repr(got) == repr(want)
            n += 1
            zero += 0.0 in got.probabilities
        assert n == 2051 + 543 + 2199
        # h12's 0 log 0 = 0 path: one ridge scheme and three swept records at
        # each density
        assert zero == 7

    def test_fields_are_the_public_functions(self):
        # bit for bit: e12 and h12 are measurement_entanglement and
        # classical_cost of the report's own probabilities and tangles
        for ch, params in _accounting_cases():
            rep = resource_report(ch, params)
            e12 = measurement_entanglement(rep.probabilities, rep.tangles)
            assert rep.e12.hex() == e12.hex(), (ch.a, params)
            assert rep.h12.hex() == classical_cost(rep.probabilities).hex(), (ch.a, params)

    def test_each_entropy_computed_once(self, monkeypatch):
        tangles, channels = [], []

        def counted(calls, fn):
            def wrapper(arg):
                calls.append(arg)
                return fn(arg)
            return wrapper

        monkeypatch.setattr(resources, "_entanglement_from_tangle",
                            counted(tangles, resources._entanglement_from_tangle))
        monkeypatch.setattr(channel, "channel_entropy",
                            counted(channels, channel.channel_entropy))
        ch = make_channel(*SYMMETRIC)
        resource_report(ch, _solved(ch, frac=0.3))
        assert 1 <= len(tangles) <= 3

        channels.clear()
        result = explorer.sweep_case1(density=6)
        swept = list(dict.fromkeys((r.a0, r.a1, r.a2) for r in result.records))
        assert len(swept) == 6
        assert [c.a for c in channels] == swept
