"""Acceptance gate: the nine release criteria, one test (and one printed
pass/fail line) per criterion. Tolerances are stated inline next to each
assertion.
"""

import contextlib
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (
    DEGENERATE,
    DIGEST_FILE,
    GOLDEN_COMMANDS,
    GOLDEN_DIR,
    NO_X86_V3,
    input_digest,
    random_capable_channel,
    digest_lines,
    random_incapable_channel,
    run_golden,
)
from oracles import (
    collapsed_closed_form,
    input_vector,
    measure_branches,
    qubit_qutrit_tangle,
    two_qubit_certificate,
    two_qubit_D12,
    two_qubit_feasible,
    total_state,
)
from teleportsim.channel import make_channel
from teleportsim.explorer import sweep_case1, sweep_case2, sweep_degenerate
from teleportsim.qlinalg import LOG2_3, binary_entropy
from teleportsim.resources import (
    gour_e12,
    lower_bound_sum,
    resource_report,
    upper_bound_sum,
)
from teleportsim.scheme import (
    InfeasibleError,
    admissible_theta3,
    admissible_u_window,
    assemble_D12,
    free_theta2_window,
    solve_constraints,
)
from teleportsim.teleport import (
    CorrectionError,
    branch_components,
    branch_corrections,
    random_input,
    run_teleport,
)

R2 = 1.0 / math.sqrt(2.0)


@contextlib.contextmanager
def _criterion(capsys, number, title):
    """Print one terminal-visible PASS/FAIL line per criterion."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {title}")


def _solved(ch, frac=0.5):
    lo, hi = admissible_theta3(ch)
    return solve_constraints(ch, lo + frac * (hi - lo))


def test_1_perfect_fidelity_theorem(capsys):
    """10^4 random capable channels x 20 Haar inputs: every branch fidelity
    is 1 within 1e-10, in under 60 s single-threaded."""
    n_channels, n_inputs = 10_000, 20
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 1.0
    for _ in range(n_channels):
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        comps = branch_components(ch.a, basis)
        corrections = branch_corrections(ch.a, basis)
        # Haar inputs, rows (alpha, beta)
        q = rng.normal(size=(n_inputs, 2)) + 1j * rng.normal(size=(n_inputs, 2))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        for (va, vb), w in zip(comps, corrections):
            collapsed = q @ np.array([va, vb])          # (n_inputs, 3)
            probs = np.sum(np.abs(collapsed) ** 2, axis=1)
            live = probs > 1e-14
            if not np.any(live):
                continue
            out = collapsed[live] @ w.T
            overlap = q[live, 0].conj() * out[:, 0] + q[live, 1].conj() * out[:, 1]
            fid = np.abs(overlap) ** 2 / probs[live]
            worst = min(worst, float(fid.min()))
    elapsed = time.perf_counter() - start
    with _criterion(capsys, 1,
                    f"min branch fidelity {worst:.3e} over "
                    f"{n_channels}x{n_inputs} runs in {elapsed:.1f}s"):
        assert worst >= 1.0 - 1e-10
        assert elapsed < 60.0


def test_2_capability_iff(capsys):
    """Solver succeeds on 10^3 capable channels and fails everywhere on a
    10^3-point theta3 grid for 10^3 incapable channels."""
    rng = np.random.default_rng(22)
    with _criterion(capsys, 2, "capability iff max a_j^2 <= 1/2"):
        for _ in range(1000):
            ch = random_capable_channel(rng)
            params = _solved(ch, frac=rng.uniform())
            rep = run_teleport(random_input(rng), ch, params)
            assert min(rep.fidelities) >= 1.0 - 1e-10
        grid = np.linspace(0.0, math.pi / 2, 1000)
        for k in range(1000):
            ch = random_incapable_channel(rng)
            # an empty admissible window certifies failure at every grid point
            with pytest.raises(InfeasibleError):
                admissible_u_window(ch)
            if k < 10:  # brute-force the equivalence on a subsample
                for t3 in grid:
                    with pytest.raises(InfeasibleError):
                        solve_constraints(ch, float(t3))


def test_3_two_qubit_necessity(capsys):
    """Two-qubit feasibility only at a0^2 = 1/2; a grid search finds no
    perfect two-qubit scheme for a0 = 0.6. The two-qubit scheme and its
    certificate are test oracles (tests/oracles.py)."""
    rng = np.random.default_rng(33)
    with _criterion(capsys, 3, "two-qubit channels need a0^2 = 1/2"):
        assert two_qubit_feasible(R2, R2)
        assert two_qubit_feasible(math.sqrt(0.5 + 9e-13), math.sqrt(0.5 - 9e-13))
        for a0sq in np.linspace(0.02, 0.98, 49):
            expected = abs(a0sq - 0.5) <= 1e-12
            assert two_qubit_feasible(math.sqrt(a0sq), math.sqrt(1 - a0sq)) == expected
        a0, a1 = 0.6, 0.8
        angles = np.linspace(0.0, math.pi / 2, 12)
        for t in angles:
            u = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for eta in angles:
                for delta in np.linspace(0.0, 2 * math.pi, 12):
                    with pytest.raises(CorrectionError):
                        two_qubit_certificate(random_input(rng), (a0, a1),
                                              two_qubit_D12(u, eta, delta))


def test_4_published_scheme_numbers(capsys):
    """Degenerate channel, exact targets: theta1=0 gives (E12, H12) = (1, 2);
    theta1=pi/4 gives H12 = 2.5 and E12 = (1+H(3/4))/2."""
    ch = make_channel(*DEGENERATE)
    with _criterion(capsys, 4, "degenerate-channel resource values"):
        p0 = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=0.0)
        r0 = resource_report(ch, p0)
        assert r0.e12 == pytest.approx(1.0, abs=1e-12)
        assert r0.h12 == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(r0.probabilities, [0, 0, 0.25, 0.25, 0.25, 0.25], atol=1e-15)
        p1 = solve_constraints(ch, math.pi / 4, theta2_hint=0.0, theta1_hint=math.pi / 4)
        r1 = resource_report(ch, p1)
        assert r1.h12 == pytest.approx(2.5, abs=1e-12)
        assert r1.e12 == pytest.approx(0.5 * (1.0 + binary_entropy(0.75)), abs=1e-12)
        assert abs(r1.e12 - 0.9056390622295664) <= 1e-12
        assert np.allclose(r1.probabilities,
                           [1 / 8, 1 / 8, 1 / 4, 1 / 8, 1 / 8, 1 / 4], atol=1e-15)


def test_5_degenerate_limit_comparison(capsys):
    """Near the degenerate channel (a0 = 1e-4), the minimum achievable E12
    is about 0.906, strictly below the comparison value H(2/3) = 0.918."""
    a0 = 1e-4
    a1 = math.sqrt(0.5 * (1.0 - a0 * a0))
    ch = make_channel(a0, a1, a1)
    ulo, uhi = admissible_u_window(ch)
    ustar = 0.5 * (ulo + uhi)
    theta3 = math.asin(math.sqrt(ustar))
    wlo, whi = free_theta2_window(ch, ustar)
    e12_min = np.inf
    for w in np.linspace(wlo, whi, 101):
        params = solve_constraints(ch, theta3, theta2_hint=math.asin(math.sqrt(w)))
        e12_min = min(e12_min, resource_report(ch, params).e12)
    comparison = gour_e12(ch)
    with _criterion(capsys, 5,
                    f"min E12 {e12_min:.6f} < comparison value {comparison:.6f}"):
        assert e12_min == pytest.approx(0.906, abs=1e-3)
        assert comparison == pytest.approx(binary_entropy(2 / 3), abs=1e-3)
        assert e12_min < comparison


def test_6_bound_consistency(capsys):
    """Lower-bound limits, sweep-record envelope, and the upper/lower curves
    meeting at maximal entanglement."""
    with _criterion(capsys, 6, "trade-off bound consistency"):
        assert math.isclose(lower_bound_sum(1.0 + 1e-6), 3.0, rel_tol=1e-6)
        assert lower_bound_sum(LOG2_3) == pytest.approx(1.0 + math.log2(6), abs=1e-9)
        for result in (sweep_case1(50), sweep_case2(50),
                       sweep_degenerate(50)):
            assert result.records
            for r in result.records:
                assert r.sum >= r.bound_lower - 1e-9
        assert upper_bound_sum(1.0 / math.sqrt(3.0)) == pytest.approx(
            lower_bound_sum(LOG2_3), abs=1e-9)


def test_7_oracle_equivalence(capsys):
    """Closed-form collapsed states, probabilities, and tangles match the raw
    state-vector computation to 1e-10 across 10^3 random solved schemes."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        ch = random_capable_channel(rng)
        params = _solved(ch, frac=rng.uniform())
        _, basis = assemble_D12(params)
        inp = random_input(rng)
        raw_probs, raw_collapsed = measure_branches(total_state(input_vector(inp), ch.a), basis)
        raw_tangles = np.array([qubit_qutrit_tangle(v) for v in basis.vectors])
        closed = resource_report(ch, params)
        worst = max(
            worst,
            float(np.max(np.abs(raw_collapsed - collapsed_closed_form(inp, ch, params)))),
            float(np.max(np.abs(raw_probs - np.array(closed.probabilities)))),
            float(np.max(np.abs(raw_tangles - np.array(closed.tangles)))),
        )
    with _criterion(capsys, 7, f"max oracle deviation {worst:.3e} over 10^3 schemes"):
        assert worst <= 1e-10


def test_8_bell_equivalent_reduction(capsys):
    """The vanishing-branch two-qubit basis is Bell-equivalent: all four rows
    are maximally entangled and teleport with fidelity 1 (the two-qubit
    scheme and its certificate are test oracles, tests/oracles.py)."""
    rng = np.random.default_rng(88)
    u = np.array([[R2, R2], [R2, -R2]])
    dmat = two_qubit_D12(u, math.pi / 4, math.pi)
    with _criterion(capsys, 8, "Bell-equivalent two-qubit basis"):
        tangles = sorted(
            4.0 * abs(np.linalg.det(row.reshape(2, 2))) ** 2 for row in dmat
        )
        assert np.allclose(tangles, [1.0] * 4, atol=1e-12)  # Bell multiset
        for _ in range(20):
            _, fidelities = two_qubit_certificate(random_input(rng), (R2, R2), dmat)
            assert min(fidelities) >= 1.0 - 1e-10


def test_9_cli_determinism(capsys, tmp_path):
    """Repeated CLI runs with identical seeds emit byte-identical files, equal
    to the golden copies in tests/golden/ (see helpers.GOLDEN_COMMANDS)."""
    with _criterion(capsys, 9, "byte-identical seeded CLI output"):
        for name in GOLDEN_COMMANDS:
            contents = []
            for run in ("first", "second"):
                path = tmp_path / f"{run}.out"
                assert run_golden(name, path) == 0
                contents.append(path.read_bytes())
            assert contents[0] == contents[1]
            assert contents[0] == (GOLDEN_DIR / name).read_bytes(), f"{name}; {_math_backends()}"


def test_9_density200_digests(tmp_path):
    """The seeded sweeps and bounds at density 200 match their pinned digests
    in tests/golden/density200.sha256 (see helpers.DIGEST_COMMANDS)."""
    assert digest_lines(tmp_path) == DIGEST_FILE.read_text(), _math_backends()


def _in_subprocess(code, arg, env):
    """Run code (python -c, with src/ and tests/ on the path and arg as
    sys.argv[1]) in a fresh interpreter under env; returns its stdout."""
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(arg)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_9_digests_without_avx512_log2(tmp_path):
    """The density-200 digests do not depend on the code numpy dispatches its
    float64 log2 to: the four DIGEST_COMMANDS, run in one subprocess with
    numpy's AVX-512 paths disabled, match density200.sha256."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    code = ("import sys; from helpers import digest_lines; "
            "sys.stdout.write(digest_lines(sys.argv[1]))")
    assert _in_subprocess(code, tmp_path, env) == DIGEST_FILE.read_text()


@pytest.mark.parametrize("coretype, npy_disable", [(None, None), ("Haswell", None),
                                                   ("Prescott", None), (None, NO_X86_V3)],
                         ids=["None", "Haswell", "Prescott", "no-X86_V3"])
def test_9_verify_across_openblas_cores(coretype, npy_disable, tmp_path):
    """The golden verify command gives verify.json byte for byte whichever
    kernel OpenBLAS picks, and with numpy's X86_V3 and AVX-512 dispatch
    disabled: OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES are read when
    the libraries load, so each setting (OpenBLAS's unset, Haswell,
    Prescott; numpy's NO_X86_V3) runs in its own subprocess. Nor do the
    Haar inputs of random_input: helpers.input_digest there equals this
    process's."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    if npy_disable is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = npy_disable
    out = tmp_path / "verify.json"
    code = ("import sys; from helpers import input_digest, run_golden; "
            "code = run_golden('verify.json', sys.argv[1]); "
            "sys.stdout.write(input_digest()); sys.exit(code)")
    digest = _in_subprocess(code, out, env)
    assert out.read_bytes() == (GOLDEN_DIR / "verify.json").read_bytes()
    assert digest == input_digest()


def test_9_verify_without_x86_v3_dispatch(tmp_path):
    """verify's output and Bob's corrections do not depend on the code numpy
    dispatches its complex multiply to: helpers.dispatch_digests (24 verify
    runs, 50 schemes' corrections) gives the same lines in a subprocess with
    numpy's default dispatch and in one with NO_X86_V3."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    code = ("import sys; from helpers import dispatch_digests; "
            "sys.stdout.write(dispatch_digests(sys.argv[1]))")
    default = _in_subprocess(code, tmp_path, env)
    disabled = _in_subprocess(code, tmp_path, dict(env, NPY_DISABLE_CPU_FEATURES=NO_X86_V3))
    assert len(default.splitlines()) == 74
    assert disabled.splitlines() == default.splitlines()


def _math_backends() -> str:
    """What the golden bytes depend on beyond the code, for a failing
    comparison: numpy's float64 log2 dispatch target and OPENBLAS_CORETYPE.
    No output takes numpy's complex multiply, so its dispatch is not named
    (test_9_verify_without_x86_v3_dispatch)."""
    from numpy.lib.introspect import opt_func_info

    log2 = opt_func_info(func_name="^log2$", signature="float64")["log2"]
    return (f"numpy float64 log2 dispatch: {log2}; "
            f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')!r}")
