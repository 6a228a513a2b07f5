"""Output checks shared by every workload, and a self-test of the checks.

A unit passes only if every branch fidelity is at least 1 - FIDELITY_SLACK
and every numeric field is within GOLDEN_ATOL of the golden captured on the
reference commit. Counts are compared exactly. Bytes are not compared: a
rewritten kernel may legitimately move the last ulp.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_ATOL = 1e-12
FIDELITY_SLACK = 1e-10
# branches with less probability than this carry no state to correct
ZERO_BRANCH = 1e-14


def fidelity_check(q, comps, corrections) -> float:
    """Worst branch fidelity over the Haar inputs q (rows alpha, beta).

    This is the acceptance-1 arithmetic: each collapsed state is
    alpha*va + beta*vb, Bob applies the branch correction, and the result is
    compared with the input qubit.
    """
    worst = 1.0
    for (va, vb), w in zip(comps, corrections):
        collapsed = q @ np.array([va, vb])
        probs = np.sum(np.abs(collapsed) ** 2, axis=1)
        live = probs > ZERO_BRANCH
        if not np.any(live):
            continue
        out = collapsed[live] @ w.T
        overlap = q[live, 0].conj() * out[:, 0] + q[live, 1].conj() * out[:, 1]
        worst = min(worst, float((np.abs(overlap) ** 2 / probs[live]).min()))
    return worst


def fidelity_ok(fidelity: float) -> bool:
    return fidelity >= 1.0 - FIDELITY_SLACK


def fields_match(got, want) -> bool:
    """Equal length, None where the golden has None, numbers within GOLDEN_ATOL."""
    if got is None or len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if w is None or g is None:
            if g is not w:
                return False
        elif not (math.isfinite(g) and abs(g - w) <= GOLDEN_ATOL):
            return False
    return True


def self_test() -> list[str]:
    """Feed the checks known-bad data; return the cases they wrongly accepted."""
    wrong = []
    golden = [0.25, -1.5, 2.0, None]
    if not fields_match(list(golden), golden):
        wrong.append("exact golden rejected")
    if fields_match([golden[0] + 1e-9] + golden[1:], golden):
        wrong.append("golden perturbed by 1e-9 accepted")
    if fields_match(golden[:3] + [0.0], golden):
        wrong.append("number in place of an empty field accepted")
    if fields_match(golden[:3], golden):
        wrong.append("missing field accepted")

    # one branch whose correction is the identity followed by a rotation of
    # (|0>, |1>) by angle phi: on input |0> its fidelity is cos(phi)^2 = 0.9
    q = np.array([[1.0 + 0j, 0j]])
    comps = [(np.array([0.6, 0, 0], complex), np.array([0, 0.6, 0], complex))]
    c, s = math.sqrt(0.9), math.sqrt(0.1)
    bad = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
    if not fidelity_ok(fidelity_check(q, comps, [np.eye(3, dtype=complex)])):
        wrong.append("perfect branch rejected")
    fid = fidelity_check(q, comps, [bad])
    if fidelity_ok(fid) or abs(fid - 0.9) > 1e-12:
        wrong.append(f"injected branch with fidelity 0.9 accepted (measured {fid!r})")
    return wrong


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print(f"checker self-test FAILED: {line}")
    if not failures:
        print("checker self-test passed: a 1e-9 golden perturbation and a "
              "fidelity-0.9 branch are both counted as failures")
    raise SystemExit(1 if failures else 0)
