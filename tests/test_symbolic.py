"""Symbolic proofs of the closed forms behind the measurement basis, its
input-free certificate and the admissible theta3 window, on the library's
own _d12_entries layout, constraint_residuals and admissible_u_window,
evaluated with sympy symbols in place of floats."""

from types import SimpleNamespace

import pytest
import sympy as sp

from teleportsim import scheme
from teleportsim.channel import SchmidtChannel

U = sp.Matrix(3, 3, lambda i, j: sp.Symbol(f"u{i}{j}", real=True))
A_COEFFS = sp.symbols("a0 a1 a2", positive=True)
PHASES = sp.symbols("d1 d2", real=True)


@pytest.fixture
def layout(monkeypatch):
    """The scheme layout at generic real rotation entries u_ij (not assumed
    orthogonal), unimodular phases e^{i d} and zeta = pi/4 exactly: the
    library's cmath.exp and float cos/sin of zeta swapped for sympy's."""
    monkeypatch.setattr(scheme, "cmath", SimpleNamespace(exp=sp.exp))
    monkeypatch.setattr(scheme, "_COS_ZETA", 1 / sp.sqrt(2))
    monkeypatch.setattr(scheme, "_SIN_ZETA", 1 / sp.sqrt(2))
    return SimpleNamespace(rotation=U.tolist(), delta=PHASES)


def test_basis_unitary_at_any_real_angles(layout):
    # each entry of D12 D12^dag - I is a constant combination of the entries
    # of U U^T - I, so D12 is unitary wherever U is orthogonal
    d = sp.Matrix(6, 6, scheme._d12_entries(layout))
    gram = (d * d.H - sp.eye(6)).expand()
    s = (U * U.T - sp.eye(3)).expand()
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    for entry in gram:
        # the monomial u_a0 u_b0 occurs in the entry (a, b) of U U^T alone
        coeffs = {(a, b): entry.coeff(U[a, 0] ** 2 if a == b else U[a, 0] * U[b, 0])
                  for a, b in pairs}
        assert all(c.free_symbols.isdisjoint(U) for c in coeffs.values()), entry
        assert sp.expand(entry - sum(c * s[a, b] for (a, b), c in coeffs.items())) == 0, entry


def _split(ket, a):
    """A branch ket's components (va, vb): va_j = a_j conj(ket[j]), vb_j =
    a_j conj(ket[3 + j]), as teleport.branch_components takes them."""
    va = [a[j] * sp.conjugate(ket[j]) for j in range(3)]
    vb = [a[j] * sp.conjugate(ket[3 + j]) for j in range(3)]
    return va, vb


def _dot(x, y):
    """<x, y>, conjugating x."""
    return sp.expand(sum(sp.conjugate(p) * q for p, q in zip(x, y)))


@pytest.fixture
def branches(layout):
    """Each branch label's (va, vb), the residuals (r1, r2, r3) of
    constraint_residuals and the channel squares (A, B, C), all symbolic."""
    ch = SchmidtChannel(a=A_COEFFS)
    entries = scheme._d12_entries(layout)
    split = {label: _split(entries[6 * j:6 * j + 6], A_COEFFS)
             for j, label in enumerate(scheme.BRANCH_LABELS)}
    return split, scheme.constraint_residuals(ch, layout), ch.squares


@pytest.mark.parametrize("label", ["1+", "2+", "1-", "2-"])
def test_disjoint_branch_weights(label, branches):
    # certify_scheme's closed forms on 1+- and 2+-: the components have
    # disjoint supports, their squared norms are A u_r0^2 + C u_r2^2 and
    # B u_r1^2 (row r = 0 for the + pair, 1 for the - pair; swapped on 2+-),
    # and their difference is that row's weight-balance residual
    split, (r1, r2, _), (A, B, C) = branches
    row, residual = (0, r1) if label.endswith("+") else (1, r2)
    weights = (A * U[row, 0] ** 2 + C * U[row, 2] ** 2, B * U[row, 1] ** 2)
    wa, wb = weights if label.startswith("1") else weights[::-1]
    va, vb = split[label]
    assert all(sp.expand(x * y) == 0 for x, y in zip(va, vb))
    na2, nb2 = _dot(va, va), _dot(vb, vb)
    assert sp.expand(na2 - wa) == 0 and sp.expand(nb2 - wb) == 0
    assert sp.expand(residual ** 2 - (na2 - nb2) ** 2) == 0


@pytest.mark.parametrize("label", ["3+", "3-"])
def test_balanced_branch_weight_and_overlap(label, branches):
    # on 3+- both squared norms are (A u20^2 + B u21^2 + C u22^2) / 2 and
    # |<va, vb>| is half the phasor residual of constraint_residuals
    split, (_, _, r3), (A, B, C) = branches
    half = (A * U[2, 0] ** 2 + B * U[2, 1] ** 2 + C * U[2, 2] ** 2) / 2
    va, vb = split[label]
    assert sp.expand(_dot(va, va) - half) == 0 and sp.expand(_dot(vb, vb) - half) == 0
    overlap = _dot(va, vb)
    assert sp.expand(4 * overlap * sp.conjugate(overlap) - r3 ** 2) == 0


def test_u_window_half_lines_are_the_phasor_triangle(monkeypatch):
    # with sin^2(theta2) = N/(N + d), N = (B + C)u - (B - A) and d = B - C,
    # the third-row phasor weights p = A s2^2, q = B c2^2 u, r = C c2^2 (1 - u)
    # satisfy (N + d)(q + r - p) = beta - alpha u for admissible_u_window's
    # half-line alpha u <= beta labelled p <= q + r, and likewise for the
    # other two triangle sides: on N + d > 0 its triangle half-lines are
    # exactly the phasor triangle inequalities
    A, B, C, u = sp.symbols("A B C u", positive=True)
    half_lines = []

    def capture(lo, hi, cons):
        half_lines.extend(cons)
        return lo, hi

    # the canonical-order and capability checks compare numbers; let symbols through
    monkeypatch.setattr(scheme, "max", lambda *args: 0, raising=False)
    monkeypatch.setattr(scheme, "is_teleport_capable", lambda ch: True)
    monkeypatch.setattr(scheme, "_window_from_halflines", capture)
    scheme.admissible_u_window.__wrapped__(SimpleNamespace(squares=(A, B, C)))
    assert len(half_lines) == 4
    d, n = B - C, (B + C) * u - (B - A)
    s2sq, c2sq = n / (n + d), d / (n + d)
    p, q, r = A * s2sq, B * c2sq * u, C * c2sq * (1 - u)
    nonnegative, *triangle = half_lines
    sides = (q + r - p, p + r - q, p + q - r)  # p <= q + r, q <= p + r, r <= p + q
    for (alpha, beta), side in zip(triangle, sides):
        assert sp.expand(sp.cancel((n + d) * side) - (beta - alpha * u)) == 0, side
    alpha, beta = nonnegative  # N >= 0
    assert sp.expand(n - (beta - alpha * u)) == 0
