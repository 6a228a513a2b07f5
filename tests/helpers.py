"""Shared test utilities: random channel factories and the golden CLI runs.

Run as a script (`PYTHONPATH=src python tests/helpers.py`) to rewrite the
golden files under tests/golden/, the density-200 digests included.
"""

import hashlib
import math
import pathlib
import sys
import tempfile

import numpy as np

from teleportsim.channel import canonicalize, make_channel
from teleportsim.cli import main as cli_main
from teleportsim.scheme import admissible_theta3, assemble_D12, solve_constraints
from teleportsim.teleport import branch_corrections, random_input

DEGENERATE = (0.0, math.sqrt(0.5), math.sqrt(0.5))
SYMMETRIC = (1.0 / math.sqrt(3.0),) * 3


def random_capable_channel(rng):
    """Uniform Dirichlet squares, rejected until max <= 1/2, canonicalized."""
    while True:
        v = rng.dirichlet([1.0, 1.0, 1.0])
        if v.max() <= 0.5:
            break
    ch, _ = canonicalize(make_channel(*np.sqrt(v)))
    return ch


def random_incapable_channel(rng):
    """Random squares with the maximum pushed strictly above 1/2."""
    v = np.sort(rng.dirichlet([1.0, 1.0, 1.0]))
    if v[2] <= 0.5:
        v[2] = 0.5 + rng.uniform(1e-4, 0.49)
        v[:2] *= (1.0 - v[2]) / v[:2].sum()
    sq = v[[0, 2, 1]]  # maximum at index 1 (canonical order)
    a = np.sqrt(sq)
    return make_channel(a[0], a[1], a[2])


# acceptance 9's seeded CLI runs; each output is pinned byte for byte in
# tests/golden/. A change that legitimately moves a last digit must rewrite
# the files (run this module as a script) and log why in CHANGES.md.
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "sweep-case1.csv": ["sweep-case1", "--density", "25", "--format", "csv"],
    "sweep-case2.json": ["sweep-case2", "--density", "25", "--format", "json"],
    "sweep-degenerate.csv": ["sweep-degenerate", "--density", "25", "--format", "csv"],
    "bounds.csv": ["bounds", "--density", "25", "--format", "csv"],
    "verify.json": ["verify", "--channel", "0.577,0.577,0.577"],
    "report.json": ["report", "--channel", "0.577,0.577,0.577"],
}


def run_golden(name, path):
    """Run golden command `name` at --seed 9, writing its output to `path`."""
    return cli_main(GOLDEN_COMMANDS[name] + ["--seed", "9", "--out", str(path)])


# the same kind of runs at the benchmark's density, pinned by SHA-256 digest
# only, one `<hex>  <name>` line each (the sha256sum format)
DIGEST_FILE = GOLDEN_DIR / "density200.sha256"
DIGEST_COMMANDS = {
    "sweep-case1.csv": ["sweep-case1", "--density", "200", "--format", "csv"],
    "sweep-case2.csv": ["sweep-case2", "--density", "200", "--format", "csv"],
    "sweep-degenerate.csv": ["sweep-degenerate", "--density", "200", "--format", "csv"],
    "bounds.csv": ["bounds", "--density", "200"],
}


def digest_lines(workdir) -> str:
    """Run each DIGEST_COMMANDS entry at --seed 9 into `workdir`; return the
    digest file's text."""
    lines = []
    for name, argv in DIGEST_COMMANDS.items():
        path = pathlib.Path(workdir) / name
        assert cli_main(argv + ["--seed", "9", "--out", str(path)]) == 0
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n")
    return "".join(lines)


# numpy's setting that turns off its X86_V3 (AVX2, FMA) and AVX-512 dispatch
NO_X86_V3 = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# verify runs whose bytes must not depend on that dispatch, at seeds 1-6:
# the symmetric point, a generic channel, one near the face, and a0 = 0
DISPATCH_CHANNELS = ("0.577,0.577,0.577", "0.6,0.6,0.529", "0.7,0.5,0.5099", "0,0.7071,0.7071")


def input_digest(n=20_000, seed=5) -> str:
    """SHA-256 of the reprs of n random_input draws from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(n):
        q = random_input(rng)
        h.update(repr((q.alpha, q.beta)).encode())
    return h.hexdigest()


def dispatch_digests(workdir) -> str:
    """SHA-256 lines of what must not depend on numpy's SIMD dispatch: the
    output of each DISPATCH_CHANNELS verify run at seeds 1-6 (written into
    `workdir`), then Bob's corrections (branch_corrections, as bytes) for 50
    solved schemes on seeded random channels."""
    lines = []
    path = pathlib.Path(workdir) / "verify.json"
    for channel in DISPATCH_CHANNELS:
        for seed in range(1, 7):
            assert cli_main(["verify", "--channel", channel, "--seed", str(seed),
                             "--out", str(path)]) == 0
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                         f"verify {channel} seed {seed}\n")
    rng = np.random.default_rng(29)
    for k in range(50):
        ch = random_capable_channel(rng)
        lo, hi = admissible_theta3(ch)
        _, basis = assemble_D12(solve_constraints(ch, lo + rng.uniform() * (hi - lo)))
        ws = branch_corrections(ch.a, basis)
        lines.append(f"{hashlib.sha256(ws.tobytes()).hexdigest()}  corrections {k}\n")
    return "".join(lines)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_COMMANDS:
        assert run_golden(name, GOLDEN_DIR / name) == 0
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as workdir:
        DIGEST_FILE.write_text(digest_lines(workdir))
    print(f"wrote {DIGEST_FILE}", file=sys.stderr)
