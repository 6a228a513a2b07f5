"""Shared test utilities: random channel factories and the golden CLI runs.

Run as a script (`PYTHONPATH=src python tests/helpers.py`) to rewrite the
golden files under tests/golden/.
"""

import math
import pathlib
import sys

import numpy as np

from teleportsim.channel import canonicalize, make_channel
from teleportsim.cli import main as cli_main

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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_COMMANDS:
        assert run_golden(name, GOLDEN_DIR / name) == 0
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
