#!/usr/bin/env python3
"""Capture the benchmark's input pools and golden outputs.

Run from the repository root on the reference commit:

    PYTHONPATH=src python3 perfbench/capture_goldens.py

It writes perfbench/goldens/{certify,sweeps,bounds}.json.gz. The pools are
drawn from a fixed master seed; each workload seed later picks one entry of
every pool pair (see workloads.py). Re-running it on the same commit
reproduces the files byte for byte.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (needs the line above)
from teleportsim import cli  # noqa: E402

MASTER_SEED = 2506_18577


def _squares_to_a(rng, squares):
    """Coefficients in a random order, so canonicalize has work to do."""
    return [float(x) for x in rng.permutation(np.sqrt(np.maximum(squares, 0.0)))]


def _draw(rng, kind: str, j: int) -> dict:
    """Pool entry j of a kind; entries 2i and 2i+1 form one stratum."""
    hints = [math.pi / 4, 0.0]  # solve_constraints defaults
    frac = float(rng.uniform())
    if kind == "random":
        while True:
            v = rng.dirichlet([1.0, 1.0, 1.0])
            if v.max() <= 0.5:
                break
        a = [float(x) for x in np.sqrt(v)]
    elif kind == "a0_zero":
        # a zero first or second still canonicalizes to a0 = 0; the window is
        # theta3 in [pi/4, pi/2], and every other stratum sits on its lower
        # end, the degenerate ridge where the theta1/theta2 hints are used
        r2 = math.sqrt(0.5)
        a = [0.0, r2, r2] if rng.uniform() < 0.5 else [r2, 0.0, r2]
        hints = [float(rng.uniform(0.0, math.pi / 2)), float(rng.uniform(0.0, math.pi / 2))]
        if (j // 2) % 2 == 0:
            frac = 0.0
    elif kind == "face":
        c = rng.uniform(0.0, 0.5)
        a = _squares_to_a(rng, np.array([0.5 - c, 0.5, c]))
    elif kind == "near_symmetric":
        # within 0.1% to 1% of the symmetric point: closer in, the window
        # endpoints lose digits to cancellation and the goldens would pin
        # rounding noise instead of the scheme
        eps = 10.0 ** rng.uniform(-3.0, -2.0)
        v = 1.0 / 3.0 + eps * (rng.dirichlet([1.0, 1.0, 1.0]) - 1.0 / 3.0)
        a = _squares_to_a(rng, v / v.sum())
    else:
        raise ValueError(kind)
    return {"kind": kind, "a": a, "frac": frac, "hints": hints}


def certify_pool() -> dict:
    rng = np.random.default_rng(MASTER_SEED)
    pool = []
    for kind, n in workloads.CERTIFY_KINDS.items():
        for j in range(2 * n):
            item = _draw(rng, kind, j)
            q = workloads.haar_inputs(rng, 1)[0]
            worst, out = workloads.certify_unit(item, q)
            if worst < 1.0 - 1e-10:
                raise SystemExit(f"reference commit fails on {item}: fidelity {worst}")
            item["out"] = out
            pool.append(item)
    return {"fields": ["theta1", "theta2", "theta3", "delta1", "delta2", "e12", "h12"],
            "pool": pool}


def sweeps() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in workloads.SWEEP_COMMANDS:
            path = Path(tmp) / f"{cmd}.csv"
            rc = cli.main([cmd, "--density", str(workloads.SWEEP_DENSITY), "--out", str(path)])
            if rc != 0:
                raise SystemExit(f"{cmd} exited {rc}")
            header, rows, skipped = workloads.read_sweep_csv(path)
            out[cmd] = {"header": header, "records": rows, "skipped": skipped}
    return out


def bounds() -> dict:
    grid = np.linspace(1.0 + 1e-9, math.log2(3.0), 2 * workloads.BOUNDS_POINTS)
    return {"rows": [list(workloads.explorer.bounds_table([e])[0]) for e in grid]}


def _write(name: str, data) -> None:
    workloads.GOLDENS.mkdir(exist_ok=True)
    path = workloads.GOLDENS / f"{name}.json.gz"
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, separators=(",", ":")).encode())
    print(f"wrote {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    _write("certify", certify_pool())
    _write("sweeps", sweeps())
    _write("bounds", bounds())
