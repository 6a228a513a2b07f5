#!/usr/bin/env python3
"""Reproduce the resource-tradeoff data sets as CSV files.

Emits the two channel-family sweeps, the degenerate-channel profile, and the
bound curves into an output directory, then prints a short summary of each
data set (record counts, extremal sums). All output is deterministic: the
sweeps draw no random numbers.
"""

import argparse
import pathlib
import sys

from teleportsim.cli import bounds_csv, sweep_csv_lines
from teleportsim.explorer import (
    bounds_grid,
    bounds_table,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)


def _summary(name, result):
    sums = [r.sum for r in result.records]
    print(f"{name}: {len(result.records)} records, skipped {result.skipped}, "
          f"sum in [{min(sums):.6f}, {max(sums):.6f}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--density", type=int, default=200)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("data"))
    args = ap.parse_args()
    if args.density < 2:
        ap.error("--density must be at least 2")
    try:
        results = (("case1", sweep_case1(args.density)),
                   ("case2", sweep_case2(args.density)),
                   ("degenerate", sweep_degenerate(args.density)))
        rows = bounds_table(bounds_grid(args.density))
    except MemoryError as exc:  # a grid too large to allocate: the CLI's exit 1 and line
        sys.exit(f"error: out of memory: {exc or 'allocation failed'}")

    try:
        # an --outdir under a regular file, or a regular file itself, fails
        # here, before any file is written
        args.outdir.mkdir(parents=True, exist_ok=True)
        for name, result in results:
            # streamed line by line, as the CLI writes a sweep
            with open(args.outdir / f"sweep_{name}.csv", "w", encoding="utf-8") as fh:
                fh.writelines(sweep_csv_lines(result))
            _summary(f"sweep_{name}", result)

        (args.outdir / "bounds.csv").write_text(bounds_csv(rows))
    except OSError as exc:  # an unusable --outdir: the CLI's exit 1 and line
        sys.exit(f"error: {exc}")
    print(f"bounds: {len(rows)} rows, curves meet at "
          f"E = {rows[-1][0]:.6f} (lower {rows[-1][1]:.6f}, upper {rows[-1][2]:.6f})")


if __name__ == "__main__":
    main()
