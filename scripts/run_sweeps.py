#!/usr/bin/env python3
"""Reproduce the resource-tradeoff data sets as CSV files.

Emits the two channel-family sweeps, the degenerate-channel profile, and the
bound curves into an output directory, then prints a short summary of each
data set (record counts, extremal sums). All output is deterministic: the
sweeps draw no random numbers.
"""

import argparse
import pathlib

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
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, result in (
        ("case1", sweep_case1(args.density)),
        ("case2", sweep_case2(args.density)),
        ("degenerate", sweep_degenerate(args.density)),
    ):
        # streamed line by line, as the CLI writes a sweep
        with open(args.outdir / f"sweep_{name}.csv", "w", encoding="utf-8") as fh:
            fh.writelines(sweep_csv_lines(result))
        _summary(f"sweep_{name}", result)

    rows = bounds_table(bounds_grid(args.density))
    (args.outdir / "bounds.csv").write_text(bounds_csv(rows))
    print(f"bounds: {len(rows)} rows, curves meet at "
          f"E = {rows[-1][0]:.6f} (lower {rows[-1][1]:.6f}, upper {rows[-1][2]:.6f})")


if __name__ == "__main__":
    main()
