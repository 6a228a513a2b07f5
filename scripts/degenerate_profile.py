#!/usr/bin/env python3
"""Profile the a0 = 0 channel family over its free measurement angle.

For each theta1, solves the scheme, certifies unit fidelity on Haar-random
inputs, and prints the measurement entanglement E12, classical cost H12, and
their sum. The sum runs from 3 bits at the two-qubit-reduction endpoints up
to its maximum at theta1 = pi/4.
"""

import argparse
import math

from teleportsim.explorer import sweep_degenerate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=33)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.points < 2:
        ap.error("--points must be at least 2")

    result = sweep_degenerate(args.points, args.seed)
    print(f"{'theta1':>10} {'E12':>12} {'H12':>12} {'sum':>12}")
    for r in result.records:
        print(f"{r.theta1:10.6f} {r.e12:12.8f} {r.h12:12.8f} {r.sum:12.8f}")
    best = max(result.records, key=lambda r: r.sum)
    print(f"\nmax sum {best.sum:.8f} at theta1 = {best.theta1:.6f} "
          f"(pi/4 = {math.pi / 4:.6f})")


if __name__ == "__main__":
    main()
