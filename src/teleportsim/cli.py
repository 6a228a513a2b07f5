"""Command-line entry point.

Subcommands: verify, sweep-case1, sweep-case2, sweep-degenerate, bounds,
report. Exit codes: 0 success, 1 validation error or unwritable --out (for
example a missing directory), 2 infeasibility / incapable channel, 64 usage
error (unknown flag or subcommand).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .channel import canonicalize, make_channel
from .explorer import (
    SweepResult,
    bounds_table,
    record_fields,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)
from .qlinalg import LOG2_3
from .resources import resource_report
from .scheme import InfeasibleError, find_scheme
from .teleport import CapabilityError, CorrectionError, random_input, run_teleport

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64

# CLI channel triples are renormalized when this close to the unit simplex
# (tolerates truncated decimals like 0.577)
_CLI_NORM_TOL = 1e-2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 64."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _parse_channel(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--channel expects three comma-separated values, got {text!r}")
    a = [float(p) for p in parts]
    s = sum(x * x for x in a)
    if abs(s - 1.0) > _CLI_NORM_TOL:
        raise ValueError(f"channel triple {a} too far from normalized (sum of squares {s})")
    return make_channel(*a, norm_tol=_CLI_NORM_TOL)


def _seed(args) -> int:
    """--seed, else the TELEPORTSIM_SEED environment variable, else 0."""
    return args.seed if args.seed is not None else int(os.environ.get("TELEPORTSIM_SEED", "0"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def sweep_csv(result: SweepResult) -> str:
    """A sweep as CSV: header, one line per record, then a `# skipped=N` footer."""
    lines = [",".join(record_fields())]
    for r in result.records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in record_fields()))
    lines.append(f"# skipped={result.skipped}")
    return "\n".join(lines) + "\n"


def bounds_csv(rows) -> str:
    """bounds_table rows as CSV under the header `e,lower,upper`."""
    lines = ["e,lower,upper"] + [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _sweep_json(result: SweepResult) -> str:
    return json.dumps(
        {
            "records": [
                {name: getattr(r, name) for name in record_fields()}
                for r in result.records
            ],
            "skipped": result.skipped,
        },
        indent=2,
    ) + "\n"


def _emit_sweep(result: SweepResult, fmt: str, out: str | None) -> None:
    _emit(sweep_csv(result) if fmt == "csv" else _sweep_json(result), out)


def _add_common(p: _Parser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--density", type=int, default=200)


def build_parser() -> _Parser:
    parser = _Parser(prog="teleportsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("verify", "run the protocol on one channel and certify fidelity"),
                       ("report", "resource report for one channel's solved scheme")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--channel", required=True)
        p.add_argument("--theta3", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)

    for name in ("sweep-case1", "sweep-case2", "sweep-degenerate"):
        _add_common(sub.add_parser(name, help=f"emit the {name} data set"))

    _add_common(sub.add_parser("bounds", help="tabulate the trade-off bounds over E"))
    return parser


def _cmd_channel(args) -> int:
    """verify / report: solve one channel, then certify it or account its resources."""
    ch = _parse_channel(args.channel)
    canon, perm = canonicalize(ch)
    # the seed is read before solving, so a bad seed outranks an infeasible channel
    seed = _seed(args) if args.command == "verify" else None
    params = find_scheme(canon, theta3=args.theta3)
    payload = {
        "channel": ch.to_json_dict(),
        "canonical_channel": canon.to_json_dict(),
        "permutation": list(perm.perm),
        "scheme": params.to_json_dict(),
    }
    if args.command == "verify":
        inp = random_input(np.random.default_rng(seed))
        payload["report"] = run_teleport(inp, canon, params).to_json_dict()
    else:
        payload["resources"] = resource_report(canon, params).to_json_dict()
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    grid = np.linspace(1.0 + 1e-9, LOG2_3, args.density)
    rows = bounds_table(grid)
    if args.format == "csv":
        _emit(bounds_csv(rows), args.out)
    else:
        _emit(json.dumps(
            [{"e": r[0], "lower": r[1], "upper": r[2]} for r in rows], indent=2
        ) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command in ("verify", "report"):
            return _cmd_channel(args)
        if args.density < 2:
            raise ValueError("density must be at least 2")
        if args.command == "bounds":
            return _cmd_bounds(args)
        seed = _seed(args)
        if args.command == "sweep-case1":
            result = sweep_case1(args.density, seed)
        elif args.command == "sweep-case2":
            result = sweep_case2(args.density, seed)
        elif args.command == "sweep-degenerate":
            grid = np.linspace(0.0, math.pi / 2, args.density)
            result = sweep_degenerate(grid, seed)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown command {args.command}")
        _emit_sweep(result, args.format, args.out)
        return EXIT_OK
    except (InfeasibleError, CapabilityError, CorrectionError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
