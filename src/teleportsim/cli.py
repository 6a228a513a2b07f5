"""Command-line entry point.

Subcommands: verify, sweep-case1, sweep-case2, sweep-degenerate, bounds,
report. Exit codes: 0 success, 1 validation error (including a flag value
that does not parse), unwritable --out (for example a missing directory) or
out of memory (for example a --density whose grid cannot be allocated),
2 infeasibility / incapable channel, 64 usage error (unknown flag or
subcommand).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .channel import CapabilityError, canonicalize, make_channel
from .explorer import (
    SweepRecord,
    SweepResult,
    bounds_grid,
    bounds_table,
    sweep_case1,
    sweep_case2,
    sweep_degenerate,
)
from .resources import resource_report
from .scheme import InfeasibleError, find_scheme
from .teleport import CorrectionError, random_input, run_teleport

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64

# CLI channel triples are renormalized when this close to the unit simplex
# (tolerates truncated decimals like 0.577)
_CLI_NORM_TOL = 1e-2


class _UsageError(Exception):
    pass


# a value argparse would read as a flag of its own: a minus sign, then a
# digit, a point and a digit, or inf / nan in any case
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 64.

    It reads every _NEGATIVE_VALUE word as a value, not a flag: argparse's
    own matcher takes only -N and -N.N, so `--theta3 -1e-3` or
    `--channel -0.1,0.7,0.7` would be a flag missing its value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE  # private in argparse

    def error(self, message):
        raise _UsageError(message)


def _parse_channel(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--channel expects three comma-separated values, got {text!r}")
    a = [float(p) for p in parts]
    return make_channel(*a, norm_tol=_CLI_NORM_TOL)


def _seed(args) -> int:
    """--seed, else the TELEPORTSIM_SEED environment variable, else 0.

    Anything but a non-negative integer raises a ValueError naming its source.
    """
    if args.seed is not None:
        name, value = "--seed", args.seed
    else:
        name, value = "TELEPORTSIM_SEED", os.environ.get("TELEPORTSIM_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return seed


def _parse_numbers(args) -> None:
    """Convert --density to an int and --theta3 to a float, in place.

    A value that does not parse raises a ValueError naming the flag; range
    checks (density at least 2, finite theta3) come later, from their users.
    """
    for flag, convert, kind in (("density", int, "an integer"), ("theta3", float, "a number")):
        value = getattr(args, flag, None)
        if value is None:
            continue
        try:
            setattr(args, flag, convert(value))
        except ValueError:
            raise ValueError(f"--{flag} must be {kind}, got {value!r}") from None


def _emit(chunks, out: str | None) -> None:
    """Write the text pieces to `out`, or to stdout when it is None."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def sweep_csv_lines(result: SweepResult):
    """A sweep as CSV lines, each ending in a newline: header, one line per
    record, then a `# skipped=N` footer.

    Every field is written as format(x, ".17g") would write it, the last,
    bound_upper, empty when None. The channel columns (a0, a1, a2), theta3,
    e_channel and the bound columns (bound_lower, bound_upper) are formatted
    once per run of consecutive records that hold the very same objects
    there (compared with `is`, so 0.0 and -0.0 never share text); the sweep
    driver builds a channel's records from one ch.a, one ch.entropy and one
    pair of bounds, and case 1 and the degenerate sweep pass one theta3
    object to all of a channel's points. The other five fields go through
    one %.17g template per record.
    """
    line = "%s%.17g,%.17g,%s%s%.17g,%.17g,%.17g,%s"
    yield ",".join(SweepRecord._fields) + "\n"
    # matches no field, so the first record formats all
    k0 = k1 = k2 = k3 = ke = klo = kup = object()
    for a0, a1, a2, t1, t2, t3, e_channel, e12, h12, total, lo, up in result.records:
        if a0 is not k0 or a1 is not k1 or a2 is not k2 or lo is not klo or up is not kup:
            k0, k1, k2, klo, kup = a0, a1, a2, lo, up
            channel = "%.17g,%.17g,%.17g," % (a0, a1, a2)
            bounds = "%.17g,\n" % lo if up is None else "%.17g,%.17g\n" % (lo, up)
        if t3 is not k3:
            k3 = t3
            theta3 = "%.17g," % t3
        if e_channel is not ke:
            ke = e_channel
            entropy = "%.17g," % e_channel
        yield line % (channel, t1, t2, theta3, entropy, e12, h12, total, bounds)
    yield f"# skipped={result.skipped}\n"


def bounds_csv(rows) -> str:
    """bounds_table rows as CSV under the header `e,lower,upper`, each row
    in sweep_csv_lines' %.17g template."""
    return "".join(["e,lower,upper\n"] + ["%.17g,%.17g,%.17g\n" % tuple(row) for row in rows])


def _sweep_json(result: SweepResult) -> str:
    return json.dumps(
        {
            "records": [r._asdict() for r in result.records],
            "skipped": result.skipped,
        },
        indent=2,
    ) + "\n"


def _emit_sweep(result: SweepResult, fmt: str, out: str | None) -> None:
    # CSV goes out line by line, never held whole in memory
    _emit(sweep_csv_lines(result) if fmt == "csv" else (_sweep_json(result),), out)


def _add_common(p: _Parser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--density", default=200)


def build_parser() -> _Parser:
    parser = _Parser(prog="teleportsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("verify", "run the protocol on one channel and certify fidelity"),
                       ("report", "resource report for one channel's solved scheme")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--channel", required=True)
        p.add_argument("--theta3", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)

    for name in ("sweep-case1", "sweep-case2", "sweep-degenerate"):
        _add_common(sub.add_parser(name, help=f"emit the {name} data set"))

    _add_common(sub.add_parser("bounds", help="tabulate the trade-off bounds over E"))
    return parser


def _cmd_channel(args, seed: int) -> int:
    """verify / report: solve one channel, then certify it or account its resources."""
    ch = _parse_channel(args.channel)
    canon, perm = canonicalize(ch)
    params = find_scheme(canon, theta3=args.theta3)
    payload = {
        "channel": ch.to_json_dict(),
        "canonical_channel": canon.to_json_dict(),
        "permutation": list(perm),
        "scheme": params.to_json_dict(),
    }
    if args.command == "verify":
        inp = random_input(np.random.default_rng(seed))
        payload["report"] = run_teleport(inp, canon, params).to_json_dict()
    else:
        payload["resources"] = resource_report(canon, params).to_json_dict()
    _emit((json.dumps(payload, indent=2) + "\n",), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rows = bounds_table(bounds_grid(args.density))
    if args.format == "csv":
        _emit((bounds_csv(rows),), args.out)
    else:
        _emit((json.dumps(
            [{"e": r[0], "lower": r[1], "upper": r[2]} for r in rows], indent=2
        ) + "\n",), args.out)
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built on the first main call and kept for the
    process: parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # read first, so a bad seed outranks every other error
        seed = _seed(args)
        _parse_numbers(args)
        if args.command in ("verify", "report"):
            return _cmd_channel(args, seed)
        if args.command == "bounds":
            return _cmd_bounds(args)
        # built per call, so a sweep rebound in this module (by a tracer, say)
        # is the one that runs
        sweep = {"sweep-case1": sweep_case1, "sweep-case2": sweep_case2,
                 "sweep-degenerate": sweep_degenerate}[args.command]
        _emit_sweep(sweep(args.density), args.format, args.out)
        return EXIT_OK
    except (InfeasibleError, CapabilityError, CorrectionError) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
