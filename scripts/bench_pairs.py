#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs and summarize the runs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads family-sweeps,certify-random,bounds-grid \\
        --pairs 10 --seconds 30 --first-seed 3401 --out BENCH_34.json

Each revision is exported with `git archive` into a temporary directory, and
the export's own, unchanged `perfbench/run.py` runs from it (`--trace 0`).
Pair i of a workload runs both sides on one seed, back to back; the side
that runs first alternates from pair to pair and keeps alternating across
workloads. Seeds count up from --first-seed, one per pair, workload after
workload. The output file is rewritten after every run, so an interrupted
session keeps what it finished.

The summary (`summary_trace0`) gives, per workload and end-to-end metric of
BENCHMARK.json, each side's median, q1 and q3 over its runs
(statistics.quantiles(n=4, method="inclusive")), the pairs, in how many
pairs the change was better, the change of the median in percent, the
parent's q3 - q1 in percent of its median, whether the change's median is
within the metric's bound of the parent's, and whether a gain is shown
(`gain_shown`): the change is better in at least 9 of 10 pairs and its
median beats the parent's by more than the parent's q3 - q1. Per workload
it also gives `peak_rss_per_unit`: the least-squares slope of peak_rss_mb on
attempted units over both sides' runs, one intercept per side (the pooled
within-side slope), in bytes per unit, and the change's peak_rss_mb move,
median against median, left after subtracting that slope times the move of
the median attempted units. perfbench keeps every unit's latency, so a
side that runs more units peaks higher; the move left is the part the
unit count does not explain. When the last run ends, one line per workload
and metric goes to stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def schedule(workloads: list[str], pairs: int, first_seed: int) -> list[dict]:
    """The runs in order: per workload, `pairs` pairs on consecutive seeds,
    each pair's two sides back to back, parent first in every other pair
    counted across workloads."""
    runs, k = [], 0
    for workload in workloads:
        for pair in range(pairs):
            first = SIDES[k % 2]
            for side in (first, SIDES[1 - k % 2]):
                runs.append({"side": side, "workload": workload, "trace": 0,
                             "seed": first_seed + k, "pair": pair,
                             "ran_first_in_pair": side == first})
            k += 1
    return runs


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def rss_per_unit(pairs: list[dict]) -> dict | None:
    """peak_rss_mb against attempted units over the runs of both sides of
    `pairs`: the pooled within-side least-squares slope, in bytes per unit
    (perfbench's MB is 1e6 B), and the change's median peak_rss_mb move net
    of the slope times the move of the median attempted units, in MB and
    in percent of the parent's median. None when a run lacks peak_rss_mb or
    no side's unit count varies."""
    if any("peak_rss_mb" not in p[side]["metrics"] for p in pairs for side in SIDES):
        return None
    sxy = sxx = 0.0
    medians = {}
    for side in SIDES:
        units = [p[side]["attempted"] for p in pairs]
        rss = [p[side]["metrics"]["peak_rss_mb"]["value"] for p in pairs]
        mu, mr = statistics.fmean(units), statistics.fmean(rss)
        sxy += sum((u - mu) * (r - mr) for u, r in zip(units, rss))
        sxx += sum((u - mu) ** 2 for u in units)
        medians[side] = (statistics.median(units), statistics.median(rss))
    if sxx == 0.0:
        return None
    slope = sxy / sxx
    (pu, pr), (cu, cr) = medians["parent"], medians["change"]
    net = cr - pr - slope * (cu - pu)
    return {"bytes_per_unit": round(slope * 1e6, 1),
            "net_move_mb": round(net, 4),
            "net_move_pct": round(net / pr * 100.0, 2)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """summary_trace0 of finished runs: per workload, per end-to-end metric
    (BENCHMARK.json's `end_to_end` entries: name, better, bound), the pairs
    in which both sides finished with a record, compared side by side; and
    per workload the attempted units, a median per side, and
    peak_rss_per_unit (rss_per_unit) where the runs report peak_rss_mb."""
    summary: dict = {}
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for workload in workloads:
        by_pair: dict = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0 and r.get("record"):
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["record"]["result"]
        pairs = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == 2]
        if not pairs:
            continue
        out: dict = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            values = [[p[side]["metrics"][name]["value"] for side in SIDES] for p in pairs]
            parent = _quartiles([v[0] for v in values])
            change = _quartiles([v[1] for v in values])
            pm, cm = parent["median"], change["median"]
            better = sum((c < p) if lower else (c > p) for p, c in values)
            limit = pm * (1.0 + spec["bound"]) if lower else pm * (1.0 - spec["bound"])
            gap = pm - cm if lower else cm - pm
            out[name] = {
                "parent": parent,
                "change": change,
                "change_better_in": f"{better} of {len(values)}",
                "median_change_pct": round((cm / pm - 1.0) * 100.0, 2),
                "within_bound": cm <= limit if lower else cm >= limit,
                "gain_shown": 10 * better >= 9 * len(values) and gap > parent["q3"] - parent["q1"],
                "parent_iqr_pct_of_median": round((parent["q3"] - parent["q1"]) / pm * 100.0, 2),
                "pairs": values,
            }
        out["attempted_units"] = {
            side: statistics.median(p[side]["attempted"] for p in pairs) for side in SIDES}
        out["failed_units"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        rss = rss_per_unit(pairs)
        if rss is not None:
            out["peak_rss_per_unit"] = rss
        summary[workload] = out
    return summary


def summary_lines(summary: dict) -> list[str]:
    """One line per workload and end-to-end metric of a summary_trace0, and
    one per workload with a peak_rss_per_unit."""
    lines = []
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            if name == "peak_rss_per_unit":
                lines.append(f"{workload} peak_rss_mb per unit: {m['bytes_per_unit']:.1f} B, "
                             f"move net of units {m['net_move_mb']:+.4f} MB "
                             f"({m['net_move_pct']:+.2f}%)")
                continue
            if "pairs" not in m:  # attempted_units, failed_units
                continue
            lines.append(
                f"{workload} {name}: parent {m['parent']['median']:.6g}, "
                f"change {m['change']['median']:.6g} ({m['median_change_pct']:+.2f}%), "
                f"better in {m['change_better_in']}, parent IQR "
                f"{m['parent_iqr_pct_of_median']:.2f}%, "
                f"{'within' if m['within_bound'] else 'OUT OF'} bound, "
                f"gain {'shown' if m['gain_shown'] else 'not shown'}")
    return lines


def _export(rev: str, dest: pathlib.Path) -> str:
    """Unpack the tree of `rev` into dest; return its full commit id."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run([*git, "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def _run(tree: pathlib.Path, run: dict, seconds: float) -> dict:
    """One perfbench run from the tree; its record file, or None when it wrote none."""
    result_file = tree / ".perfbench_out" / f"result-{run['workload']}-trace0.json"
    result_file.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run["workload"],
         "--seed", str(run["seed"]), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    record = json.loads(result_file.read_text()) if result_file.exists() else None
    return {**run, "finished_at": int(time.time()), "record": record,
            "returncode": proc.returncode}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--change", required=True, help="the revision under test")
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--claim", default="none: no gain is claimed")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        commits = {side: _export(rev, trees[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        plan = schedule(workloads, args.pairs, args.first_seed)
        done: list[dict] = []
        for run in plan:
            done.append(_run(trees[run["side"]], run, args.seconds))
            print(f"{run['workload']} pair {run['pair']} {run['side']}: "
                  f"returncode {done[-1]['returncode']}", flush=True)
            payload = {
                "what": args.what,
                "command": (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                            f"--seconds {args.seconds:g} --trace 0"),
                "parent_commit": commits["parent"],
                "change_commit": commits["change"],
                "claim": args.claim,
                "no_regression_rule": (
                    "for every end-to-end metric and workload, the change's median over its "
                    "pairs is no worse than the parent's by more than the BENCHMARK.json bound"),
                "order": (
                    "each pair runs parent and change on one seed, back to back; the side that "
                    "runs first alternates from pair to pair, and continues alternating across "
                    "workloads (ran_first_in_pair); finished_at is the run's end in Unix "
                    "seconds; each side ran from a git archive export of its commit, so each "
                    "record's facts.git_commit is null"),
                "quartiles": (
                    "statistics.quantiles(n=4, method='inclusive') over the runs of a side; "
                    "parent_iqr_pct_of_median is the parent's q3 - q1 as a percentage of its "
                    "median"),
                "seeds": {w: f"{args.first_seed + i * args.pairs}-"
                             f"{args.first_seed + (i + 1) * args.pairs - 1}"
                          for i, w in enumerate(workloads)},
                "summary_trace0": summarize(done, end_to_end),
                "incorrect_runs": [
                    {k: r[k] for k in ("side", "workload", "seed", "pair", "returncode")}
                    for r in done if not (r["record"] and r["record"]["result"]["correct"])],
                "runs": done,
            }
            args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print("\n".join(summary_lines(summarize(done, end_to_end))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
