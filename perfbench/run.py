#!/usr/bin/env python3
"""teleportsim benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload certify-random --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the library is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it reports the per-layer metrics instead,
from a traced run that follows an untraced one in the same process. Every
output is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads its library
BLAS_THREADS = "1"
os.environ.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
                  MKL_NUM_THREADS=BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 9
# a host probe (workloads.probe_ns) takes this long when the shared host is
# quiet; timed figures are scaled to that speed
REF_PROBE_NS = 48_000.0
PROBE_WINDOW = 11
SETUP_CHANNEL = "0.5477225575051661,0.6708203932499369,0.5"  # squares (0.3, 0.45, 0.25)
SETUP_CODE = "import sys; from teleportsim import cli; sys.exit(cli.main(sys.argv[1:]))"


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def _percentile(sorted_vals, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)]


def _tail(sorted_vals):
    """(percentile, value, samples beyond it): p99 if 10 samples lie beyond
    it, else the highest percentile that has 10 samples beyond it."""
    n = len(sorted_vals)
    k = max(0, math.ceil(0.99 * n) - 1)
    if n - 1 - k < 10:
        k = max(0, n - 11)
    return 100.0 * (k + 1) / n, sorted_vals[k], n - 1 - k


def _blas_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_env": BLAS_THREADS, "blas_threads_reported": threads}


def _git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # the tree is not a git checkout


def _cold_verify() -> tuple[float, str | None]:
    """Seconds for a fresh interpreter to import teleportsim and run one verify."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, "verify", "--channel", SETUP_CHANNEL, "--seed", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, f"cold verify exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    fids = [b["fidelity"] for b in json.loads(proc.stdout)["report"]["branches"]]
    if min(fids) < 1.0 - 1e-10:
        return seconds, f"cold verify branch fidelity {min(fids)!r}"
    return seconds, None


def _measure(workload, seconds: float, tracer=None, between=None):
    """Whole passes until `seconds` have been spent in them; `between` runs
    before each pass, untimed. Per-pass call counts if traced."""
    passes, calls = [], []
    spent = 0.0
    while not passes or spent < seconds:
        if between is not None:
            between()
        before = Counter(tracer.calls) if tracer else None
        start = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        spent += time.perf_counter() - start
        if tracer:
            calls.append(Counter(tracer.calls) - before)
    return passes, calls


def _scaled(p) -> tuple[np.ndarray, np.ndarray]:
    """A pass's unit latencies and other stretches (ns) at the reference host speed.

    Each unit is divided by the host's local slowness: the running median of
    PROBE_WINDOW probes around it over REF_PROBE_NS. Unprobed passes are
    returned as measured.
    """
    lat, other = np.asarray(p.latencies_ns, float), np.asarray(p.other_ns, float)
    if not p.probe_ns:
        return lat, other
    half = PROBE_WINDOW // 2
    padded = np.pad(np.asarray(p.probe_ns, float), half, mode="edge")
    slowness = np.median(sliding_window_view(padded, PROBE_WINDOW), axis=1) / REF_PROBE_NS
    return lat / slowness, other / np.median(slowness)


def _latency_stats(lat_ns, prefix: str) -> dict:
    lat = np.sort(lat_ns)
    pct, tail, beyond = _tail(lat)
    return {f"{prefix}latency_p50_us": _percentile(lat, 50.0) / 1e3,
            f"{prefix}latency_p99_us": tail / 1e3,
            f"{prefix}tail_percentile": pct, f"{prefix}tail_beyond": beyond,
            f"{prefix}samples": len(lat)}


def _totals(passes) -> dict:
    scaled = [_scaled(p) for p in passes]
    pass_s = [(lat.sum() + other.sum()) / 1e9 for lat, other in scaled]
    finished = sum(p.finished for p in passes)
    return {
        "wall_s": statistics.median(pass_s),
        "units_per_s": finished / sum(pass_s),
        **_latency_stats(np.concatenate([lat for lat, _ in scaled]), ""),
        "raw_wall_s": statistics.median(p.seconds for p in passes),
        "raw_units_per_s": finished / sum(p.seconds for p in passes),
        **_latency_stats(np.concatenate([p.latencies_ns for p in passes]), "raw_"),
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "notes": [n for p in passes for n in p.notes][:5],
    }


def _trace_targets(names, library, checks) -> dict:
    """`module.function -> (module object, attribute)` for every traced function."""
    targets = {}
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[2] not in ("calls", "self_s", "fails"):
            continue
        mod = checks if parts[0] == "bench" else getattr(library, parts[0])
        targets[f"{parts[0]}.{parts[1]}"] = (mod, parts[1])
    return targets


def _layer_values(names, tracer, traced, untraced, calls_per_pass) -> dict:
    n = len(traced)
    self_ns = tracer.self_ns()
    units = traced[0].finished
    values = {}
    for name in names:
        func, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls_per_pass[func]
        elif stat == "self_s":
            values[name] = self_ns[func] / n / 1e9
        elif stat == "fails":
            values[name] = tracer.fails[func] / n
        elif name == "scheme.solve_constraints.useful_ratio":
            solves = calls_per_pass["scheme.solve_constraints"]
            values[name] = units / solves if solves else 0.0
        elif name == "bench.trace_overhead_s":
            values[name] = (statistics.median(p.seconds for p in traced)
                            - statistics.median(p.seconds for p in untraced))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "teleportsim" / "__init__.py").is_file():
        return _fail(f"no teleportsim sources under {SRC}; run from a teleportsim source tree")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import teleportsim
    if Path(teleportsim.__file__).resolve().parent != (SRC / "teleportsim").resolve():
        return _fail(f"imported teleportsim from {teleportsim.__file__}, not from {SRC}")
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wrong = checks.self_test()
    if wrong:
        return _fail("checker self-test accepted bad data: " + "; ".join(wrong), 3)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        make = workloads.WORKLOADS[args.workload]
        wl = make(args.seed, workdir)
        input_digest = wl.digest()
        if make(args.seed, workdir).digest() != input_digest:
            return _fail("the same seed generated different inputs", 3)

        problems, setup = [], []

        def launch():
            # spread over the run, so the median samples the host's drift
            if len(setup) < SETUP_LAUNCHES:
                slowness = statistics.median(workloads.probe_ns() for _ in range(PROBE_WINDOW))
                seconds, problem = _cold_verify()
                setup.append((seconds, slowness / REF_PROBE_NS))
                if problem:
                    problems.append(problem)

        wl.warm_up()
        if args.trace == 0:
            _cold_verify()  # compiles bytecode once; not timed
            passes, _ = _measure(wl, args.seconds, between=launch)
            while len(setup) < SETUP_LAUNCHES:
                launch()
            totals = _totals(passes)
            values = {k: totals[k] for k in
                      ("wall_s", "units_per_s", "latency_p50_us", "latency_p99_us")}
            values["setup_s"] = statistics.median(s / slow for s, slow in setup)
            values["raw_setup_s"] = statistics.median(s for s, _ in setup)
            values["fail_ratio"] = totals["failed"] / totals["attempted"]
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metric_specs = spec["end_to_end"]
            extra_units = {"fail_ratio": "ratio", "raw_setup_s": "s", "raw_wall_s": "s",
                           "raw_units_per_s": "1/s", "raw_latency_p50_us": "us",
                           "raw_latency_p99_us": "us"}
            for k in ("raw_wall_s", "raw_units_per_s", "raw_latency_p50_us", "raw_latency_p99_us"):
                values[k] = totals[k]
        else:
            # an idle tracer: same loop, no probes, nothing recorded
            untraced, _ = _measure(wl, args.seconds / 2, tracing.Tracer())
            tracer = tracing.Tracer()
            library_modules = tracing.loaded_modules(["teleportsim"]) + [checks]
            names = [m["name"] for m in spec["per_layer"]]
            tracer.install(_trace_targets(names, teleportsim, checks), library_modules)
            try:
                traced, calls = _measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            if any(c != calls[0] for c in calls):
                problems.append("call counts differ between identical passes")
            totals = _totals(untraced + traced)
            values = _layer_values(names, tracer, traced, untraced, calls[0])
            values["untraced_wall_s"] = statistics.median(p.seconds for p in untraced)
            values["traced_wall_s"] = statistics.median(p.seconds for p in traced)
            metric_specs = spec["per_layer"]
            extra_units = {"untraced_wall_s": "s", "traced_wall_s": "s"}
            tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": input_digest, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "teleportsim": teleportsim.__version__, **_blas_facts(),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    shown = {**metrics, **{k: {"value": values[k], "unit": u} for k, u in extra_units.items()}}
    print(f"# machine {json.dumps(facts)}")
    print(f"# {totals['passes']} passes, {totals['samples']} timed units, "
          f"tail = p{totals['tail_percentile']:.2f} with {totals['tail_beyond']} samples beyond")
    if args.trace == 0:
        print("# times are scaled to the reference host speed; raw_* are as measured")
    print(f"# failed {totals['failed']} of {totals['attempted']} units")
    for note in totals["notes"] + problems:
        print(f"# FAILURE {note}")
    for name, m in shown.items():
        print(f"{name:45s} {m['value']:>16.6f} {m['unit']}")
    failed = totals["failed"]
    result = {"correct": failed == 0 and not problems, "attempted": totals["attempted"],
              "failed": failed, "metrics": metrics}
    record = {"facts": facts, "result": result, "shown": shown, "problems": problems,
              "notes": totals["notes"]}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
