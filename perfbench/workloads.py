"""The three workloads: seeded inputs, one pass over them, and its checks.

Every workload draws its inputs from a pool captured with its goldens
(capture_goldens.py). The pool holds two candidates per stratum and the
workload seed picks one of each pair, then shuffles the order, so each seed
gets distinct inputs with the same mix of work. Each workload runs in a
closed loop: one caller, the next unit starts when the last one ends.

The library is always called through module attributes
(`scheme.solve_constraints`, not an imported name) so that a traced run sees
the benchmark's own calls as well as the library's internal ones.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from teleportsim import channel, cli, explorer, resources, scheme, teleport

GOLDENS = Path(__file__).resolve().parent / "goldens"

# certify-random: units per pass by channel kind (about 90% Dirichlet-random)
CERTIFY_KINDS = {"random": 900, "a0_zero": 34, "face": 33, "near_symmetric": 33}
HAAR_INPUTS = 20
SWEEP_COMMANDS = ("sweep-case1", "sweep-case2", "sweep-degenerate")
SWEEP_DENSITY = 200
BOUNDS_POINTS = 1000

clock = time.perf_counter_ns

_PROBE_VEC = np.array([0.3, 0.4, 0.5])


def probe_ns() -> int:
    """Time a fixed snippet of interpreter and scalar-sized numpy work.

    The host is shared and its speed drifts by tens of percent within
    seconds. Timed runs probe it after every unit, so each unit's latency can
    be scaled to a fixed host speed (see run.py). The snippet does the kind of
    work that dominates the library, calls nothing in it, and tracked the
    drift better than probes with 6x6 matrix products or with no numpy.
    """
    start = clock()
    x = 0.0
    for i in range(15):
        x += float(np.sum(_PROBE_VEC * _PROBE_VEC)) + math.log2(1.0 + i)
    return clock() - start


def load_golden(name: str):
    with gzip.open(GOLDENS / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """One index out of each pool pair (2i, 2i+1), for i < n."""
    return 2 * np.arange(n) + rng.integers(0, 2, size=n)


def haar_inputs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n sets of HAAR_INPUTS Haar-random qubits, rows (alpha, beta)."""
    q = rng.normal(size=(n, HAAR_INPUTS, 2)) + 1j * rng.normal(size=(n, HAAR_INPUTS, 2))
    return q / np.linalg.norm(q, axis=2, keepdims=True)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part).encode())
    return h.hexdigest()


@dataclass
class Pass:
    """One pass over a workload's inputs: timed work, then its checks.

    `latencies_ns` has one entry per unit and `other_ns` one per stretch of
    timed work outside any unit, both in the same order on every pass.
    `probe_ns` has one host-speed probe per unit, taken just after it, on
    timed runs only. `seconds` is the pass's timed work, probes excluded.
    """

    seconds: float = 0.0
    latencies_ns: list = field(default_factory=list)
    other_ns: list = field(default_factory=list)
    probe_ns: list = field(default_factory=list)
    attempted: int = 0
    finished: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


def certify_unit(item: dict, q: np.ndarray):
    """Solve, assemble, correct and certify one channel; return (worst F, outputs)."""
    ch, _ = channel.canonicalize(channel.make_channel(*item["a"]))
    lo, hi = scheme.admissible_theta3(ch)
    theta2_hint, theta1_hint = item["hints"]
    params = scheme.solve_constraints(ch, lo + item["frac"] * (hi - lo),
                                      theta2_hint=theta2_hint, theta1_hint=theta1_hint)
    _, basis = scheme.assemble_D12(params)
    comps = teleport.branch_components(ch.a, basis)
    corrections = teleport.branch_corrections(ch.a, basis)
    worst = checks.fidelity_check(q, comps, corrections)
    rep = teleport.run_teleport(teleport.InputQubit(complex(q[0, 0]), complex(q[0, 1])),
                                ch, params)
    res = resources.resource_report(ch, params)
    return min(worst, *rep.fidelities), [*params.theta, *params.delta, res.e12, res.h12]


class CertifyRandom:
    """Acceptance 1, smaller: solve and certify channels one at a time."""

    name = "certify-random"

    def __init__(self, seed: int, workdir: Path):
        pool = load_golden("certify")["pool"]
        rng = np.random.default_rng([seed, 1])
        chosen = []
        for kind, n in CERTIFY_KINDS.items():
            of_kind = [i for i, e in enumerate(pool) if e["kind"] == kind]
            chosen += [of_kind[j] for j in stratified(rng, n)]
        self.items = [pool[i] for i in rng.permutation(chosen)]
        self.haar = haar_inputs(rng, len(self.items))

    def digest(self) -> str:
        return digest([[*e["a"], e["frac"], *e["hints"]] for e in self.items], self.haar)

    def warm_up(self) -> None:
        self.run_pass(None, limit=100)

    def run_pass(self, tracer, limit=None) -> Pass:
        """One pass; `tracer` is None on timed runs, which probe the host."""
        items, haar = self.items[:limit], self.haar[:limit]
        p, outs = Pass(), []
        for k, (item, q) in enumerate(zip(items, haar)):
            if tracer is not None:
                tracer.unit = k
            t0 = clock()
            try:
                out = certify_unit(item, q)
            except Exception as exc:  # a unit that raises is a failed unit
                out = exc
            p.latencies_ns.append(clock() - t0)
            outs.append(out)
            if tracer is None:
                p.probe_ns.append(probe_ns())
        p.seconds = sum(p.latencies_ns) / 1e9
        p.attempted = p.finished = len(items)
        for item, out in zip(items, outs):
            if isinstance(out, Exception):
                p.fail(1, f"channel {item['a']}: {type(out).__name__}: {out}")
            elif not checks.fidelity_ok(out[0]):
                p.fail(1, f"channel {item['a']}: branch fidelity {out[0]!r}")
            elif not checks.fields_match(out[1], item["out"]):
                p.fail(1, f"channel {item['a']}: outputs {out[1]} != golden {item['out']}")
        return p


def _stamped(fn, stamps: list, probes: list | None):
    """fn, noting when each call (one per emitted record) ends.

    Each stamp is (end of the call, time work resumes): a host probe, if
    `probes` collects them, runs in between and is left out of both records.
    """

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        done = clock()
        if probes is not None:
            probes.append(probe_ns())
        stamps.append((done, clock()))
        return out

    return wrapper


def read_sweep_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[None if x == "" else float(x) for x in line.split(",")] for line in lines[1:-1]]
    return lines[0].split(","), rows, int(lines[-1].removeprefix("# skipped="))


class FamilySweeps:
    """The three family data sets, each one `teleportsim sweep-*` command."""

    name = "family-sweeps"

    def __init__(self, seed: int, workdir: Path):
        self.golden = load_golden("sweeps")
        self.workdir = workdir
        self.argv = [[cmd, "--density", str(SWEEP_DENSITY), "--seed", str(seed),
                      "--out", str(workdir / f"{cmd}.csv")] for cmd in SWEEP_COMMANDS]

    def digest(self) -> str:
        return digest([argv[:-1] for argv in self.argv])

    def warm_up(self) -> None:
        for argv in self.argv:
            cli.main([argv[0], "--density", "20", "--out", str(self.workdir / "warm-up.csv")])

    def run_pass(self, tracer) -> Pass:
        """One pass; `tracer` is None on timed runs, which probe the host."""
        p = Pass()
        for j, argv in enumerate(self.argv):
            out = Path(argv[-1])
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.unit = j
            stamps: list = []
            probes = [] if tracer is None else None
            original = explorer.resource_report
            explorer.resource_report = _stamped(original, stamps, probes)
            t0 = clock()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a command that raises fails all its records
                rc = exc
            finally:
                t1 = clock()
                explorer.resource_report = original
            self._check(p, argv[0], rc, out, t0, t1, stamps, probes)
        p.seconds = (sum(p.latencies_ns) + sum(p.other_ns)) / 1e9
        return p

    def _check(self, p: Pass, cmd: str, rc, out: Path, t0: int, t1: int,
               stamps: list, probes: list | None) -> None:
        work = t1 - t0 - sum(probes or ())
        want = self.golden[cmd]
        n = len(want["records"])
        p.attempted += n
        try:
            if rc != 0:
                raise ValueError(f"exit {rc!r}")
            header, rows, skipped = read_sweep_csv(out)
        except (OSError, ValueError) as exc:
            p.fail(n, f"{cmd}: no usable output: {exc}")
            p.other_ns.append(work)
            return
        p.finished += len(rows)
        if rows and len(stamps) == len(rows):
            resumed = [t0] + [r for _, r in stamps]
            p.latencies_ns += [done - start for (done, _), start in zip(stamps, resumed)]
            p.other_ns.append(t1 - resumed[-1])  # CSV formatting and writing
        elif rows:  # records no longer pass one by one through resource_report
            p.latencies_ns += [work / len(rows)] * len(rows)
            p.other_ns.append(0)
        else:
            p.other_ns.append(work)
        if probes is not None:  # one probe per record, as on the other workloads
            p.probe_ns += probes if len(probes) == len(rows) else [probe_ns()] * len(rows)
        if header != want["header"]:
            p.fail(n, f"{cmd}: header {header} != golden {want['header']}")
            return
        bad = abs(len(rows) - n) + sum(not checks.fields_match(r, w)
                                       for r, w in zip(rows, want["records"]))
        if skipped != want["skipped"]:
            bad = max(bad, 1)
        if bad:
            p.fail(min(bad, n), f"{cmd}: {bad} records differ from golden "
                                f"({len(rows)} records, skipped={skipped}; golden {n}, "
                                f"skipped={want['skipped']})")


class BoundsGrid:
    """The bound curves, one `bounds_table` row per call."""

    name = "bounds-grid"

    def __init__(self, seed: int, workdir: Path):
        pool = load_golden("bounds")["rows"]
        rng = np.random.default_rng([seed, 3])
        self.rows = [pool[i] for i in rng.permutation(stratified(rng, BOUNDS_POINTS))]

    def digest(self) -> str:
        return digest([row[0] for row in self.rows])

    def warm_up(self) -> None:
        self.run_pass(None, limit=50)

    def run_pass(self, tracer, limit=None) -> Pass:
        """One pass; `tracer` is None on timed runs, which probe the host."""
        rows = self.rows[:limit]
        p, outs = Pass(), []
        for k, want in enumerate(rows):
            if tracer is not None:
                tracer.unit = k
            t0 = clock()
            try:
                out = explorer.bounds_table([want[0]])
            except Exception as exc:  # a row that raises is a failed unit
                out = exc
            p.latencies_ns.append(clock() - t0)
            outs.append(out)
            if tracer is None:
                p.probe_ns.append(probe_ns())
        p.seconds = sum(p.latencies_ns) / 1e9
        p.attempted = p.finished = len(rows)
        for want, out in zip(rows, outs):
            if isinstance(out, Exception):
                p.fail(1, f"E={want[0]!r}: {type(out).__name__}: {out}")
            elif len(out) != 1 or not checks.fields_match(list(out[0]), want):
                p.fail(1, f"E={want[0]!r}: row {out} != golden {want}")
        return p


WORKLOADS = {w.name: w for w in (CertifyRandom, FamilySweeps, BoundsGrid)}
