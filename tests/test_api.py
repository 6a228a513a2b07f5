"""The package's public names, pinned: an export is added or removed only on
purpose. Also the names the benchmark's tracer looks up, the return types
its certify unit relies on, and the module graph around the acceptance rule."""

import ast
import importlib
import importlib.util
import json
import pathlib

import numpy as np

import teleportsim
from helpers import random_capable_channel
from teleportsim.teleport import branch_components, branch_corrections

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    "CapabilityError",
    "CorrectionError",
    "InfeasibleError",
    "InputQubit",
    "MeasurementBasis",
    "ResourceReport",
    "SchemeParams",
    "SchmidtChannel",
    "TeleportReport",
    "admissible_theta3",
    "assemble_D12",
    "canonicalize",
    "channel_entropy",
    "classical_cost",
    "find_scheme",
    "gour_e12",
    "is_teleport_capable",
    "lower_bound_sum",
    "make_channel",
    "measurement_entanglement",
    "random_input",
    "resource_report",
    "run_teleport",
    "solve_constraints",
    "upper_bound_sum",
]


def test_all_is_pinned():
    assert sorted(teleportsim.__all__) == PUBLIC


def test_every_name_resolves():
    for name in PUBLIC:
        assert getattr(teleportsim, name).__module__.startswith("teleportsim."), name


def _imported_modules(path: pathlib.Path) -> set[str]:
    """The modules a source file imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
            if node.level and not node.module:  # from . import teleport
                names.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def test_acceptance_rule_has_one_home():
    # scheme decides which schemes count (certify_scheme gates
    # solve_constraints) and explorer takes what the solver returns: neither
    # imports teleport, so the rule cannot drift back into two modules
    for name in ("scheme.py", "explorer.py"):
        imported = _imported_modules(ROOT / "src" / "teleportsim" / name)
        assert ".scheme" in imported or ".channel" in imported, name
        assert not {".teleport", "teleportsim.teleport"} & imported, name


def _perfbench_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_traced_names_resolve():
    # `perfbench/run.py --trace 1` looks up each per-layer name
    # module.function.stat of BENCHMARK.json with getattr: teleportsim.<module>,
    # or perfbench/checks.py for "bench". A function deleted or renamed in the
    # library would break traced runs, so each must resolve.
    checks = _perfbench_checks()
    names = [m["name"].split(".") for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    traced = [n for n in names if len(n) == 3]
    assert len(traced) >= 30
    for module, function, _ in traced:
        mod = checks if module == "bench" else importlib.import_module(f"teleportsim.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_perfbench_certify_contract():
    # the benchmark's certify-random unit hands branch_components and
    # branch_corrections to checks.fidelity_check, which takes `w.T` of each
    # correction: both must stay ndarrays of their shapes, or every unit fails
    checks = _perfbench_checks()
    assert checks.self_test() == []
    rng = np.random.default_rng(41)
    for _ in range(5):
        ch = random_capable_channel(rng)
        _, basis = teleportsim.assemble_D12(teleportsim.find_scheme(ch))
        comps, corrections = branch_components(ch.a, basis), branch_corrections(ch.a, basis)
        assert isinstance(comps, np.ndarray) and comps.shape == (6, 2, 3)
        assert isinstance(corrections, np.ndarray) and corrections.shape == (6, 3, 3)
        q = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        assert checks.fidelity_check(q, comps, corrections) >= 1.0 - 1e-10
