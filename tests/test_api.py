"""The package's public names, pinned: an export is added or removed only on
purpose. Also the names the benchmark's tracer looks up."""

import importlib
import importlib.util
import json
import pathlib

import teleportsim

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


def test_traced_names_resolve():
    # `perfbench/run.py --trace 1` looks up each per-layer name
    # module.function.stat of BENCHMARK.json with getattr: teleportsim.<module>,
    # or perfbench/checks.py for "bench". A function deleted or renamed in the
    # library would break traced runs, so each must resolve.
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    names = [m["name"].split(".") for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    traced = [n for n in names if len(n) == 3]
    assert len(traced) >= 30
    for module, function, _ in traced:
        mod = checks if module == "bench" else importlib.import_module(f"teleportsim.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
