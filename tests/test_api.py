"""The package's public names, pinned: an export is added or removed only on purpose."""

import teleportsim

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
