"""Simulator and resource accounting for perfect qubit teleportation through
partially entangled two-qutrit channels."""

from .channel import (
    ChannelPermutation,
    SchmidtChannel,
    canonicalize,
    channel_entropy,
    is_teleport_capable,
    make_channel,
)
from .resources import (
    ResourceReport,
    classical_cost,
    gour_e12_case1,
    gour_e12_case2,
    lower_bound_sum,
    measurement_entanglement,
    resource_report,
    upper_bound_sum,
)
from .scheme import (
    InfeasibleError,
    MeasurementBasis,
    SchemeParams,
    admissible_theta3,
    assemble_D12,
    find_scheme,
    rotation_from_angles,
    solve_constraints,
    solve_phases,
    special_case_basis,
    two_qubit_D12,
    two_qubit_feasible,
)
from .teleport import (
    CapabilityError,
    CorrectionError,
    InputQubit,
    OutcomeBranch,
    TeleportReport,
    random_input,
    run_teleport,
)

__all__ = [
    "CapabilityError",
    "ChannelPermutation",
    "CorrectionError",
    "InfeasibleError",
    "InputQubit",
    "MeasurementBasis",
    "OutcomeBranch",
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
    "gour_e12_case1",
    "gour_e12_case2",
    "is_teleport_capable",
    "lower_bound_sum",
    "make_channel",
    "measurement_entanglement",
    "random_input",
    "resource_report",
    "rotation_from_angles",
    "run_teleport",
    "solve_constraints",
    "solve_phases",
    "special_case_basis",
    "two_qubit_D12",
    "two_qubit_feasible",
    "upper_bound_sum",
]

__version__ = "0.1.0"
