"""Data-driven storage/barrier certificate toolkit for interconnected
networks of black-box discrete-time subsystems."""

__version__ = "0.1.0"

from .core import (
    CoefficientVector,
    DimensionError,
    IntervalBox,
    InvariantError,
    SafetySpec,
    StcTemplate,
    SubsystemClass,
    SupplyRate,
    eval_supply,
    eval_template,
)
from .blackbox import (
    BENCHMARKS,
    Topology,
    TransitionOracle,
    build_platoon_class,
    build_room_class,
    internal_inputs,
    simulate_network,
)
from .sampling import (
    SampleSet,
    collect_pairs,
    dispersion_general,
    dispersion_of_grid,
    grid_samples,
)
from .scp import ScpOptions, ScpSolution, build_scp, check_solution, solve_scp
from .lipschitz import LipschitzConfig, LipschitzEstimate, estimate_for_class, estimate_lipschitz
from .compose import ClassMargins, NetworkCertificate, certify, class_margins, eval_network_certificate

__all__ = [
    "BENCHMARKS",
    "ClassMargins",
    "CoefficientVector",
    "DimensionError",
    "IntervalBox",
    "InvariantError",
    "LipschitzConfig",
    "LipschitzEstimate",
    "NetworkCertificate",
    "SafetySpec",
    "SampleSet",
    "ScpOptions",
    "ScpSolution",
    "StcTemplate",
    "SubsystemClass",
    "SupplyRate",
    "Topology",
    "TransitionOracle",
    "build_platoon_class",
    "build_room_class",
    "build_scp",
    "certify",
    "check_solution",
    "class_margins",
    "collect_pairs",
    "dispersion_general",
    "dispersion_of_grid",
    "estimate_for_class",
    "estimate_lipschitz",
    "eval_network_certificate",
    "eval_supply",
    "eval_template",
    "grid_samples",
    "internal_inputs",
    "simulate_network",
    "solve_scp",
]
