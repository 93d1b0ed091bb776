"""Analytical model of emission reductions from geographic load shifting."""

from .model import (
    EmissionsReport,
    ModelError,
    NodePowerModel,
    ShiftPolicy,
    SiteClass,
    blended_emissions,
    ideal_reduction,
    op_full_per_node,
)
from .scenario import (
    RegionProfile,
    ScenarioConfig,
    ScenarioError,
    fossil_ci_backout,
    load_scenario,
    nodes_from_power_budget,
    solar_beta,
    wind_beta,
)
from .sweeps import (
    SweepRow,
    SweepSpec,
    capacity_projection,
    kink_location,
    run_sweep,
    years_compensated,
)
from .trace import TraceSpec, Uniform, compare_with_means

__version__ = "0.1.0"

__all__ = [
    "EmissionsReport",
    "ModelError",
    "NodePowerModel",
    "RegionProfile",
    "ScenarioConfig",
    "ScenarioError",
    "ShiftPolicy",
    "SiteClass",
    "SweepRow",
    "SweepSpec",
    "TraceSpec",
    "Uniform",
    "blended_emissions",
    "capacity_projection",
    "compare_with_means",
    "fossil_ci_backout",
    "ideal_reduction",
    "kink_location",
    "load_scenario",
    "nodes_from_power_budget",
    "op_full_per_node",
    "run_sweep",
    "solar_beta",
    "wind_beta",
    "years_compensated",
]
