"""Analytical model of emission reductions from geographic load shifting.

The package root exports the names below but imports none of its modules:
a name loads the module that owns it on first use (PEP 562), so
``import glshift.sweeps`` loads ``glshift.model`` and ``glshift.sweeps``
only.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package root exports from it (README, "Python API")
_EXPORTS = {
    "model": (
        "NodePowerModel", "SiteClass", "ShiftPolicy", "EmissionsReport", "ModelError",
        "op_full_per_node", "blended_emissions", "ideal_reduction",
    ),
    "scenario": (
        "ScenarioConfig", "ScenarioError", "RegionProfile", "load_scenario",
        "fossil_ci_backout", "solar_beta", "wind_beta", "nodes_from_power_budget",
    ),
    "sweeps": ("SweepSpec", "run_sweep", "kink_location", "years_compensated", "capacity_projection"),
    "trace": ("TraceSpec", "Uniform", "compare_with_means"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
