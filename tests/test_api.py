"""The public API of the package, pinned name by name."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import glshift
import glshift.cli

# growing or shrinking the package root's API is a deliberate change:
# edit this list, the README's "Python API" section (checked below) and
# the CHANGES entry
PUBLIC_API = [
    "EmissionsReport",
    "ModelError",
    "NodePowerModel",
    "RegionProfile",
    "ScenarioConfig",
    "ScenarioError",
    "ShiftPolicy",
    "SiteClass",
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


def benchmark_tracing():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_is_pinned():
    assert sorted(glshift.__all__) == PUBLIC_API


def test_every_name_resolves():
    for name in PUBLIC_API:
        assert hasattr(glshift, name), name


def test_readme_lists_the_api():
    """README's "Python API" table and its name count follow __all__."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `glshift.")]
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row[2])]
    assert sorted(names) == sorted(glshift.__all__)
    assert f"exports {len(glshift.__all__)} names" in section


def test_benchmark_names_are_exported():
    tracing = benchmark_tracing()
    names = vars(tracing.public_api())
    assert len(names) == 10
    assert set(names) <= set(PUBLIC_API)
    # the traced benchmark patches these names in the cli module
    for name in tracing.API_NAMES:
        assert getattr(glshift.cli, name) is getattr(glshift, name), name
