"""Scenario construction: file parsing and carbon-intensity derivations.

The scenario file format is plain UTF-8 text, line oriented:
``[section]`` headers followed by ``key = value`` lines; ``#`` starts a
comment.  Sections are ``scenario``, ``hi``, ``lo``, ``common`` and
``shift``.  Each site class gives either ``op_kg_per_node_year``
directly, or ``ci_g_per_kwh`` + ``node_power_w`` + ``pue`` to derive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ModelError,
    NodePowerModel,
    ShiftPolicy,
    SiteClass,
    op_full_per_node,
)


class ScenarioError(ValueError):
    """Malformed or invalid scenario input.

    ``line`` is the 1-based line number in the source text, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RegionProfile:
    """Grid characteristics of one region used for CI derivations.

    average_ci is the year-round grid average; renewable_ci the CI while
    the region runs predominantly on the renewable source, for
    renewable_hours_per_day hours of each day.
    """

    name: str
    average_ci: float
    renewable_ci: float
    renewable_hours_per_day: float = 8.0
    sunshine_hours_per_year: float | None = None
    wind_load_factor: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.renewable_ci <= self.average_ci):
            raise ScenarioError(
                f"region {self.name!r}: need 0 <= renewable_ci <= average_ci"
            )
        if not (0.0 < self.renewable_hours_per_day < 24.0):
            raise ScenarioError(
                f"region {self.name!r}: renewable_hours_per_day must be in (0, 24)"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete named parameterisation of the two-class model."""

    name: str
    hi: SiteClass
    lo: SiteClass
    gamma: float
    policy: ShiftPolicy

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise ScenarioError("gamma must be in [0,1]")


def fossil_ci_backout(profile: RegionProfile) -> float:
    """CI of the non-renewable part of the day, backed out of the average.

    Inverts the time-weighted daily average
    avg = (h*renewable + (24-h)*fossil) / 24.
    """
    h = profile.renewable_hours_per_day
    fossil = (24.0 * profile.average_ci - h * profile.renewable_ci) / (24.0 - h)
    if fossil < 0.0:
        raise ScenarioError(
            f"region {profile.name!r}: renewable CI exceeds what the average permits"
        )
    return fossil


def mean_fossil_ci(profiles: list[RegionProfile]) -> float:
    """Arithmetic mean of the backed-out fossil CI over several regions."""
    if not profiles:
        raise ScenarioError("mean_fossil_ci needs at least one region")
    return sum(fossil_ci_backout(p) for p in profiles) / len(profiles)


def solar_beta(
    profiles: list[RegionProfile],
    always_low_count: int = 0,
    overlap_factor: float = 1.0,
) -> float:
    """Fraction of the time shifting towards solar power is possible.

    Each region contributes its realised sunshine relative to a
    reference year of renewable_hours_per_day hours every day, capped at
    1.  Regions that are low-CI around the clock (e.g. nuclear-powered)
    enter with weight always_low_count at full availability.  The
    overlap_factor accounts for time-zone overlap between regions.
    """
    if not profiles:
        raise ScenarioError("solar_beta needs at least one region")
    if not (0.0 <= overlap_factor <= 1.0):
        raise ScenarioError("overlap_factor must be in [0,1]")
    total = 0.0
    for p in profiles:
        if p.sunshine_hours_per_year is None:
            raise ScenarioError(f"region {p.name!r}: sunshine_hours_per_year missing")
        reference = p.renewable_hours_per_day * 365.0
        total += min(1.0, p.sunshine_hours_per_year / reference)
    availability = (total + always_low_count) / (len(profiles) + always_low_count)
    return availability * overlap_factor


def wind_beta(
    ideal_load_factor: float,
    actual_load_factor: float,
    correlation_penalty: float = 0.0,
) -> float:
    """Fraction of the time shifting towards wind power is possible.

    Scales an idealised always-enough-wind assumption down by the real
    load factor and by a penalty for correlated weather across regions.
    """
    if ideal_load_factor <= 0.0 or ideal_load_factor > 1.0:
        raise ScenarioError("ideal_load_factor must be in (0,1]")
    if not (0.0 <= actual_load_factor <= ideal_load_factor):
        raise ScenarioError("actual_load_factor must be in [0, ideal_load_factor]")
    if not (0.0 <= correlation_penalty <= 1.0):
        raise ScenarioError("correlation_penalty must be in [0,1]")
    return (actual_load_factor / ideal_load_factor) * (1.0 - correlation_penalty)


def nodes_from_power_budget(budget_w: float, model: NodePowerModel) -> int:
    """Node count whose full-load facility draw matches the budget.

    Rounds to the nearest whole node, so the facility draw can exceed
    the budget by at most half a node's draw.
    """
    if budget_w <= 0.0:
        raise ScenarioError("power budget must be > 0")
    return round(budget_w / (model.active_power * model.pue))


_SECTIONS = {
    "scenario": {"name"},
    "hi": {
        "sites",
        "nodes",
        "load",
        "op_kg_per_node_year",
        "ci_g_per_kwh",
        "node_power_w",
        "pue",
        "nu",
    },
    "common": {"gamma", "embodied_kg_per_node_year"},
    "shift": {"alpha", "beta", "eta"},
}
_SECTIONS["lo"] = _SECTIONS["hi"]

_REQUIRED_KEYS = {
    "scenario": {"name"},
    "hi": {"sites", "nodes", "load"},
    "lo": {"sites", "nodes", "load"},
    "common": {"gamma", "embodied_kg_per_node_year"},
    "shift": {"alpha", "beta"},
}

# model field -> scenario file key, where the two names differ
_FILE_KEYS = {
    "site_count": "sites",
    "nodes_per_site": "nodes",
    "embodied_per_node": "embodied_kg_per_node_year",
    "op_full_per_node": "op_kg_per_node_year",
    "active_power": "node_power_w",
    "carbon_intensity": "ci_g_per_kwh",
    "network_overhead_fraction": "nu",
}


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key before any [section] header", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ScenarioError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _number(section: dict[str, tuple[str, int]], key: str) -> float:
    value, lineno = section[key]
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"key {key!r}: not a number: {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ScenarioError(f"key {key!r}: not a finite number: {value!r}", lineno)
    return number


def _integer(section: dict[str, tuple[str, int]], key: str) -> int:
    value, lineno = section[key]
    try:
        number = int(value)
        float(number)  # counts enter float arithmetic
    except ValueError:
        raise ScenarioError(f"key {key!r}: not an integer: {value!r}", lineno) from None
    except OverflowError:
        raise ScenarioError(f"key {key!r}: integer too large for a float", lineno) from None
    return number


def _range_error(exc: ModelError, *sections: dict[str, tuple[str, int]]) -> ScenarioError:
    """A model range error, naming the file key and its line."""
    field, _, requirement = str(exc).partition(" ")
    key = _FILE_KEYS.get(field, field)
    for section in sections:
        if key in section:
            return ScenarioError(f"{key} {requirement}", section[key][1])
    return ScenarioError(str(exc))


def _site_class(
    name: str,
    section: dict[str, tuple[str, int]],
    common: dict[str, tuple[str, int]],
    embodied: float,
    gamma: float,
) -> SiteClass:
    direct = "op_kg_per_node_year" in section
    derived_keys = {"ci_g_per_kwh", "node_power_w", "pue"} & section.keys()
    if direct and derived_keys:
        raise ScenarioError(
            f"section [{name}]: give op_kg_per_node_year or a power model, not both"
        )
    if not direct:
        missing = {"ci_g_per_kwh", "node_power_w", "pue"} - section.keys()
        if missing:
            raise ScenarioError(
                f"section [{name}]: missing {', '.join(sorted(missing))} "
                "(or give op_kg_per_node_year)"
            )
    try:
        if direct:
            op = _number(section, "op_kg_per_node_year")
        else:
            op = op_full_per_node(
                NodePowerModel(
                    active_power=_number(section, "node_power_w"),
                    idle_fraction=gamma,
                    pue=_number(section, "pue"),
                    carbon_intensity=_number(section, "ci_g_per_kwh"),
                    network_overhead_fraction=(
                        _number(section, "nu") if "nu" in section else 0.0
                    ),
                )
            )
        return SiteClass(
            site_count=_integer(section, "sites"),
            nodes_per_site=_integer(section, "nodes"),
            load=_number(section, "load"),
            embodied_per_node=embodied,
            op_full_per_node=op,
        )
    except ModelError as exc:
        raise _range_error(exc, section, common) from exc


def load_scenario(text: str) -> ScenarioConfig:
    """Parse scenario file contents into a validated ScenarioConfig."""
    sections = _parse_sections(text)
    missing_sections = set(_REQUIRED_KEYS) - sections.keys()
    if missing_sections:
        raise ScenarioError(
            "missing required section "
            + ", ".join(f"[{s}]" for s in sorted(missing_sections))
        )
    for section_name, keys in _REQUIRED_KEYS.items():
        missing = keys - sections[section_name].keys()
        if missing:
            raise ScenarioError(
                f"section [{section_name}]: missing key "
                + ", ".join(sorted(missing))
            )

    common, shift = sections["common"], sections["shift"]
    gamma = _number(common, "gamma")
    if not (0.0 <= gamma <= 1.0):
        raise ScenarioError("gamma must be in [0,1]", common["gamma"][1])
    embodied = _number(common, "embodied_kg_per_node_year")

    try:
        policy = ShiftPolicy(
            alpha=_number(shift, "alpha"),
            beta=_number(shift, "beta"),
            eta=_number(shift, "eta") if "eta" in shift else 0.0,
        )
    except ModelError as exc:
        raise _range_error(exc, shift) from exc
    return ScenarioConfig(
        name=sections["scenario"]["name"][0],
        hi=_site_class("hi", sections["hi"], common, embodied, gamma),
        lo=_site_class("lo", sections["lo"], common, embodied, gamma),
        gamma=gamma,
        policy=policy,
    )


def format_scenario(config: ScenarioConfig) -> str:
    """Serialise a config back to the scenario file format.

    Round-trips: load_scenario(format_scenario(c)) equals c.
    """
    lines = [
        "[scenario]",
        f"name = {config.name}",
        "",
    ]
    for label, site in (("hi", config.hi), ("lo", config.lo)):
        lines += [
            f"[{label}]",
            f"sites = {site.site_count}",
            f"nodes = {site.nodes_per_site}",
            f"load = {site.load!r}",
            f"op_kg_per_node_year = {site.op_full_per_node!r}",
            "",
        ]
    lines += [
        "[common]",
        f"gamma = {config.gamma!r}",
        f"embodied_kg_per_node_year = {config.hi.embodied_per_node!r}",
        "",
        "[shift]",
        f"alpha = {config.policy.alpha!r}",
        f"beta = {config.policy.beta!r}",
        f"eta = {config.policy.eta!r}",
        "",
    ]
    return "\n".join(lines)
