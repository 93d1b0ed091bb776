"""Scenario construction: file parsing and carbon-intensity derivations.

The scenario file format is plain UTF-8 text, line oriented:
``[section]`` headers followed by ``key = value`` lines; ``#`` starts a
comment.  Sections are ``scenario``, ``hi``, ``lo``, ``common`` and
``shift``.  Each site class gives either ``op_kg_per_node_year``
directly, or ``ci_g_per_kwh`` + ``node_power_w`` + ``pue`` to derive it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

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

    def __post_init__(self) -> None:
        if not (0.0 <= self.renewable_ci <= self.average_ci):
            raise ScenarioError(
                f"region {self.name!r}: need 0 <= renewable_ci <= average_ci"
            )
        if not self.average_ci < math.inf:
            raise ScenarioError(f"region {self.name!r}: average_ci must be finite")
        if not (0.0 < self.renewable_hours_per_day < 24.0):
            raise ScenarioError(
                f"region {self.name!r}: renewable_hours_per_day must be in (0, 24)"
            )
        sunshine = self.sunshine_hours_per_year
        if sunshine is not None and not 0.0 <= sunshine < math.inf:
            raise ScenarioError(
                f"region {self.name!r}: sunshine_hours_per_year must be >= 0 and finite"
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
            raise ModelError("gamma must be in [0,1]")


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
    if not fossil < math.inf:
        raise ScenarioError(f"region {profile.name!r}: fossil CI too large for a float")
    return fossil


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
    if not always_low_count >= 0:
        raise ScenarioError("always_low_count must be >= 0")
    if not always_low_count < math.inf:
        raise ScenarioError("always_low_count must be finite")
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
    if not 0.0 < ideal_load_factor <= 1.0:
        raise ScenarioError("ideal_load_factor must be in (0,1]")
    if not (0.0 <= actual_load_factor <= ideal_load_factor):
        raise ScenarioError("actual_load_factor must be in [0, ideal_load_factor]")
    if not (0.0 <= correlation_penalty <= 1.0):
        raise ScenarioError("correlation_penalty must be in [0,1]")
    return (actual_load_factor / ideal_load_factor) * (1.0 - correlation_penalty)


def nodes_from_power_budget(budget_w: float, model: NodePowerModel) -> int:
    """Node count whose full-load facility draw matches the budget.

    A node draws its active power plus the network overhead, times the
    PUE.  Rounds to the nearest whole node, so the facility draw can
    exceed the budget by at most half a node's draw.
    """
    if not 0.0 < budget_w < math.inf:
        raise ScenarioError("power budget must be > 0 and finite")
    draw = model.active_power * (1.0 + model.network_overhead_fraction) * model.pue
    nodes = budget_w / draw
    if nodes == math.inf:
        raise ScenarioError("power budget gives more nodes than a float holds")
    return round(nodes)


# section -> {file key: model field}; every key is required, except the
# _OPTIONAL ones and the alternatives checked in _site_class
_SECTIONS = {
    "scenario": {"name": "name"},
    "hi": {
        "sites": "site_count",
        "nodes": "nodes_per_site",
        "load": "load",
        "op_kg_per_node_year": "op_full_per_node",
        "ci_g_per_kwh": "carbon_intensity",
        "node_power_w": "active_power",
        "pue": "pue",
        "nu": "network_overhead_fraction",
    },
    "common": {"gamma": "gamma", "embodied_kg_per_node_year": "embodied_per_node"},
    "shift": {"alpha": "alpha", "beta": "beta", "eta": "eta"},
}
_SECTIONS["lo"] = _SECTIONS["hi"]
_OPTIONAL = {"eta", "nu"}  # both default to 0
# a site class gives op_kg_per_node_year or these keys of a NodePowerModel
_POWER_MODEL = {
    key: field
    for key, field in _SECTIONS["hi"].items()
    if field in {f.name for f in fields(NodePowerModel)}
}
_REQUIRED = {
    name: keys.keys() - _OPTIONAL - _POWER_MODEL.keys() - {"op_kg_per_node_year"}
    for name, keys in _SECTIONS.items()
}
_KEY_BY_FIELD = {field: key for keys in _SECTIONS.values() for key, field in keys.items()}


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
    key = _KEY_BY_FIELD.get(field, field)
    for section in sections:
        if key in section:
            return ScenarioError(f"{key} {requirement}", section[key][1])
    return ScenarioError(str(exc))


def _numbers(section: dict[str, tuple[str, int]], keys: dict[str, str]) -> dict[str, float]:
    """Model field -> number, for each of the keys that the section gives."""
    return {field: _number(section, key) for key, field in keys.items() if key in section}


def _site_class(
    name: str,
    section: dict[str, tuple[str, int]],
    common: dict[str, tuple[str, int]],
    embodied: float,
) -> SiteClass:
    direct = "op_kg_per_node_year" in section
    if direct and _POWER_MODEL.keys() & section.keys():
        raise ScenarioError(
            f"section [{name}]: give op_kg_per_node_year or a power model, not both"
        )
    if not direct:
        missing = _POWER_MODEL.keys() - _OPTIONAL - section.keys()
        if missing:
            raise ScenarioError(
                f"section [{name}]: missing {', '.join(sorted(missing))} "
                "(or give op_kg_per_node_year)"
            )
    sites, nodes = _integer(section, "sites"), _integer(section, "nodes")
    try:
        if direct:
            op = _number(section, "op_kg_per_node_year")
        else:
            op = op_full_per_node(NodePowerModel(**_numbers(section, _POWER_MODEL)))
        # each report total is at most the sum of this bound over both classes
        # (op_hi, op_lo and the overhead each stay below sites * nodes * op);
        # a quarter of the float range leaves room for rounding
        if not float(sites) * nodes * (embodied + 2.0 * op) <= sys.float_info.max / 4.0:
            # blame the largest of the numbers the bound reads; all parsed above
            read = [(common, "embodied_kg_per_node_year")] + [
                (section, k) for k in ("sites", "nodes", "op_kg_per_node_year", *_POWER_MODEL)
            ]
            _, lineno, key = max((float(s[k][0]), s[k][1], k) for s, k in read if k in s)
            raise ScenarioError(f"key {key!r}: annual totals too large for a float", lineno)
        return SiteClass(
            site_count=sites,
            nodes_per_site=nodes,
            load=_number(section, "load"),
            embodied_per_node=embodied,
            op_full_per_node=op,
        )
    except ModelError as exc:
        raise _range_error(exc, section, common) from exc


def load_scenario(text: str) -> ScenarioConfig:
    """Parse scenario file contents into a validated ScenarioConfig."""
    sections = _parse_sections(text)
    missing_sections = _REQUIRED.keys() - sections.keys()
    if missing_sections:
        raise ScenarioError(
            "missing required section "
            + ", ".join(f"[{s}]" for s in sorted(missing_sections))
        )
    for section_name, keys in _REQUIRED.items():
        missing = keys - sections[section_name].keys()
        if missing:
            raise ScenarioError(
                f"section [{section_name}]: missing key "
                + ", ".join(sorted(missing))
            )

    name, lineno = sections["scenario"]["name"]
    if "," in name or '"' in name:  # the name is a field of the CSV row
        raise ScenarioError("name must not contain ',' or '\"'", lineno)
    common, shift = sections["common"], sections["shift"]
    embodied = _number(common, "embodied_kg_per_node_year")
    hi = _site_class("hi", sections["hi"], common, embodied)
    lo = _site_class("lo", sections["lo"], common, embodied)
    try:
        return ScenarioConfig(
            name=name,
            hi=hi,
            lo=lo,
            gamma=_number(common, "gamma"),
            policy=ShiftPolicy(**_numbers(shift, _SECTIONS["shift"])),
        )
    except ModelError as exc:
        raise _range_error(exc, common, shift) from exc
