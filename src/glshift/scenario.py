"""Scenario construction: file parsing and carbon-intensity derivations.

The scenario file format is plain UTF-8 text, line oriented:
``[section]`` headers followed by ``key = value`` lines; ``#`` starts a
comment.  Sections are ``scenario``, ``hi``, ``lo``, ``common`` and
``shift``.  Each site class gives either ``op_kg_per_node_year``
directly, or ``ci_g_per_kwh`` + ``node_power_w`` + ``pue`` to derive it.

The parser reports errors in the text; every rule on a number is the
model's, reported at the line of the key that the rule names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .model import (
    ModelError,
    NodePowerModel,
    ShiftPolicy,
    SiteClass,
    check_gamma,
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
        check_gamma(self.gamma)


def fossil_ci_backout(profile: RegionProfile) -> float:
    """CI of the non-renewable part of the day, backed out of the average.

    Inverts the time-weighted daily average
    avg = (h*renewable + (24-h)*fossil) / 24.
    """
    h = profile.renewable_hours_per_day
    fossil = (24.0 * profile.average_ci - h * profile.renewable_ci) / (24.0 - h)
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


_QUOTE_LIMIT = 40  # characters of the file's text that an error quotes


def _quote(text: str, form: str = "{!r}") -> str:
    """``text`` quoted in ``form`` for an error, cut after _QUOTE_LIMIT characters."""
    if len(text) <= _QUOTE_LIMIT:
        return form.format(text)
    return f"{form.format(text[:_QUOTE_LIMIT])}... ({len(text)} characters)"


def _parse_sections(
    text: str,
) -> tuple[dict[str, dict[str, tuple[str, int]]], dict[str, int]]:
    """Section -> {key: (value, line)}, and section -> its header's line."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    headers: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section {_quote(name, '[{}]')}", lineno)
            if name in sections:
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            headers[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {_quote(line)}", lineno)
        if current is None:
            raise ScenarioError("key before any [section] header", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ScenarioError(f"unknown key {_quote(key)} in section [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        sections[current][key] = (value, lineno)
    return sections, headers


def _number(section: dict[str, tuple[str, int]], key: str) -> float:
    value, lineno = section[key]
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"key {key!r}: not a number: {_quote(value)}", lineno) from None


def _integer(section: dict[str, tuple[str, int]], key: str) -> int | float:
    value, lineno = section[key]
    try:
        return int(value)
    except ValueError:
        if not re.fullmatch(r"[+-]?\d+(?:_\d+)*", value):  # what int() reads, at any length
            raise ScenarioError(f"key {key!r}: not an integer: {_quote(value)}", lineno) from None
    # int() reads at most sys.get_int_max_str_digits() digits.  A longer
    # integer is +-inf as a float, for the count rule to judge, unless
    # leading zeros make it long; Decimal reads that one exactly (building
    # the int of a huge one would take time quadratic in its digits)
    number = float(value)
    if math.isinf(number):
        return number
    from decimal import Decimal

    return int(Decimal(value))


def _range_error(exc: ModelError, keys: dict[str, tuple[str, int]]) -> ScenarioError:
    """A range error of the model object built from ``keys``, at a key's line."""
    field, _, requirement = str(exc).partition(" ")
    key = _KEY_BY_FIELD.get(field, field)
    if key in keys:
        return ScenarioError(f"{key} {requirement}", keys[key][1])
    # a rule that names no key (an overflow bound) is blamed on the largest
    # number of the object's keys
    _, lineno, key = max((float(value), line, name) for name, (value, line) in keys.items())
    return ScenarioError(f"key {key!r}: {exc}", lineno)


def _numbers(section: dict[str, tuple[str, int]], keys: dict[str, str]) -> dict[str, float]:
    """Model field -> number, for each of the keys that the section gives."""
    return {field: _number(section, key) for key, field in keys.items() if key in section}


def _site_class(
    name: str,
    section: dict[str, tuple[str, int]],
    header: int,
    common: dict[str, tuple[str, int]],
    embodied: float,
) -> SiteClass:
    direct = "op_kg_per_node_year" in section
    if direct and _POWER_MODEL.keys() & section.keys():
        raise ScenarioError(
            f"section [{name}]: give op_kg_per_node_year or a power model, not both",
            header,
        )
    if not direct:
        missing = _POWER_MODEL.keys() - _OPTIONAL - section.keys()
        if missing:
            raise ScenarioError(
                f"section [{name}]: missing {', '.join(sorted(missing))} "
                "(or give op_kg_per_node_year)",
                header,
            )
    sites, nodes = _integer(section, "sites"), _integer(section, "nodes")
    if direct:
        op = _number(section, "op_kg_per_node_year")
    else:
        try:
            op = op_full_per_node(NodePowerModel(**_numbers(section, _POWER_MODEL)))
        except ModelError as exc:
            keys = {key: section[key] for key in _POWER_MODEL if key in section}
            raise _range_error(exc, keys) from exc
    try:
        return SiteClass(
            site_count=sites,
            nodes_per_site=nodes,
            load=_number(section, "load"),
            embodied_per_node=embodied,
            op_full_per_node=op,
        )
    except ModelError as exc:
        keys = {**section, "embodied_kg_per_node_year": common["embodied_kg_per_node_year"]}
        raise _range_error(exc, keys) from exc


def load_scenario(text: str) -> ScenarioConfig:
    """Parse scenario file contents into a validated ScenarioConfig."""
    sections, headers = _parse_sections(text)
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
                f"section [{section_name}]: missing key " + ", ".join(sorted(missing)),
                headers[section_name],
            )

    name, lineno = sections["scenario"]["name"]
    if "," in name or '"' in name:  # the name is a field of the CSV row
        raise ScenarioError("name must not contain ',' or '\"'", lineno)
    common, shift = sections["common"], sections["shift"]
    embodied = _number(common, "embodied_kg_per_node_year")
    hi = _site_class("hi", sections["hi"], headers["hi"], common, embodied)
    lo = _site_class("lo", sections["lo"], headers["lo"], common, embodied)
    try:
        return ScenarioConfig(
            name=name,
            hi=hi,
            lo=lo,
            gamma=_number(common, "gamma"),
            policy=ShiftPolicy(**_numbers(shift, _SECTIONS["shift"])),
        )
    except ModelError as exc:
        raise _range_error(exc, {**common, **shift}) from exc
