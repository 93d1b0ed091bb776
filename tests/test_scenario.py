"""Scenario derivations and scenario file parsing."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glshift import (
    NodePowerModel,
    RegionProfile,
    ScenarioConfig,
    ScenarioError,
    blended_emissions,
    fossil_ci_backout,
    load_scenario,
    nodes_from_power_budget,
    solar_beta,
    wind_beta,
)
from tests.conftest import SCENARIO_NAMES, read_bundled

UK = RegionProfile("UK", average_ci=211.0, renewable_ci=44.0)
US = RegionProfile("US", average_ci=369.0, renewable_ci=41.0)


class TestFossilBackout:
    def test_uk_worked_example(self):
        assert fossil_ci_backout(UK) == pytest.approx(294.5)

    def test_constant_ci_region(self):
        flat = RegionProfile("flat", average_ci=100.0, renewable_ci=100.0)
        assert fossil_ci_backout(flat) == pytest.approx(100.0)

    def test_us(self):
        assert fossil_ci_backout(US) == pytest.approx(533.0)

    def test_rejects_renewable_above_average(self):
        with pytest.raises(ScenarioError):
            RegionProfile("bad", average_ci=40.0, renewable_ci=44.0)

    def test_infinite_average_rejected(self):
        """An infinite average gave an infinite fossil CI."""
        with pytest.raises(ScenarioError, match="^region 'a': average_ci must be finite$"):
            RegionProfile("a", math.inf, 10.0)

    @pytest.mark.parametrize(
        "profile",
        [
            RegionProfile("a", 1e308, 10.0),
            RegionProfile("a", 1e308, 1e308, renewable_hours_per_day=23.0),
        ],
        ids=["inf", "nan"],
    )
    def test_backout_beyond_float_range_rejected(self, profile):
        """Finite CIs whose back-out overflows gave inf, or NaN from inf - inf."""
        with pytest.raises(ScenarioError, match="^region 'a': fossil CI too large for a float$"):
            fossil_ci_backout(profile)

    @given(
        avg=st.floats(1.0, 1000.0),
        renewable_share=st.floats(0.0, 1.0),
        hours=st.floats(0.5, 23.5),
    )
    def test_roundtrip_with_forward_average(self, avg, renewable_share, hours):
        profile = RegionProfile(
            "rt",
            average_ci=avg,
            renewable_ci=avg * renewable_share,
            renewable_hours_per_day=hours,
        )
        fossil = fossil_ci_backout(profile)
        forward = (hours * profile.renewable_ci + (24.0 - hours) * fossil) / 24.0
        assert forward == pytest.approx(avg, rel=1e-12, abs=1e-12)


class TestMeanFossilCi:
    """The fossil CI averaged over regions, as the paper's criterion 4 uses it."""

    def test_three_country_average(self):
        profiles = [
            RegionProfile("UK", 211.0, 41.0),
            RegionProfile("US", 369.0, 41.0),
            RegionProfile("DE", 344.0, 41.0),
        ]
        mean = sum(fossil_ci_backout(p) for p in profiles) / len(profiles)
        assert mean == pytest.approx(441.5)

    def test_wind_variant_twelve_hour_split(self):
        profiles = [
            RegionProfile(n, avg, 11.0, renewable_hours_per_day=12.0)
            for n, avg in (("UK", 211.0), ("US", 369.0), ("DE", 344.0), ("ES", 146.0))
        ]
        for p in profiles:
            assert fossil_ci_backout(p) == pytest.approx((24 * p.average_ci - 12 * 11.0) / 12.0)


class TestSolarBeta:
    PROFILES = [
        RegionProfile("UK", 211.0, 41.0, sunshine_hours_per_year=1524.0),
        RegionProfile("US", 369.0, 41.0, sunshine_hours_per_year=2627.0),
        RegionProfile("DE", 344.0, 41.0, sunshine_hours_per_year=1665.0),
    ]

    def test_availability_component(self):
        availability = solar_beta(self.PROFILES, always_low_count=3, overlap_factor=1.0)
        assert availability == pytest.approx(0.832, abs=0.001)

    def test_with_overlap_factor(self):
        beta = solar_beta(self.PROFILES, always_low_count=3, overlap_factor=5.0 / 8.0)
        assert beta == pytest.approx(0.52, abs=0.005)

    def test_full_sunshine(self):
        sunny = [
            RegionProfile("a", 100.0, 10.0, sunshine_hours_per_year=2920.0),
            RegionProfile("b", 100.0, 10.0, sunshine_hours_per_year=3000.0),
        ]
        assert solar_beta(sunny, overlap_factor=1.0) == 1.0

    def test_missing_sunshine_rejected(self):
        with pytest.raises(ScenarioError):
            solar_beta([UK])

    def test_negative_always_low_count_rejected(self):
        """-1 with one region divided by zero."""
        with pytest.raises(ScenarioError, match="^always_low_count must be >= 0$"):
            solar_beta(self.PROFILES[:1], always_low_count=-1)

    def test_infinite_always_low_count_rejected(self):
        """inf gave a beta of NaN (inf / inf)."""
        with pytest.raises(ScenarioError, match="^always_low_count must be finite$"):
            solar_beta(self.PROFILES, always_low_count=math.inf)

    @pytest.mark.parametrize("hours", [-1000.0, math.nan, math.inf])
    def test_negative_or_non_finite_sunshine_rejected(self, hours):
        """-1000 gave a beta of -0.342 and NaN a beta of 1.0 (min(1.0, nan) is 1.0)."""
        with pytest.raises(ScenarioError, match="sunshine_hours_per_year must be >= 0 and finite"):
            RegionProfile("UK", 211.0, 41.0, sunshine_hours_per_year=hours)

    @given(
        hours=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=6),
        always_low=st.integers(0, 4),
        overlap=st.floats(0.0, 1.0),
    )
    def test_result_in_unit_interval(self, hours, always_low, overlap):
        profiles = [
            RegionProfile(f"r{i}", 100.0, 10.0, sunshine_hours_per_year=h)
            for i, h in enumerate(hours)
        ]
        beta = solar_beta(profiles, always_low, overlap)
        assert 0.0 <= beta <= 1.0


class TestWindBeta:
    def test_reported_setting(self):
        assert wind_beta(0.5, 0.35, 0.10) == pytest.approx(0.63, abs=0.005)

    def test_ideal_wind(self):
        assert wind_beta(0.5, 0.5, 0.0) == 1.0

    def test_lower_load_factor(self):
        assert wind_beta(0.5, 0.30, 0.10) == pytest.approx(0.54, abs=0.005)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ScenarioError):
            wind_beta(0.0, 0.0, 0.0)

    def test_nan_ideal_blames_ideal(self):
        with pytest.raises(ScenarioError, match="^ideal_load_factor must be in"):
            wind_beta(math.nan, 0.3, 0.1)

    @given(
        ideal=st.floats(0.01, 1.0),
        actual_share=st.floats(0.0, 1.0),
        penalty=st.floats(0.0, 1.0),
    )
    def test_result_in_unit_interval(self, ideal, actual_share, penalty):
        beta = wind_beta(ideal, ideal * actual_share, penalty)
        assert 0.0 <= beta <= 1.0 + 1e-12


class TestNodesFromPowerBudget:
    def test_hyperscale_budget(self):
        model = NodePowerModel(4550.0, 1.16, 41.0)
        assert nodes_from_power_budget(300e6, model) == 56_840

    def test_budget_below_one_node(self):
        model = NodePowerModel(4550.0, 1.16, 41.0)
        assert nodes_from_power_budget(1000.0, model) == 0

    def test_network_overhead_counts(self):
        """Leaving nu out gave 56,840 nodes, a 330 MW draw."""
        model = NodePowerModel(4550.0, 1.16, 41.0, 0.1)
        assert nodes_from_power_budget(300e6, model) == 51_672

    def test_unity_pue(self):
        model = NodePowerModel(4550.0, 1.0, 41.0)
        assert nodes_from_power_budget(300e6, model) == 65_934

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf, math.nan])
    def test_budget_not_positive_and_finite_rejected(self, budget):
        """inf raised OverflowError and NaN a ValueError from round()."""
        model = NodePowerModel(4550.0, 1.16, 41.0)
        with pytest.raises(ScenarioError, match="^power budget must be > 0 and finite$"):
            nodes_from_power_budget(budget, model)

    def test_node_count_beyond_float_range_rejected(self):
        model = NodePowerModel(1e-10, 1.0, 41.0)
        with pytest.raises(ScenarioError, match="more nodes than a float holds"):
            nodes_from_power_budget(1e308, model)

    def test_facility_draw_close_to_budget(self):
        model = NodePowerModel(4550.0, 1.16, 41.0)
        count = nodes_from_power_budget(300e6, model)
        draw_per_node = model.active_power * model.pue
        assert count * draw_per_node <= 300e6 + 0.5 * draw_per_node


VALID_SCENARIO = """\
[scenario]
name = example

[hi]
sites = 1
nodes = 10
load = 0.8
op_kg_per_node_year = 5000

[lo]
sites = 1
nodes = 10
load = 0.5
ci_g_per_kwh = 41
node_power_w = 1200
pue = 1.1

[common]
gamma = 0.3
embodied_kg_per_node_year = 444

[shift]
alpha = 0.5
beta = 0.8
eta = 0.01
"""
# [hi] derived from a power model, [lo] given directly
MIRRORED_SCENARIO = (
    VALID_SCENARIO.replace("[hi]", "[x]").replace("[lo]", "[hi]").replace("[x]", "[lo]")
)
POWER_MODEL_KEYS = {"ci_g_per_kwh", "node_power_w", "pue", "nu"}
SITE_RANGES = [
    ("sites", "0", "sites must be >= 1"),
    ("nodes", "0", "nodes must be >= 1"),
    ("load", "1.5", "load must be in [0,1]"),
    ("op_kg_per_node_year", "-1", "op_kg_per_node_year must be >= 0"),
    ("node_power_w", "0", "node_power_w must be > 0"),
    ("pue", "0.5", "pue must be >= 1"),
    ("ci_g_per_kwh", "-1", "ci_g_per_kwh must be >= 0"),
    ("nu", "-0.1", "nu must be >= 0"),
]
# every range-checked key: section, key, an out-of-range value, the error
RANGE_CASES = [(section, *case) for section in ("hi", "lo") for case in SITE_RANGES] + [
    ("common", "gamma", "1.5", "gamma must be in [0,1]"),
    ("common", "embodied_kg_per_node_year", "-1", "embodied_kg_per_node_year must be >= 0"),
    ("shift", "alpha", "1.5", "alpha must be in [0,1]"),
    ("shift", "beta", "-0.1", "beta must be in [0,1]"),
    ("shift", "eta", "1", "eta must be in [0,1)"),
]


def scenario_with(section: str, key: str, value: str) -> tuple[str, int]:
    """A valid scenario with `key = value` in [section], and that line's number.

    Power-model keys need a derived site class, op_kg_per_node_year a
    direct one: VALID_SCENARIO gives [hi] directly and derives [lo].
    """
    mirror = (section == "hi" and key in POWER_MODEL_KEYS) or (
        section == "lo" and key == "op_kg_per_node_year"
    )
    lines = (MIRRORED_SCENARIO if mirror else VALID_SCENARIO).splitlines()
    start = end = lines.index(f"[{section}]") + 1
    while end < len(lines) and lines[end]:  # a blank line ends the section
        end += 1
    keys = [line.split(" = ")[0] for line in lines[start:end]]
    if key in keys:
        index = start + keys.index(key)
        lines[index] = f"{key} = {value}"
    else:
        index = end
        lines.insert(index, f"{key} = {value}")
    return "\n".join(lines) + "\n", index + 1


class TestLoadScenario:
    def test_bundled_table1_solar(self):
        config = read_bundled("table1_solar")
        assert config.name == "table1_solar"
        assert config.hi.site_count == 2
        assert config.hi.nodes_per_site == 56_840
        assert config.hi.op_full_per_node == 18_978.0
        assert config.policy.beta == 0.52

    def test_all_bundled_scenarios_parse(self):
        for name in SCENARIO_NAMES:
            config = read_bundled(name)
            assert config.name == name

    def test_derived_op_value(self):
        config = load_scenario(VALID_SCENARIO)
        # 1200 W * 8760 h * 1.1 PUE * 41 g/kWh
        assert config.lo.op_full_per_node == pytest.approx(10512.0 * 1.1 * 0.041)

    def test_empty_file(self):
        with pytest.raises(ScenarioError, match="missing required section"):
            load_scenario("")

    def test_alpha_out_of_range(self):
        bad = VALID_SCENARIO.replace("alpha = 0.5", "alpha = 1.5")
        with pytest.raises(ScenarioError, match="alpha"):
            load_scenario(bad)

    def test_unknown_key_rejected_with_line_number(self):
        bad = VALID_SCENARIO.replace("eta = 0.01", "eta = 0.01\nbogus = 1")
        with pytest.raises(ScenarioError, match=r"line \d+.*bogus"):
            load_scenario(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match=r"unknown section"):
            load_scenario(VALID_SCENARIO + "\n[extra]\nx = 1\n")

    @pytest.mark.parametrize("key", sorted(POWER_MODEL_KEYS))
    def test_both_op_and_power_model_rejected(self, key):
        bad = VALID_SCENARIO.replace(
            "op_kg_per_node_year = 5000", f"op_kg_per_node_year = 5000\n{key} = 10"
        )
        with pytest.raises(ScenarioError, match="not both"):
            load_scenario(bad)

    def test_missing_power_model_part(self):
        bad = VALID_SCENARIO.replace("pue = 1.1\n", "")
        with pytest.raises(ScenarioError, match="pue"):
            load_scenario(bad)

    @pytest.mark.parametrize("name", ["s1,extra", 'say "hi"', ","])
    def test_name_that_breaks_the_csv_rejected(self, name):
        bad = VALID_SCENARIO.replace("name = example", f"name = {name}")
        with pytest.raises(ScenarioError) as info:
            load_scenario(bad)
        assert str(info.value) == "line 2: name must not contain ',' or '\"'"

    def test_bad_number_reports_line(self):
        bad = VALID_SCENARIO.replace("gamma = 0.3", "gamma = zero")
        with pytest.raises(ScenarioError, match=r"line \d+"):
            load_scenario(bad)

    @pytest.mark.parametrize("section,key,value,message", RANGE_CASES)
    def test_out_of_range_reports_line(self, section, key, value, message):
        bad, lineno = scenario_with(section, key, value)
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: {re.escape(message)}$") as info:
            load_scenario(bad)
        assert info.value.line == lineno

    @pytest.mark.parametrize("key", ["sites", "nodes"])
    def test_count_beyond_float_range_reports_line(self, key):
        bad, lineno = scenario_with("hi", key, "1" + "0" * 400)
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: key '{key}'") as info:
            load_scenario(bad)
        assert info.value.line == lineno

    @pytest.mark.parametrize(
        "section,key,value,ci",
        [
            ("hi", "nodes", "1" + "0" * 306, "41"),
            ("hi", "op_kg_per_node_year", "1e307", "41"),
            ("lo", "node_power_w", "1e308", "41"),
            ("lo", "node_power_w", "1e308", "0"),  # inf energy * 0 CI: NaN
            ("common", "embodied_kg_per_node_year", "1e308", "41"),
        ],
        ids=["nodes", "op", "power", "power_zero_ci", "embodied"],
    )
    def test_overflowing_totals_report_line(self, section, key, value, ci):
        """Finite inputs whose report totals overflow are rejected at the key."""
        bad, lineno = scenario_with(section, key, value)
        bad = bad.replace("ci_g_per_kwh = 41", f"ci_g_per_kwh = {ci}")
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: key '{key}': annual") as info:
            load_scenario(bad)
        assert info.value.line == lineno

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize(
        "line",
        ["op_kg_per_node_year = 5000", "ci_g_per_kwh = 41", "gamma = 0.3", "beta = 0.8"],
    )
    def test_non_finite_number_reports_line(self, line, value):
        key = line.split(" = ")[0]
        bad = VALID_SCENARIO.replace(line, f"{key} = {value}")
        lineno = bad.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: .*not a finite number") as info:
            load_scenario(bad)
        assert info.value.line == lineno


SCENARIO_KEYS = sorted(
    {"name", "sites", "nodes", "load", "op_kg_per_node_year", "gamma", "alpha", "beta", "eta",
     "embodied_kg_per_node_year"} | POWER_MODEL_KEYS
)
FUZZ_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**401), 10**401).map(str),
    st.text(max_size=8),
    st.sampled_from(["", "0", "-0", "1", "1e308", "1e-320", "1_0", "0x10", "\u0661", "[hi]", "#"]),
)


@st.composite
def mutated_scenarios(draw) -> str:
    """Valid scenario text with some keys or values replaced."""
    lines = draw(st.sampled_from([VALID_SCENARIO, MIRRORED_SCENARIO])).splitlines()
    key_lines = [i for i, line in enumerate(lines) if " = " in line]
    for i in draw(st.lists(st.sampled_from(key_lines), min_size=1, max_size=4, unique=True)):
        key, value = lines[i].split(" = ", 1)
        if draw(st.booleans()):
            value = draw(FUZZ_VALUES)
        else:
            key = draw(st.sampled_from(SCENARIO_KEYS) | st.text(max_size=8))
        lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


# no load, idle draw or embodied carbon: a zero baseline
ZERO_BASELINE = re.sub(r"(load|gamma|embodied_kg_per_node_year) = .*", r"\1 = 0", VALID_SCENARIO)
# report totals beyond the float range
HUGE_NODES = VALID_SCENARIO.replace("nodes = 10", "nodes = 1" + "0" * 306, 1)


@settings(max_examples=200, deadline=None)
@given(text=mutated_scenarios())
@example(text=VALID_SCENARIO.replace("nodes = 10", "nodes = 1" + "0" * 400, 1))
@example(text=HUGE_NODES)
@example(text=VALID_SCENARIO.replace("nodes = 10", "nodes = 1" + "0" * 300, 1))
@example(text=VALID_SCENARIO.replace("node_power_w = 1200", "node_power_w = 1e308"))
@example(text=ZERO_BASELINE)
# the overflow bound blamed the largest raw value, parsing keys not yet
# checked: a bare ValueError for 'abc' and '0.3x', and key 'load' for 1e999
@example(text=HUGE_NODES.replace("load = 0.8", "load = abc"))
@example(text=HUGE_NODES.replace("gamma = 0.3", "gamma = 0.3x"))
@example(text=HUGE_NODES.replace("load = 0.8", "load = 1e999"))
def test_fuzzed_scenario_evaluates_or_is_rejected(text):
    """Every input ends in a config with finite totals or a ScenarioError."""
    try:
        config = load_scenario(text)
    except ScenarioError:
        return
    assert type(config) is ScenarioConfig
    report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if field.name == "reduction" and report.baseline_total == 0.0:
            assert math.isnan(value)
        else:
            assert math.isfinite(value), field.name
