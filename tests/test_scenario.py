"""Scenario derivations and scenario file parsing."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glshift import (
    ModelError,
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

    def test_negative_renewable_rejected(self):
        with pytest.raises(ScenarioError) as info:
            RegionProfile("a", 100.0, -1.0)
        assert str(info.value) == "region 'a': need 0 <= renewable_ci <= average_ci"

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

    @pytest.mark.parametrize("hours", [0.0, 24.0, -1.0, math.nan])
    def test_renewable_hours_outside_day_rejected(self, hours):
        with pytest.raises(ScenarioError) as info:
            RegionProfile("a", 100.0, 10.0, renewable_hours_per_day=hours)
        assert str(info.value) == "region 'a': renewable_hours_per_day must be in (0, 24)"

    @given(
        avg=st.floats(1.0, 1000.0),
        renewable_share=st.floats(0.0, 1.0),
        hours=st.floats(0.5, 23.5),
    )
    # all renewable at the longest day: the numerator is 0.5 * avg, never
    # below zero, so the back-out needs no sign check
    @example(avg=1000.0, renewable_share=1.0, hours=23.5)
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

    def test_defaults(self):
        """No always-low regions and no overlap penalty: the mean availability."""
        assert solar_beta(self.PROFILES) == pytest.approx((1524 + 2627 + 1665) / (3 * 2920))

    def test_full_sunshine(self):
        sunny = [
            RegionProfile("a", 100.0, 10.0, sunshine_hours_per_year=2920.0),
            RegionProfile("b", 100.0, 10.0, sunshine_hours_per_year=3000.0),
        ]
        assert solar_beta(sunny, overlap_factor=1.0) == 1.0

    def test_missing_sunshine_rejected(self):
        with pytest.raises(ScenarioError):
            solar_beta([UK])

    def test_no_region_rejected(self):
        with pytest.raises(ScenarioError) as info:
            solar_beta([])
        assert str(info.value) == "solar_beta needs at least one region"

    @pytest.mark.parametrize("overlap", [-0.1, 1.5, math.nan])
    def test_overlap_outside_unit_interval_rejected(self, overlap):
        with pytest.raises(ScenarioError) as info:
            solar_beta(self.PROFILES, overlap_factor=overlap)
        assert str(info.value) == "overlap_factor must be in [0,1]"

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

    def test_default_penalty_is_zero(self):
        assert wind_beta(0.5, 0.35) == pytest.approx(0.7)

    def test_ideal_of_one_accepted(self):
        assert wind_beta(1.0, 0.35, 0.1) == pytest.approx(0.315)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ScenarioError):
            wind_beta(0.0, 0.0, 0.0)

    def test_nan_ideal_blames_ideal(self):
        with pytest.raises(ScenarioError, match="^ideal_load_factor must be in"):
            wind_beta(math.nan, 0.3, 0.1)

    def test_ideal_above_one_rejected(self):
        with pytest.raises(ScenarioError) as info:
            wind_beta(1.5, 0.3, 0.1)
        assert str(info.value) == "ideal_load_factor must be in (0,1]"

    @pytest.mark.parametrize(
        "actual,penalty,message",
        [
            (0.6, 0.1, "actual_load_factor must be in [0, ideal_load_factor]"),
            (-0.1, 0.1, "actual_load_factor must be in [0, ideal_load_factor]"),
            (math.nan, 0.1, "actual_load_factor must be in [0, ideal_load_factor]"),
            (0.3, 1.5, "correlation_penalty must be in [0,1]"),
            (0.3, -0.1, "correlation_penalty must be in [0,1]"),
            (0.3, math.nan, "correlation_penalty must be in [0,1]"),
        ],
    )
    def test_out_of_range_argument_rejected(self, actual, penalty, message):
        with pytest.raises(ScenarioError) as info:
            wind_beta(0.5, actual, penalty)
        assert str(info.value) == message

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

    def test_budget_below_one_watt_accepted(self):
        model = NodePowerModel(4550.0, 1.16, 41.0)
        assert nodes_from_power_budget(0.5, model) == 0

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
    ("load", "-0.1", "load must be in [0,1]"),
]
# every range-checked key: section, key, an out-of-range value, the error
RANGE_CASES = [(section, *case) for section in ("hi", "lo") for case in SITE_RANGES] + [
    ("common", "gamma", "1.5", "gamma must be in [0,1]"),
    ("common", "embodied_kg_per_node_year", "-1", "embodied_kg_per_node_year must be >= 0"),
    ("shift", "alpha", "1.5", "alpha must be in [0,1]"),
    ("shift", "beta", "-0.1", "beta must be in [0,1]"),
    ("shift", "eta", "1", "eta must be in [0,1)"),
    ("shift", "alpha", "-0.1", "alpha must be in [0,1]"),
    ("shift", "beta", "1.5", "beta must be in [0,1]"),
    ("shift", "eta", "-0.1", "eta must be in [0,1)"),
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


# VALID_SCENARIO with every float key: [hi] direct, [lo] derived
WITH_NU = VALID_SCENARIO.replace("pue = 1.1\n", "pue = 1.1\nnu = 0\n")
VALID_CONFIG = load_scenario(WITH_NU)
LO_POWER_MODEL = NodePowerModel(1200.0, 1.1, 41.0)
# each float key -> a valid model object that the key builds, and its field
FLOAT_KEYS = {
    "load": (VALID_CONFIG.hi, "load"),
    "op_kg_per_node_year": (VALID_CONFIG.hi, "op_full_per_node"),
    "embodied_kg_per_node_year": (VALID_CONFIG.hi, "embodied_per_node"),
    "ci_g_per_kwh": (LO_POWER_MODEL, "carbon_intensity"),
    "node_power_w": (LO_POWER_MODEL, "active_power"),
    "pue": (LO_POWER_MODEL, "pue"),
    "nu": (LO_POWER_MODEL, "network_overhead_fraction"),
    "gamma": (VALID_CONFIG, "gamma"),
    "alpha": (VALID_CONFIG.policy, "alpha"),
    "beta": (VALID_CONFIG.policy, "beta"),
    "eta": (VALID_CONFIG.policy, "eta"),
}


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

    @pytest.mark.parametrize(
        "text,message",
        [
            (VALID_SCENARIO + "\n[hi]\n", "line 27: duplicate section [hi]"),
            ("# header\nname = x\n" + VALID_SCENARIO, "line 2: key before any [section] header"),
            # the second load in [hi], where nodes was
            (VALID_SCENARIO.replace("nodes = 10", "load = 0.3", 1), "line 7: duplicate key 'load'"),
            (VALID_SCENARIO.replace("[hi]", "[hi"), "line 4: expected 'key = value', got '[hi'"),
            (VALID_SCENARIO.replace("[hi]", "hi]"), "line 4: expected 'key = value', got 'hi]'"),
            # a quote of the file's text is cut after 40 characters
            (
                VALID_SCENARIO.replace("[hi]", "[hi" + "x" * 40),
                f"line 4: expected 'key = value', got '[hi{'x' * 37}'... (43 characters)",
            ),
            (
                VALID_SCENARIO + "[" + "s" * 41 + "]\n",
                f"line 26: unknown section [{'s' * 40}]... (41 characters)",
            ),
            (
                VALID_SCENARIO.replace("eta = 0.01", "k" * 41 + " = 1"),
                f"line 25: unknown key '{'k' * 40}'... (41 characters) in section [shift]",
            ),
            (
                VALID_SCENARIO + "[" + "s" * 40 + "]\n",
                f"line 26: unknown section [{'s' * 40}]",
            ),
        ],
        ids=[
            "duplicate_section", "key_before_section", "duplicate_key", "header_without_close",
            "header_without_open", "long_line", "long_section", "long_key", "section_of_40",
        ],
    )
    def test_misplaced_line_reports_line(self, text, message):
        with pytest.raises(ScenarioError) as info:
            load_scenario(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                VALID_SCENARIO.replace("name = example\n", ""),
                "line 1: section [scenario]: missing key name",
            ),
            (VALID_SCENARIO.replace("load = 0.8\n", ""), "line 4: section [hi]: missing key load"),
            (
                "# header\n\n" + VALID_SCENARIO.replace("load = 0.8\n", ""),
                "line 6: section [hi]: missing key load",
            ),
            (VALID_SCENARIO.replace("load = 0.5\n", ""), "line 10: section [lo]: missing key load"),
            (
                VALID_SCENARIO.replace("gamma = 0.3\n", ""),
                "line 18: section [common]: missing key gamma",
            ),
            (
                VALID_SCENARIO.replace("alpha = 0.5\nbeta = 0.8\n", ""),
                "line 22: section [shift]: missing key alpha, beta",
            ),
            (
                MIRRORED_SCENARIO.replace("ci_g_per_kwh = 41\n", "").replace("pue = 1.1\n", ""),
                "line 10: section [hi]: missing ci_g_per_kwh, pue (or give op_kg_per_node_year)",
            ),
            (
                VALID_SCENARIO.replace("pue = 1.1\n", ""),
                "line 10: section [lo]: missing pue (or give op_kg_per_node_year)",
            ),
            (
                VALID_SCENARIO.replace("load = 0.8\n", "load = 0.8\npue = 1.1\n"),
                "line 4: section [hi]: give op_kg_per_node_year or a power model, not both",
            ),
        ],
        ids=[
            "scenario", "hi", "hi_after_comment", "lo", "common", "shift",
            "hi_power_model", "lo_power_model", "both",
        ],
    )
    def test_section_error_reports_header_line(self, text, message):
        with pytest.raises(ScenarioError) as info:
            load_scenario(text)
        assert str(info.value) == message
        assert info.value.line == int(message.split(":")[0].removeprefix("line "))

    def test_missing_section_has_no_line(self):
        with pytest.raises(ScenarioError) as info:
            load_scenario(VALID_SCENARIO.split("[shift]")[0])
        assert str(info.value) == "missing required section [shift]"
        assert info.value.line is None

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

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("common", "gamma", "x" * 41, f"not a number: '{'x' * 40}'... (41 characters)"),
            ("common", "gamma", "x" * 40, f"not a number: '{'x' * 40}'"),
            ("hi", "nodes", "1.5" * 14, f"not an integer: '{'1.5' * 13}1'... (42 characters)"),
            # int() stops at its digit limit before it reads the trailing x
            ("hi", "nodes", "1" * 4301 + "x", f"not an integer: '{'1' * 40}'... (4302 characters)"),
        ],
        ids=["number", "number_of_40", "integer", "integer_beyond_digit_limit"],
    )
    def test_value_quote_cut_after_40_characters(self, section, key, value, message):
        bad, lineno = scenario_with(section, key, value)
        with pytest.raises(ScenarioError) as info:
            load_scenario(bad)
        assert str(info.value) == f"line {lineno}: key {key!r}: {message}"

    @pytest.mark.parametrize("zeros", ["0" * 4300, "0_" * 4300])
    def test_count_beyond_int_digit_limit_read_exactly(self, zeros):
        """Leading zeros make a small count longer than int() reads."""
        bad, _ = scenario_with("hi", "nodes", zeros + "12345678901234567891")
        assert load_scenario(bad).hi.nodes_per_site == 12345678901234567891

    @pytest.mark.parametrize("section,key,value,message", RANGE_CASES)
    def test_out_of_range_reports_line(self, section, key, value, message):
        bad, lineno = scenario_with(section, key, value)
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: {re.escape(message)}$") as info:
            load_scenario(bad)
        assert info.value.line == lineno

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("sites", "1" + "0" * 400, "sites must fit a float"),
            ("nodes", "1" + "0" * 400, "nodes must fit a float"),
            # SiteClass checks >= 1 before the fit
            ("sites", "-1" + "0" * 400, "sites must be >= 1"),
            ("nodes", "-1" + "0" * 400, "nodes must be >= 1"),
            # more digits than int() reads (sys.get_int_max_str_digits)
            ("nodes", "1" + "0" * 4300, "nodes must fit a float"),
            ("nodes", "-1" + "0" * 4300, "nodes must be >= 1"),
        ],
        ids=[
            "sites", "nodes", "sites-negative", "nodes-negative", "nodes-4301-digits",
            "nodes-4301-digits-negative",
        ],
    )
    def test_count_beyond_float_range_reports_line(self, key, value, message):
        bad, lineno = scenario_with("hi", key, value)
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: {re.escape(message)}$") as info:
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

    @pytest.mark.parametrize("sites,nodes", [("-1", "10"), ("1", "-10"), ("0", "10"), ("1", "0")])
    def test_overflowing_power_model_found_before_count_range(self, sites, nodes):
        """A negative count times the overflowing op fit under the bound, so
        the count's range was reported instead; a zero count was not."""
        bad, lineno = scenario_with("lo", "node_power_w", "1e308")
        bad = bad.replace("[lo]\nsites = 1\nnodes = 10", f"[lo]\nsites = {sites}\nnodes = {nodes}")
        with pytest.raises(ScenarioError, match=rf"^line {lineno}: key 'node_power_w': annual"):
            load_scenario(bad)

    def test_overflowing_power_model_blamed_on_its_own_keys(self):
        """The largest number of the whole class, sites = 10^300, was blamed."""
        bad, _ = scenario_with("lo", "sites", "1" + "0" * 300)
        bad = bad.replace("ci_g_per_kwh = 41", "ci_g_per_kwh = 1e200")
        bad = bad.replace("node_power_w = 1200", "node_power_w = 1e200")
        message = "line 15: key 'node_power_w': annual totals too large for a float"
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            load_scenario(bad)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999", "-1e999"])
    @pytest.mark.parametrize(
        "line",
        [
            "op_kg_per_node_year = 5000", "ci_g_per_kwh = 41", "gamma = 0.3", "beta = 0.8",
            "load = 0.8", "load = 0.5", "node_power_w = 1200", "pue = 1.1", "nu = 0",
            "embodied_kg_per_node_year = 444", "alpha = 0.5", "eta = 0.01",
        ],
    )
    def test_non_finite_number_reports_line(self, line, value):
        """The parser reads inf and nan as numbers; the model object that the
        key builds rejects them, in its own words, at the key's line."""
        key = line.split(" = ")[0]
        bad = WITH_NU.replace(line, f"{key} = {value}")
        lineno = bad.splitlines().index(f"{key} = {value}") + 1
        model_object, field = FLOAT_KEYS[key]
        with pytest.raises(ModelError) as rule:
            dataclasses.replace(model_object, **{field: float(value)})
        requirement = str(rule.value).removeprefix(f"{field} ")
        with pytest.raises(ScenarioError) as info:
            load_scenario(bad)
        assert str(info.value) == f"line {lineno}: {key} {requirement}"
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
@example(text=VALID_SCENARIO.replace("sites = 1", "sites = -1" + "0" * 400, 1))
def test_fuzzed_scenario_evaluates_or_is_rejected(text):
    """Every input ends in a config with finite totals or a ScenarioError
    that names a line (no mutation removes a section)."""
    try:
        config = load_scenario(text)
    except ScenarioError as exc:
        assert exc.line is not None
        return
    assert type(config) is ScenarioConfig
    report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if field.name == "reduction" and report.baseline_total == 0.0:
            assert math.isnan(value)
        else:
            assert math.isfinite(value), field.name
