"""Unit tests for the core two-site emissions model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glshift import (
    ModelError,
    NodePowerModel,
    ShiftPolicy,
    SiteClass,
    blended_emissions,
    ideal_reduction,
    op_full_per_node,
)


def site(
    load: float,
    op: float,
    sites: int = 1,
    nodes: int = 100,
    embodied: float = 444.0,
) -> SiteClass:
    return SiteClass(
        site_count=sites,
        nodes_per_site=nodes,
        load=load,
        embodied_per_node=embodied,
        op_full_per_node=op,
    )


HPC_HI = site(1.0, 10831.0)
HPC_LO = site(0.5, 390.0)
NO_SHIFT = ShiftPolicy(alpha=0.0, beta=0.0)


def unit_site(load: float, sites: int = 1) -> SiteClass:
    """One node per site at unit full-load op and no embodied carbon:
    with gamma = 0 the report's op_hi/op_lo are site_count times the load."""
    return site(load, 1.0, sites=sites, nodes=1, embodied=0.0)


class TestNodeEnergy:
    """At pue 1 and 1000 g/kWh, op_full_per_node is the node's annual kWh."""

    def test_dgx_class_node(self):
        model = NodePowerModel(4550.0, 1.0, 1000.0)
        assert op_full_per_node(model) == pytest.approx(39858.0)

    def test_unit_power(self):
        model = NodePowerModel(1000.0, 1.0, 1000.0)
        assert op_full_per_node(model) == pytest.approx(8760.0)

    def test_hpc_node(self):
        model = NodePowerModel(1200.0, 1.0, 1000.0)
        assert op_full_per_node(model) == pytest.approx(10512.0)


class TestOpFullPerNode:
    def test_low_ci_solar(self):
        model = NodePowerModel(4550.0, 1.16, 41.0)
        assert op_full_per_node(model) == pytest.approx(1896.0, abs=1.0)

    def test_low_ci_wind(self):
        model = NodePowerModel(4550.0, 1.16, 11.0)
        assert op_full_per_node(model) == pytest.approx(509.0, abs=1.0)

    def test_zero_carbon_intensity(self):
        model = NodePowerModel(4550.0, 1.16, 0.0)
        assert op_full_per_node(model) == 0.0

    def test_network_overhead_scales_linearly(self):
        base = NodePowerModel(1000.0, 1.2, 100.0)
        with_nu = NodePowerModel(1000.0, 1.2, 100.0, network_overhead_fraction=0.5)
        assert op_full_per_node(with_nu) == pytest.approx(1.5 * op_full_per_node(base))

    def test_invalid_model_rejected(self):
        with pytest.raises(ModelError):
            NodePowerModel(0.0, 1.16, 41.0)
        with pytest.raises(ModelError):
            NodePowerModel(1000.0, 0.9, 41.0)


class TestOperationalFactor:
    """Without a shift, op_hi of a unit site is its operational factor."""

    def test_partial_load(self):
        report = blended_emissions(unit_site(0.83), unit_site(0.5), 0.30, NO_SHIFT)
        assert report.op_hi == pytest.approx(0.881)

    def test_full_load(self):
        report = blended_emissions(unit_site(1.0), unit_site(0.5), 0.7, NO_SHIFT)
        assert report.op_hi == 1.0

    def test_idle_site(self):
        report = blended_emissions(unit_site(0.0), unit_site(0.5), 0.30, NO_SHIFT)
        assert report.op_hi == pytest.approx(0.30)

    @given(
        load=st.floats(0.0, 1.0),
        idle=st.floats(0.0, 1.0),
    )
    def test_bounds(self, load, idle):
        factor = blended_emissions(unit_site(load), unit_site(0.5), idle, NO_SHIFT).op_hi
        assert min(load, idle) - 1e-12 <= factor <= 1.0 + 1e-12


class TestBaseline:
    def test_hpc_scenario(self):
        total = blended_emissions(HPC_HI, HPC_LO, 0.3, NO_SHIFT).baseline_total
        assert total / 1000.0 == pytest.approx(1197.0, abs=1.0)

    def test_ai_scenario(self):
        hi = site(0.83, 18978.0, sites=2, nodes=56840, embodied=2066.0)
        lo = site(0.83, 1896.0, sites=2, nodes=56840, embodied=2066.0)
        total = blended_emissions(hi, lo, 0.3, NO_SHIFT).baseline_total
        assert total / 1000.0 == pytest.approx(2_565_724.0, rel=0.005)

    def test_all_zero(self):
        hi = site(0.5, 0.0, embodied=0.0)
        lo = site(0.5, 0.0, embodied=0.0)
        assert blended_emissions(hi, lo, 0.3, NO_SHIFT).baseline_total == 0.0


class TestEffectiveAlpha:
    def test_capped_by_free_capacity(self):
        report = blended_emissions(HPC_HI, HPC_LO, 0.3, ShiftPolicy(1.0, 1.0))
        assert report.alpha_eff == pytest.approx(0.5)

    def test_uncapped(self):
        hi = site(0.83, 1.0, sites=2)
        lo = site(0.83, 1.0, sites=2)
        assert blended_emissions(hi, lo, 0.3, ShiftPolicy(0.2, 1.0)).alpha_eff == pytest.approx(0.2)

    def test_zero_alpha(self):
        assert blended_emissions(HPC_HI, HPC_LO, 0.3, NO_SHIFT).alpha_eff == 0.0

    def test_idle_high_side_guard(self):
        hi = site(0.0, 1.0)
        lo = site(0.5, 1.0)
        assert blended_emissions(hi, lo, 0.3, ShiftPolicy(0.7, 1.0)).alpha_eff == 0.7

    @given(
        alpha=st.floats(0.0, 1.0),
        load_hi=st.floats(0.0, 1.0),
        load_lo=st.floats(0.0, 1.0),
        n_hi=st.integers(1, 5),
        n_lo=st.integers(1, 5),
    )
    def test_piecewise_form_equivalence(self, alpha, load_hi, load_lo, n_hi, n_lo):
        """The clamp is equivalent to the three-branch piecewise definition."""
        hi = site(load_hi, 1.0, sites=n_hi)
        lo = site(load_lo, 1.0, sites=n_lo)
        got = blended_emissions(hi, lo, 0.3, ShiftPolicy(alpha, 1.0)).alpha_eff
        busy = n_hi * load_hi
        free = n_lo * (1.0 - load_lo)
        if busy == 0.0:
            expected = alpha
        elif alpha * busy <= free:
            expected = alpha
        elif busy >= free:
            expected = free / busy
        else:
            expected = 1.0  # unreachable for alpha <= 1
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got <= min(alpha, 1.0) + 1e-12


class TestShiftedLoads:
    """With gamma = 0, op_hi/op_lo of unit sites are the post-shift loads."""

    def test_worked_example(self):
        report = blended_emissions(unit_site(0.9), unit_site(0.7), 0.0, ShiftPolicy(0.2, 1.0))
        assert report.op_hi == pytest.approx(0.72)
        assert report.op_lo == pytest.approx(0.88)

    def test_no_shift(self):
        report = blended_emissions(unit_site(1.0), unit_site(0.5), 0.0, NO_SHIFT)
        assert (report.op_hi, report.op_lo) == (1.0, 0.5)

    def test_saturates_low_side(self):
        report = blended_emissions(unit_site(1.0), unit_site(0.5), 0.0, ShiftPolicy(0.5, 1.0))
        assert report.op_hi == pytest.approx(0.5)
        assert report.op_lo == pytest.approx(1.0)

    @given(
        alpha=st.floats(0.0, 1.0),
        load_hi=st.floats(0.0, 1.0),
        load_lo=st.floats(0.0, 1.0),
        n_hi=st.integers(1, 5),
        n_lo=st.integers(1, 5),
    )
    def test_load_conservation(self, alpha, load_hi, load_lo, n_hi, n_lo):
        hi = unit_site(load_hi, sites=n_hi)
        lo = unit_site(load_lo, sites=n_lo)
        report = blended_emissions(hi, lo, 0.0, ShiftPolicy(alpha, 1.0))
        before = n_hi * load_hi + n_lo * load_lo
        after = report.op_hi + report.op_lo  # n_hi*new_hi + n_lo*new_lo
        assert after == pytest.approx(before, abs=1e-12)
        assert report.op_lo / n_lo <= 1.0 + 1e-9


class TestShiftOverhead:
    """With beta = 1 the report's overhead is the full shift overhead.

    The low sites run at 0.5 so that free capacity does not cap alpha.
    """

    def test_hpc_overhead(self):
        hi = site(0.8, 10831.0)
        lo = site(0.5, 390.0)
        report = blended_emissions(hi, lo, 0.3, ShiftPolicy(0.25, 1.0, 0.01))
        assert report.alpha_eff == 0.25
        assert report.overhead == pytest.approx(2805.25)

    def test_zero_eta(self):
        assert blended_emissions(HPC_HI, HPC_LO, 0.3, ShiftPolicy(0.5, 1.0, 0.0)).overhead == 0.0

    def test_moderate_differential(self):
        hi = site(0.8, 3879.0)
        lo = site(0.5, 1304.0)
        report = blended_emissions(hi, lo, 0.3, ShiftPolicy(0.25, 1.0, 0.01))
        assert report.alpha_eff == 0.25
        assert report.overhead == pytest.approx(1295.75)


class TestGlsEmissions:
    def test_hpc_scenario_1(self):
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.0)
        total = blended_emissions(HPC_HI, HPC_LO, 0.3, policy).gls_total
        assert total / 1000.0 == pytest.approx(832.0, abs=1.0)

    def test_hpc_scenario_2(self):
        hi = site(0.8, 10831.0)
        lo = site(0.8, 390.0)
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.01)
        total = blended_emissions(hi, lo, 0.3, policy).gls_total
        assert total / 1000.0 == pytest.approx(910.0, abs=1.0)

    def test_nothing_moved_equals_baseline(self):
        policy = ShiftPolicy(alpha=0.0, beta=1.0, eta=0.0)
        report = blended_emissions(HPC_HI, HPC_LO, 0.3, policy)
        assert report.gls_total == report.baseline_total


class TestBlendedEmissions:
    def test_hpc_scenario_3(self):
        hi = site(0.8, 10831.0)
        lo = site(0.8, 390.0)
        policy = ShiftPolicy(alpha=0.25, beta=0.5, eta=0.01)
        report = blended_emissions(hi, lo, 0.3, policy)
        assert report.blended_total / 1000.0 == pytest.approx(982.0, abs=1.0)
        assert report.reduction * 100.0 == pytest.approx(6.8, abs=0.1)

    def test_hpc_scenario_5(self):
        hi = site(0.8, 3879.0)
        lo = site(0.8, 1304.0)
        policy = ShiftPolicy(alpha=0.25, beta=0.5, eta=0.01)
        report = blended_emissions(hi, lo, 0.3, policy)
        assert report.blended_total / 1000.0 == pytest.approx(517.0, abs=1.0)
        assert report.reduction * 100.0 == pytest.approx(3.3, abs=0.1)

    def test_beta_zero_is_baseline(self):
        policy = ShiftPolicy(alpha=1.0, beta=0.0, eta=0.01)
        report = blended_emissions(HPC_HI, HPC_LO, 0.3, policy)
        assert report.blended_total == report.baseline_total
        assert report.reduction == 0.0

    def test_zero_baseline_reports_nan(self):
        hi = site(0.0, 0.0, embodied=0.0)
        lo = site(0.0, 0.0, embodied=0.0)
        report = blended_emissions(hi, lo, 0.0, ShiftPolicy(1.0, 1.0))
        assert math.isnan(report.reduction)

    def test_report_internal_consistency(self):
        hi = site(0.8, 10831.0)
        lo = site(0.8, 390.0)
        policy = ShiftPolicy(alpha=0.25, beta=0.5, eta=0.01)
        report = blended_emissions(hi, lo, 0.3, policy)
        expected_blend = policy.beta * report.gls_total + (1 - policy.beta) * report.baseline_total
        assert report.blended_total == pytest.approx(expected_blend, rel=1e-12)
        assert report.baseline_total >= report.embodied_total

    @given(
        beta=st.floats(0.0, 1.0),
        load_hi=st.floats(0.0, 1.0),
        load_lo=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_beta_linearity(self, beta, load_hi, load_lo, gamma):
        hi = site(load_hi, 10831.0)
        lo = site(load_lo, 390.0)
        policy = ShiftPolicy(alpha=1.0, beta=beta, eta=0.01)
        report = blended_emissions(hi, lo, gamma, policy)
        baseline = report.baseline_total
        gls = report.gls_total
        assert report.blended_total == pytest.approx(
            beta * gls + (1 - beta) * baseline, rel=1e-12, abs=1e-9
        )
        if baseline > 0:
            slope_based = beta * (baseline - gls) / baseline
            assert report.reduction == pytest.approx(slope_based, rel=1e-9, abs=1e-12)

    def test_symmetric_no_op(self):
        hi = site(0.6, 5000.0)
        lo = site(0.6, 5000.0)
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.0)
        report = blended_emissions(hi, lo, 0.3, policy)
        assert report.gls_total == pytest.approx(report.baseline_total, rel=1e-12)
        assert abs(report.reduction) < 1e-12


class TestIdealReduction:
    def test_us_to_uk(self):
        assert ideal_reduction(369.0, 211.0, 0.5) == pytest.approx(0.272, abs=0.001)

    def test_full_load(self):
        assert ideal_reduction(369.0, 211.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_sites(self):
        assert ideal_reduction(100.0, 100.0, 0.3) == 0.0

    def test_undefined_for_zero_emissions(self):
        with pytest.raises(ModelError):
            ideal_reduction(0.0, 0.0, 0.5)

    @given(load=st.floats(0.0, 0.5))
    def test_plateau_below_half_load(self, load):
        assert ideal_reduction(369.0, 211.0, load) == ideal_reduction(369.0, 211.0, 0.0)

    def test_general_model_reduces_to_ideal_formula(self):
        """Degenerate settings collapse the blended model to the ideal bound."""
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.0)
        for i in range(1, 11):  # load 0 makes the baseline vanish
            load = i / 10.0
            hi = site(load, 369.0, embodied=0.0)
            lo = site(load, 211.0, embodied=0.0)
            report = blended_emissions(hi, lo, 0.0, policy)
            assert report.reduction == pytest.approx(
                ideal_reduction(369.0, 211.0, load), abs=1e-12
            )


class TestMonotonicity:
    @given(
        gamma_pair=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        load=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200)
    def test_reduction_non_increasing_in_gamma(self, gamma_pair, load):
        lo_gamma, hi_gamma = sorted(gamma_pair)
        hi = site(load, 10831.0)
        lo = site(load, 390.0)
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.0)
        r_low = blended_emissions(hi, lo, lo_gamma, policy).reduction
        r_high = blended_emissions(hi, lo, hi_gamma, policy).reduction
        assert r_high <= r_low + 1e-12

    @given(
        emb_pair=st.tuples(st.floats(0.0, 5000.0), st.floats(0.0, 5000.0)),
        load=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200)
    def test_reduction_non_increasing_in_embodied(self, emb_pair, load):
        lo_emb, hi_emb = sorted(emb_pair)
        policy = ShiftPolicy(alpha=1.0, beta=1.0, eta=0.0)
        r_low = blended_emissions(
            site(load, 10831.0, embodied=lo_emb), site(load, 390.0, embodied=lo_emb), 0.3, policy
        ).reduction
        r_high = blended_emissions(
            site(load, 10831.0, embodied=hi_emb), site(load, 390.0, embodied=hi_emb), 0.3, policy
        ).reduction
        assert r_high <= r_low + 1e-12
