"""Acceptance suite: one test per criterion, each printing PASS on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

from __future__ import annotations

import random

import pytest

from glshift import (
    NodePowerModel,
    ShiftPolicy,
    SiteClass,
    SweepSpec,
    TraceSpec,
    Uniform,
    blended_emissions,
    capacity_projection,
    compare_with_means,
    fossil_ci_backout,
    ideal_reduction,
    kink_location,
    nodes_from_power_budget,
    run_sweep,
    solar_beta,
    wind_beta,
    years_compensated,
)
from glshift.scenario import RegionProfile
from tests.conftest import read_bundled


def _report(line: str) -> None:
    print(f"PASS: {line}")


def _random_site(rng: random.Random, load: float | None = None, **overrides) -> SiteClass:
    fields = dict(
        site_count=rng.randint(1, 4),
        nodes_per_site=rng.randint(1, 1000),
        load=load if load is not None else rng.random(),
        embodied_per_node=rng.uniform(0.0, 5000.0),
        op_full_per_node=rng.uniform(0.0, 20000.0),
    )
    fields.update(overrides)
    return SiteClass(**fields)


HPC_EXPECTED = {
    "table2_s1": (1197, 832, 30.5),
    "table2_s2": (1054, 910, 13.6),
    "table2_s3": (1054, 982, 6.8),
    "table2_s4": (534, 500, 6.5),
    "table2_s5": (534, 517, 3.3),
}


def test_criterion_1_table2_golden():
    for name, (baseline_t, blended_t, reduction_pct) in HPC_EXPECTED.items():
        config = read_bundled(name)
        report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
        assert report.baseline_total / 1000.0 == pytest.approx(baseline_t, abs=1.0), name
        assert report.blended_total / 1000.0 == pytest.approx(blended_t, abs=1.0), name
        assert report.reduction * 100.0 == pytest.approx(reduction_pct, abs=0.1), name
    _report("criterion 1: five HPC scenarios reproduce baseline/blended totals and reductions")


def test_criterion_2_table1_golden():
    expectations = {
        "table1_solar": (2_565_724.0, 2_447_922.0, 4.6),
        "table1_wind": (2_273_088.0, 2_151_753.0, 5.3),
    }
    for name, (baseline_t, blended_t, reduction_pct) in expectations.items():
        config = read_bundled(name)
        report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
        assert report.baseline_total / 1000.0 == pytest.approx(baseline_t, rel=0.005), name
        assert report.blended_total / 1000.0 == pytest.approx(blended_t, rel=0.005), name
        assert report.reduction * 100.0 == pytest.approx(reduction_pct, abs=0.3), name
    _report("criterion 2: solar and wind AI scenarios reproduce totals (0.5%) and reductions (0.3pp)")


def test_criterion_3_ideal_bound():
    for load in (0.0, 0.25, 0.5):
        assert ideal_reduction(369.0, 211.0, load) == pytest.approx(0.272, abs=0.001)
    assert ideal_reduction(369.0, 211.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    _report("criterion 3: ideal bound 0.272 below half load, 0 at full load")


def test_criterion_4_scenario_derivations():
    uk = RegionProfile("UK", average_ci=211.0, renewable_ci=44.0)
    assert fossil_ci_backout(uk) == pytest.approx(294.5, abs=0.1)

    profiles = [
        RegionProfile("UK", 211.0, 41.0, sunshine_hours_per_year=1524.0),
        RegionProfile("US", 369.0, 41.0, sunshine_hours_per_year=2627.0),
        RegionProfile("DE", 344.0, 41.0, sunshine_hours_per_year=1665.0),
    ]
    assert solar_beta(profiles, always_low_count=3, overlap_factor=5.0 / 8.0) == pytest.approx(
        0.52, abs=0.005
    )
    assert wind_beta(0.5, 0.35, 0.10) == pytest.approx(0.63, abs=0.005)
    node = NodePowerModel(4550.0, 1.16, 41.0)
    assert nodes_from_power_budget(300e6, node) == 56_840
    _report("criterion 4: fossil back-out, solar beta, wind beta and node sizing")


def test_criterion_5_model_structure_properties():
    rng = random.Random(20260823)
    checked = 0
    for _ in range(1000):
        hi = _random_site(rng)
        lo = _random_site(rng)
        gamma = rng.random()
        alpha = rng.random()
        beta = rng.random()
        policy = ShiftPolicy(alpha=alpha, beta=beta, eta=rng.uniform(0.0, 0.05))

        report = blended_emissions(hi, lo, gamma, policy)
        alpha_eff = report.alpha_eff

        # load conservation and clamping
        new_hi = hi.load * (1.0 - alpha_eff)
        new_lo = lo.load + alpha_eff * hi.load * hi.site_count / lo.site_count
        before = hi.site_count * hi.load + lo.site_count * lo.load
        after = hi.site_count * new_hi + lo.site_count * new_lo
        assert abs(before - after) < 1e-12 * max(1.0, before)
        assert -1e-12 <= alpha_eff <= min(alpha, 1.0) + 1e-12
        assert new_lo <= 1.0 + 1e-9

        # beta = 0 collapses to the baseline exactly
        frozen = blended_emissions(hi, lo, gamma, ShiftPolicy(alpha, 0.0, policy.eta))
        assert frozen.blended_total == frozen.baseline_total
        checked += 1
    assert checked == 1000

    # symmetric no-op
    for _ in range(200):
        load = rng.random()
        op = rng.uniform(1.0, 20000.0)
        shared = dict(load=load, op_full_per_node=op, site_count=1, nodes_per_site=100)
        hi = _random_site(rng, **shared)
        lo = SiteClass(**{**shared, "embodied_per_node": hi.embodied_per_node})
        report = blended_emissions(hi, lo, rng.random(), ShiftPolicy(1.0, 1.0, 0.0))
        assert abs(report.reduction) < 1e-12

    # degenerate settings reduce to the ideal formula
    for i in range(1, 11):
        load = i / 10.0
        hi = SiteClass(1, 1, load, 0.0, 369.0)
        lo = SiteClass(1, 1, load, 0.0, 211.0)
        report = blended_emissions(hi, lo, 0.0, ShiftPolicy(1.0, 1.0, 0.0))
        assert abs(report.reduction - ideal_reduction(369.0, 211.0, load)) < 1e-12
    _report("criterion 5: conservation, clamping, degeneracy and ideal equivalence over randomised draws")


def test_criterion_6_sweep_properties():
    solar = read_bundled("table1_solar")
    rows = run_sweep(SweepSpec(base=solar))
    plateau = ideal_reduction(solar.hi.op_full_per_node, solar.lo.op_full_per_node, 0.0)
    for row in rows:
        if row.load <= 0.5:
            assert row.reductions["no_time_constraints"] == pytest.approx(plateau, abs=1e-12)
        r = row.reductions
        assert r["no_time_constraints"] >= r["zero_embodied"] - 1e-12
        assert r["zero_embodied"] >= r["full"] - 1e-12
        assert r["no_time_constraints"] >= r["zero_idle"] - 1e-12
        assert r["zero_idle"] >= r["full"] - 1e-12
    assert kink_location(rows, "no_time_constraints") == pytest.approx(0.5)

    hpc = read_bundled("table2_s1")
    hpc_rows = run_sweep(SweepSpec(base=hpc, swept_parameter="load_hi"))
    assert kink_location(hpc_rows, "full") == pytest.approx(1.0 - hpc.lo.load)
    _report("criterion 6: plateau, kink locations and variant ordering across sweep grids")


def test_criterion_7_oracle_equivalence():
    ok = 0
    for seed in range(100):
        spec = TraceSpec(
            steps=100_000,
            seed=seed,
            load_dist=Uniform(0.6, 1.0),
            ci_dist=Uniform(300.0, 500.0),
        )
        result = compare_with_means(spec, 0.3, 444.0)
        if abs(result.z_score) <= 3.0:
            ok += 1
        expected_gap = (1.0 - 0.3) * result.sample_covariance
        assert result.sample_mean_delta == pytest.approx(expected_gap, rel=1e-9, abs=1e-9)
    assert ok >= 95

    control = TraceSpec(
        steps=100_000,
        seed=7,
        load_dist=Uniform(0.6, 1.0),
        ci_dist=Uniform(300.0, 500.0),
        correlated=True,
    )
    assert compare_with_means(control, 0.3, 444.0).z_score > 3.0
    _report(f"criterion 7: {ok}/100 seeds within 3 sigma, covariance identity, negative control")


def test_criterion_8_growth_analysis():
    assert years_compensated(0.10, 0.27) < 1.0
    assert years_compensated(0.50, 0.22) == pytest.approx(3.49, abs=0.01)
    _, energy = capacity_projection(1100.0, 0.22, 0)
    assert energy == pytest.approx(9636.0, abs=10.0)
    factor, _ = capacity_projection(1.0, 0.22, 15)
    assert factor == pytest.approx(19.8, abs=0.1)
    _report("criterion 8: growth compensation times and capacity/energy projections")
