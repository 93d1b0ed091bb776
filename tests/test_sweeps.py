"""Sweep curves, kink detection and growth analysis."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glshift import (
    EmissionsReport,
    ScenarioConfig,
    ShiftPolicy,
    SiteClass,
    SweepRow,
    SweepSpec,
    blended_emissions,
    capacity_projection,
    ideal_reduction,
    kink_location,
    run_sweep,
    years_compensated,
)
from glshift.cli import main
from glshift.model import _emissions
from glshift.sweeps import KINK_TOL, MAX_GRID_POINTS, VARIANTS
from tests.conftest import SCENARIO_NAMES, read_bundled

# ------------------------------------------------------------ references
# The per-point implementations that the kernel and the vectorised code
# replaced, kept as references: both paths must reproduce them bit for
# bit.


def reference_grid(spec: SweepSpec) -> list[float]:
    count = int(round((spec.stop - spec.start) / spec.step))
    points = [spec.start + i * spec.step for i in range(count + 1)]
    return [min(p, spec.stop) for p in points]


def reference_blended(
    hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy
) -> EmissionsReport:
    """The scalar model as written before the kernel, helpers inlined."""

    def factor(load: float) -> float:
        return load + gamma * (1.0 - load)

    busy = hi.site_count * hi.load
    if busy == 0.0:
        alpha_eff = policy.alpha
    else:
        alpha_eff = min(policy.alpha, lo.site_count * (1.0 - lo.load) / busy)
    new_hi = hi.load * (1.0 - alpha_eff)
    new_lo = min(lo.load + alpha_eff * hi.load * hi.site_count / lo.site_count, 1.0)
    embodied = hi.site_count * hi.embodied_per_site + lo.site_count * lo.embodied_per_site
    op_hi = hi.site_count * factor(new_hi) * hi.op_full_per_site
    op_lo = lo.site_count * factor(new_lo) * lo.op_full_per_site
    overhead = policy.eta * alpha_eff * (
        hi.site_count * hi.op_full_per_site + lo.site_count * lo.op_full_per_site
    )
    baseline = (
        embodied
        + hi.site_count * factor(hi.load) * hi.op_full_per_site
        + lo.site_count * factor(lo.load) * lo.op_full_per_site
    )
    gls = embodied + op_hi + op_lo + overhead
    if policy.beta == 0.0 or gls == baseline:
        blended = baseline
    else:
        blended = policy.beta * gls + (1.0 - policy.beta) * baseline
    reduction = (baseline - blended) / baseline if baseline > 0.0 else math.nan
    return EmissionsReport(
        embodied, op_hi, op_lo, policy.beta * overhead, baseline, gls, blended, alpha_eff,
        reduction,
    )


def variant_inputs(hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy, variant: str):
    if variant in ("zero_idle", "no_time_constraints"):
        gamma = 0.0
    if variant in ("zero_embodied", "no_time_constraints"):
        hi = replace(hi, embodied_per_node=0.0)
        lo = replace(lo, embodied_per_node=0.0)
    if variant == "no_time_constraints":
        policy = replace(policy, beta=1.0)
    return hi, lo, gamma, policy


def reference_reduction(
    hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy, variant: str
) -> float:
    return reference_blended(*variant_inputs(hi, lo, gamma, policy, variant)).reduction


def reference_sweep(spec: SweepSpec) -> list[SweepRow]:
    base = spec.base
    policy = replace(base.policy, alpha=1.0)
    rows = []
    for load in reference_grid(spec):
        reductions = {}
        for variant in spec.variants:
            hi = replace(base.hi, load=load)
            lo = base.lo if spec.swept_parameter == "load_hi" else replace(base.lo, load=load)
            value = reference_reduction(hi, lo, base.gamma, policy, variant)
            if math.isnan(value) and load == 0.0:
                eps = 1e-9
                hi = replace(base.hi, load=eps)
                lo = base.lo if spec.swept_parameter == "load_hi" else replace(base.lo, load=eps)
                value = reference_reduction(hi, lo, base.gamma, policy, variant)
            reductions[variant] = value
        rows.append(SweepRow(load=load, reductions=reductions))
    return rows


def reference_kink(rows: list[SweepRow], variant: str) -> float | None:
    values = [row.reductions[variant] for row in rows]
    best_index, best_mag = None, KINK_TOL
    for i in range(1, len(values) - 1):
        mag = abs(values[i + 1] - 2.0 * values[i] + values[i - 1])
        if mag > best_mag:
            best_index, best_mag = i, mag
    if best_index is None:
        return None
    return rows[best_index].load


def bits(values) -> list[bytes]:
    return [struct.pack("d", v) for v in values]


def sweep_bits(rows: list[SweepRow], variants) -> list[bytes]:
    return bits([row.load for row in rows]) + [
        struct.pack("d", row.reductions[v]) for row in rows for v in variants
    ]


def site(sites: int, load: float, embodied: float, op: float) -> SiteClass:
    return SiteClass(
        site_count=sites, nodes_per_site=100, load=load, embodied_per_node=embodied,
        op_full_per_node=op,
    )


def scenario(hi: SiteClass, lo: SiteClass, gamma: float, beta: float, eta: float):
    return ScenarioConfig("guard", hi, lo, gamma, ShiftPolicy(alpha=1.0, beta=beta, eta=eta))


unit = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
per_node = st.floats(0.0, 20_000.0) | st.just(0.0)
sites = st.builds(
    site, st.integers(1, 8), unit, per_node, per_node
)
configs = st.builds(
    scenario, sites, sites, unit, unit, st.floats(0.0, 0.99) | st.just(0.0)
)
# five high-CI sites onto two low-CI sites at load 0.1: the cap binds
# above load_hi = 0.36 and the low side saturates (at load_hi = 0.72
# the unclamped load is 1.0000000000000002)
SATURATING = scenario(site(5, 0.8, 444.0, 18_978.0), site(2, 0.1, 444.0, 1896.0), 0.3, 0.52, 0.0)
ALL_ZERO = scenario(site(1, 0.5, 0.0, 1000.0), site(1, 0.5, 0.0, 0.0), 0.0, 0.5, 0.0)


@pytest.fixture(scope="module")
def ai_solar_rows():
    spec = SweepSpec(base=read_bundled("table1_solar"))
    return run_sweep(spec)


@pytest.fixture(scope="module")
def hpc_s1_rows():
    spec = SweepSpec(base=read_bundled("table2_s1"), swept_parameter="load_hi")
    return run_sweep(spec)


class TestRunSweep:
    def test_grid_size(self, ai_solar_rows):
        assert len(ai_solar_rows) == 101
        assert ai_solar_rows[0].load == 0.0
        assert ai_solar_rows[-1].load == pytest.approx(1.0)

    def test_no_time_constraints_plateau(self, ai_solar_rows):
        base = read_bundled("table1_solar")
        plateau = ideal_reduction(base.hi.op_full_per_node, base.lo.op_full_per_node, 0.0)
        for row in ai_solar_rows:
            if row.load <= 0.5:
                assert row.reductions["no_time_constraints"] == pytest.approx(
                    plateau, abs=1e-12
                )

    def test_no_time_constraints_declines_past_half(self, ai_solar_rows):
        past_half = [r for r in ai_solar_rows if r.load > 0.5]
        values = [r.reductions["no_time_constraints"] for r in past_half]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_variant_ordering(self, ai_solar_rows):
        for row in ai_solar_rows:
            r = row.reductions
            assert r["no_time_constraints"] >= r["zero_embodied"] - 1e-12
            assert r["zero_embodied"] >= r["full"] - 1e-12
            assert r["no_time_constraints"] >= r["zero_idle"] - 1e-12
            assert r["zero_idle"] >= r["full"] - 1e-12

    def test_full_variant_agrees_with_direct_evaluation(self, ai_solar_rows):
        """Sweep points must match blended_emissions with alpha forced to 1."""
        base = read_bundled("table1_solar")
        row = next(r for r in ai_solar_rows if abs(r.load - 0.83) < 1e-9)
        direct = blended_emissions(
            base.hi, base.lo, base.gamma, base.policy.__class__(1.0, base.policy.beta, base.policy.eta)
        )
        assert row.reductions["full"] == pytest.approx(direct.reduction, rel=1e-12)

    def test_scenario_alpha_restored_outside_sweeps(self):
        """The sweep protocol must not leak into single-scenario evaluation."""
        base = read_bundled("table1_solar")
        report = blended_emissions(base.hi, base.lo, base.gamma, base.policy)
        assert base.policy.alpha == 0.2
        assert report.reduction * 100.0 == pytest.approx(4.6, abs=0.3)


class TestArrayKernelGuard:
    """The array kernel and the vectorised sweep against the per-point
    references, compared as IEEE bit patterns."""

    @settings(max_examples=60, deadline=None)
    @given(
        config=configs,
        param=st.sampled_from(["load_both", "load_hi"]),
        start=st.floats(0.0, 1.0) | st.just(0.0),
        span=st.floats(0.0, 1.0),
        step=st.floats(0.005, 0.5),
    )
    @example(config=SATURATING, param="load_hi", start=0.0, span=1.0, step=0.01)
    @example(config=SATURATING, param="load_both", start=0.0, span=1.0, step=0.0004)
    @example(config=ALL_ZERO, param="load_both", start=0.0, span=1.0, step=0.05)
    @example(config=ALL_ZERO, param="load_hi", start=0.0, span=0.5, step=0.1)
    def test_sweep_matches_per_point_reference(self, config, param, start, span, step):
        spec = SweepSpec(
            base=config, swept_parameter=param, start=start,
            stop=min(1.0, start + span), step=step,
        )
        assert bits(spec.grid()) == bits(reference_grid(spec))
        assert sweep_bits(run_sweep(spec), VARIANTS) == sweep_bits(
            reference_sweep(spec), VARIANTS
        )

    @settings(max_examples=60, deadline=None)
    @given(
        config=configs,
        alpha=unit,
        loads=st.lists(st.tuples(unit, unit), min_size=1, max_size=40),
    )
    @example(
        config=SATURATING,
        alpha=1.0,
        loads=[(0.0, 0.1), (0.3, 0.1), (0.36, 0.1), (0.5, 0.1), (0.72, 0.1), (1.0, 1.0)],
    )
    @example(config=ALL_ZERO, alpha=0.5, loads=[(0.0, 0.0), (0.0, 0.5), (0.5, 0.5)])
    def test_kernel_fields_match_scalar(self, config, alpha, loads):
        load_hi = np.array([pair[0] for pair in loads])
        load_lo = np.array([pair[1] for pair in loads])
        for variant in VARIANTS:
            hi, lo, gamma, policy = variant_inputs(
                config.hi, config.lo, config.gamma, replace(config.policy, alpha=alpha), variant
            )
            with np.errstate(all="ignore"):  # Python floats overflow silently too
                array = _emissions(hi, lo, load_hi, load_lo, gamma, policy, where=np.where)
            points = [(replace(hi, load=a), replace(lo, load=b)) for a, b in loads]
            scalar = [blended_emissions(h, l, gamma, policy) for h, l in points]
            reference = [reference_blended(h, l, gamma, policy) for h, l in points]
            for field in dataclasses.fields(EmissionsReport):
                expected = bits([getattr(report, field.name) for report in reference])
                got = np.broadcast_to(getattr(array, field.name), load_hi.shape)
                assert bits(got.tolist()) == expected, (variant, field.name)
                assert bits([getattr(r, field.name) for r in scalar]) == expected, (
                    variant, field.name,
                )

    def test_examples_reach_every_branch(self):
        hi, lo = SATURATING.hi, SATURATING.lo
        bound = blended_emissions(replace(hi, load=0.5), lo, 0.3, ShiftPolicy(1.0, 1.0))
        assert bound.alpha_eff < 1.0
        # the unclamped low-side load overshoots 1 by rounding
        busy, free = hi.site_count * 0.72, lo.site_count * (1.0 - lo.load)
        assert lo.load + free / busy * 0.72 * hi.site_count / lo.site_count > 1.0
        idle = blended_emissions(replace(hi, load=0.0), lo, 0.3, ShiftPolicy(0.7, 1.0))
        assert idle.alpha_eff == 0.7
        zero = replace(
            ALL_ZERO, hi=replace(ALL_ZERO.hi, load=0.0), lo=replace(ALL_ZERO.lo, load=0.0)
        )
        assert math.isnan(blended_emissions(zero.hi, zero.lo, 0.0, zero.policy).reduction)

    def test_sweep_rows_hold_builtin_floats(self):
        rows = run_sweep(SweepSpec(base=read_bundled("table2_s1"), step=0.25))
        assert all(type(row.load) is float for row in rows)
        assert all(type(v) is float for row in rows for v in row.reductions.values())

    def test_scalar_report_holds_builtin_floats(self, scenarios):
        for config in scenarios.values():
            report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
            for field in dataclasses.fields(EmissionsReport):
                assert type(getattr(report, field.name)) is float, field.name


# `gls evaluate <name> --csv --precision full` and the sha256 of
# `gls sweep <name> --param <param>`, as written before sweeps were
# vectorised
EVALUATE_FULL = {
    "table1_solar": "table1_solar,0.2,0.0,469725.76,2560300.27792,2334653.617408,"
    "2442964.01445376,4.5829102343247206",
    "table1_wind": "table1_wind,0.2,0.0,469725.76,2268457.1167999995,2044659.8025280002,"
    "2147606.56709312,5.3274337351088",
    "table2_s1": "table2_s1,0.5,0.0,88.8,1197.25,831.815,831.815,30.522864898726247",
    "table2_s2": "table2_s2,0.24999999999999994,2.8052499999999996,88.8,1053.806,"
    "910.4372500000001,910.4372500000001,13.604852316270726",
    "table2_s3": "table2_s3,0.24999999999999994,1.4026249999999998,88.8,1053.806,"
    "910.4372500000001,982.121625,6.802426158135369",
    "table2_s4": "table2_s4,0.24999999999999994,1.2957499999999997,88.8,534.538,"
    "499.78375000000005,499.78375000000005,6.501736078632378",
    "table2_s5": "table2_s5,0.24999999999999994,0.6478749999999999,88.8,534.538,"
    "499.78375000000005,517.160875,3.2508680393161944",
}
SWEEP_SHA256 = {
    ("table1_solar", "load_both"): "fab23fe6ae21eaba",
    ("table1_solar", "load_hi"): "4c311fe067a36c71",
    ("table1_wind", "load_both"): "30aa99faa1b0d2db",
    ("table1_wind", "load_hi"): "41747a0e196d8532",
    ("table2_s1", "load_both"): "de8832fb92687d35",
    ("table2_s1", "load_hi"): "0aee106868e35d34",
    ("table2_s2", "load_both"): "3bba67dcf0ee5190",
    ("table2_s2", "load_hi"): "adc0c0149d730999",
    ("table2_s3", "load_both"): "7f2359edc2f267a7",
    ("table2_s3", "load_hi"): "c069f50dc9a805d8",
    ("table2_s4", "load_both"): "7f7f72c979ef83db",
    ("table2_s4", "load_hi"): "f509321bab4c89f6",
    ("table2_s5", "load_both"): "b69175a1c86dccbb",
    ("table2_s5", "load_hi"): "0c32e54388f77abf",
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_cli_output_byte_identical(name, capsys):
    assert main(["evaluate", name, "--csv", "--precision", "full"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == EVALUATE_FULL[name]
    for param in ("load_both", "load_hi"):
        assert main(["sweep", name, "--param", param]) == 0
        out = capsys.readouterr().out
        reference = reference_sweep(SweepSpec(base=read_bundled(name), swept_parameter=param))
        lines = ["load," + ",".join(VARIANTS)] + [
            f"{row.load:.6g}," + ",".join(f"{row.reductions[v]:.12g}" for v in VARIANTS)
            for row in reference
        ]
        assert out == "\n".join(lines) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == SWEEP_SHA256[name, param]


class TestGridBound:
    def test_largest_grid_accepted(self):
        spec = SweepSpec(base=read_bundled("table2_s1"), step=1.0 / (MAX_GRID_POINTS - 1))
        assert spec.step > 0.0  # constructed only: the grid itself is not built

    @pytest.mark.parametrize("step", [1e-12, 5e-324, 0.9 / (MAX_GRID_POINTS - 1)])
    def test_larger_grid_rejected_in_one_line(self, step):
        with pytest.raises(ValueError, match="sweep grid exceeds") as info:
            SweepSpec(base=read_bundled("table2_s1"), step=step)
        assert "\n" not in str(info.value)

    def test_nan_step_rejected(self):
        with pytest.raises(ValueError, match="step must be > 0"):
            SweepSpec(base=read_bundled("table2_s1"), step=math.nan)


class TestVariantNames:
    @pytest.mark.parametrize(
        "variants,repeated",
        [
            (("full", "full"), "['full']"),
            (("zero_idle", "full", "zero_idle", "full"), "['full', 'zero_idle']"),
        ],
    )
    def test_repeated_variants_rejected_in_one_line(self, variants, repeated):
        with pytest.raises(ValueError) as info:
            SweepSpec(base=read_bundled("table2_s1"), variants=variants)
        assert str(info.value) == f"repeated variants: {repeated}"


class TestKinkLocation:
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6) | st.sampled_from([0.0, 0.25, 1.0, math.nan]),
            min_size=3,
            max_size=40,
        ),
    )
    @example(values=[0.0, 1.0, 0.0, 1.0, 0.0])  # ties: the first maximum wins
    @example(values=[0.0, math.nan, 0.0, 0.0, 5.0])  # NaN never wins
    @example(values=[0.0, 0.0, KINK_TOL, 0.0])  # at the tolerance: no kink
    def test_matches_per_point_reference(self, values):
        rows = [SweepRow(load=i / 64.0, reductions={"full": v}) for i, v in enumerate(values)]
        assert kink_location(rows, "full") == reference_kink(rows, "full")

    def test_equal_load_sweep_kinks_at_half(self, ai_solar_rows):
        assert kink_location(ai_solar_rows, "no_time_constraints") == pytest.approx(0.5)

    def test_hpc_sweep_kinks_at_free_capacity(self, hpc_s1_rows):
        # cap activates where load_hi reaches 1 - load_lo = 0.5
        assert kink_location(hpc_s1_rows, "full") == pytest.approx(0.5)

    def test_constant_series_has_no_kink(self):
        rows = [SweepRow(load=i / 10.0, reductions={"full": 0.25}) for i in range(11)]
        assert kink_location(rows, "full") is None

    def test_too_few_rows(self):
        rows = [SweepRow(load=0.0, reductions={"full": 0.0})]
        with pytest.raises(ValueError):
            kink_location(rows, "full")


class TestYearsCompensated:
    def test_small_reduction_under_a_year(self):
        assert years_compensated(0.10, 0.27) == pytest.approx(0.44, abs=0.01)
        assert years_compensated(0.10, 0.27) < 1.0

    def test_zero_reduction(self):
        assert years_compensated(0.0, 0.22) == 0.0

    def test_half_reduction(self):
        assert years_compensated(0.50, 0.22) == pytest.approx(
            math.log(2.0) / math.log(1.22), abs=1e-12
        )
        assert years_compensated(0.50, 0.22) == pytest.approx(3.49, abs=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            years_compensated(1.0, 0.22)
        with pytest.raises(ValueError):
            years_compensated(0.5, 0.0)

    @given(
        r_pair=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)),
        g=st.floats(0.01, 1.0),
    )
    def test_strictly_increasing_in_reduction(self, r_pair, g):
        r_low, r_high = sorted(r_pair)
        assert years_compensated(r_low, g) <= years_compensated(r_high, g)
        if r_high - r_low > 1e-12:  # strictness needs a representable gap
            assert years_compensated(r_low, g) < years_compensated(r_high, g)

    @given(
        r=st.floats(0.01, 0.99),
        g_pair=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    )
    def test_strictly_decreasing_in_growth(self, r, g_pair):
        g_low, g_high = sorted(g_pair)
        assert years_compensated(r, g_high) <= years_compensated(r, g_low)
        if g_high - g_low > 1e-12:  # strictness needs a representable gap
            assert years_compensated(r, g_high) < years_compensated(r, g_low)

    @given(r=st.floats(0.0, 0.99), g=st.floats(0.01, 1.0))
    @example(r=1 / 3, g=0.5)  # the product rounds to 1.0, the years to 0.9999999999999996
    def test_under_a_year_criterion(self, r, g):
        years = years_compensated(r, g)
        product = (1.0 + g) * (1.0 - r)
        if abs(product - 1.0) > 1e-12:  # the comparison needs a representable gap
            assert (years < 1.0) == (product > 1.0)
        else:  # a near tie moves the years from 1 by about (product - 1) / log(1 + g)
            assert abs(years - 1.0) <= 2e-12 / math.log1p(g)


class TestCapacityProjection:
    def test_projected_energy(self):
        _, energy = capacity_projection(1100.0, 0.22, 0)
        assert energy == pytest.approx(9636.0)

    def test_zero_growth(self):
        power, _ = capacity_projection(55.0, 0.0, 10)
        assert power == 55.0

    def test_fifteen_year_growth_factor(self):
        power, _ = capacity_projection(1.0, 0.22, 15)
        assert power == pytest.approx(19.8, abs=0.1)

    @pytest.mark.parametrize(
        "base,growth",
        [(math.nan, 0.22), (math.inf, 0.22), (0.0, 0.22), (1.0, -1.0), (1.0, -2.0),
         (1.0, math.nan), (1.0, math.inf)],
    )
    def test_invalid_base_or_growth_rejected(self, base, growth):
        """A growth of -2 gave -1 GW and a NaN base returned (nan, nan)."""
        with pytest.raises(ValueError, match="^need a finite base_power_gw > 0") as info:
            capacity_projection(base, growth, 2)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("base,growth,years", [(1.0, 1e308, 2), (1e308, 1.0, 1)])
    def test_overflowing_projection_rejected(self, base, growth, years):
        """(1 + 1e308) ** 2 raised OverflowError."""
        with pytest.raises(ValueError, match="^projected capacity is too large for a float$"):
            capacity_projection(base, growth, years)

    def test_shrinking_capacity_allowed(self):
        power, _ = capacity_projection(10.0, -0.5, 1)
        assert power == 5.0
