"""Sweep curves, kink detection and growth analysis."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glshift.sweeps
from glshift import (
    EmissionsReport,
    ScenarioConfig,
    ShiftPolicy,
    SiteClass,
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


def kernel_fields(hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy) -> tuple:
    """The kernel's fields after the two loads, as blended_emissions passes them."""
    return (
        hi.site_count, hi.embodied_per_site, hi.op_full_per_site,
        lo.site_count, lo.embodied_per_site, lo.op_full_per_site,
        gamma, policy.alpha, policy.beta, policy.eta,
    )


def reference_reduction(
    hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy, variant: str
) -> float:
    return reference_blended(*variant_inputs(hi, lo, gamma, policy, variant)).reduction


def record_rows(loads: list[float], columns: dict[str, list[float]]) -> np.recarray:
    """A sweep result as run_sweep returns it: rows.load and one
    rows.reductions field per variant."""
    rows = np.recarray(len(loads), [("load", float), ("reductions", [(v, float) for v in columns])])
    rows.load = loads
    for variant, values in columns.items():
        rows.reductions[variant] = values
    return rows


def reference_sweep(spec: SweepSpec) -> np.recarray:
    base = spec.base
    policy = replace(base.policy, alpha=1.0)
    loads = reference_grid(spec)
    columns = {variant: [] for variant in spec.variants}
    for load in loads:
        for variant in spec.variants:
            hi = replace(base.hi, load=load)
            lo = base.lo if spec.swept_parameter == "load_hi" else replace(base.lo, load=load)
            value = reference_reduction(hi, lo, base.gamma, policy, variant)
            if math.isnan(value) and load == 0.0:
                eps = 1e-9
                hi = replace(base.hi, load=eps)
                lo = base.lo if spec.swept_parameter == "load_hi" else replace(base.lo, load=eps)
                value = reference_reduction(hi, lo, base.gamma, policy, variant)
            columns[variant].append(value)
    return record_rows(loads, columns)


def reference_kink(rows: np.recarray, variant: str) -> float | None:
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


def sweep_bits(rows: np.recarray, variants) -> list[bytes]:
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
# as ALL_ZERO but with idle power: at load 0 only the variants that drop
# idle power have a zero baseline
PARTLY_ZERO = replace(ALL_ZERO, gamma=0.3)
# the inputs of one evaluation that the array test may give per point;
# per-node values, which the site classes turn into the kernel's per-site
# fields
PER_POINT = (
    "load_hi", "load_lo", "embodied_hi", "embodied_lo", "op_full_hi", "op_full_lo",
    "gamma", "alpha", "beta", "eta",
)
# the kernel's arguments, named as in PER_POINT where they match
KERNEL_ARGS = (
    "load_hi", "load_lo", "sites_hi", "embodied_hi", "op_full_hi",
    "sites_lo", "embodied_lo", "op_full_lo", "gamma", "alpha", "beta", "eta",
)


def point_inputs(config: ScenarioConfig, point: tuple, arrayed: set[str]):
    """(hi, lo, gamma, policy) of one point: its own value for each
    arrayed input, the config's for the others."""
    own = dict(zip(PER_POINT, point))

    def pick(name: str, default: float) -> float:
        return own[name] if name in arrayed else default

    hi, lo, policy = config.hi, config.lo, config.policy
    return (
        replace(
            hi, load=pick("load_hi", hi.load),
            embodied_per_node=pick("embodied_hi", hi.embodied_per_node),
            op_full_per_node=pick("op_full_hi", hi.op_full_per_node),
        ),
        replace(
            lo, load=pick("load_lo", lo.load),
            embodied_per_node=pick("embodied_lo", lo.embodied_per_node),
            op_full_per_node=pick("op_full_lo", lo.op_full_per_node),
        ),
        pick("gamma", config.gamma),
        ShiftPolicy(pick("alpha", policy.alpha), pick("beta", policy.beta), pick("eta", policy.eta)),
    )


# default-grid loads where criterion 6's variant order fails: eta = 0.01
# in these scenarios, and below the break-even load the overhead exceeds
# the saving, so a variant with a smaller baseline divides the same loss
# by less; in the eta = 0 scenarios the order holds everywhere
UNORDERED = {
    "table2_s2": [0.0, 0.01],
    "table2_s3": [0.0, 0.01],
    "table2_s4": [0.0, 0.01, 0.02],
    "table2_s5": [0.0, 0.01, 0.02],
}


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

    @pytest.mark.parametrize("param", ["load_both", "load_hi"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_variant_ordering(self, name, param):
        """Criterion 6's order no_time_constraints >= zero_embodied >= full,
        and the same through zero_idle, holds at every default grid point
        of an eta = 0 scenario and fails exactly at the lowest loads of an
        eta > 0 one."""
        rows = run_sweep(SweepSpec(base=read_bundled(name), swept_parameter=param))
        r = rows.reductions
        ordered = (
            (r["no_time_constraints"] >= r["zero_embodied"] - 1e-12)
            & (r["zero_embodied"] >= r["full"] - 1e-12)
            & (r["no_time_constraints"] >= r["zero_idle"] - 1e-12)
            & (r["zero_idle"] >= r["full"] - 1e-12)
        )
        assert rows.load[~ordered].tolist() == pytest.approx(UNORDERED.get(name, []), abs=1e-12)

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
                array = _emissions(load_hi, load_lo, *kernel_fields(hi, lo, gamma, policy))
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

    @settings(max_examples=60, deadline=None)
    @given(
        config=configs,
        points=st.lists(
            st.tuples(
                unit, unit, per_node, per_node, per_node, per_node, unit, unit, unit,
                st.floats(0.0, 0.99) | st.just(0.0),
            ),
            min_size=1,
            max_size=30,
        ),
        arrayed=st.sets(st.sampled_from(PER_POINT)),
    )
    @example(  # only the point without idle power has a zero baseline
        config=PARTLY_ZERO,
        points=[(0.0, 0.0, 0.0, 0.0, 1000.0, 0.0, g, 1.0, 0.5, 0.0) for g in (0.3, 0.0)],
        arrayed={"load_hi", "load_lo", "gamma"},
    )
    @example(
        config=SATURATING,
        points=[
            (0.5, 0.1, 444.0, 0.0, 18_978.0, 1896.0, 0.3, 1.0, 0.52, 0.0),
            (0.72, 0.1, 0.0, 444.0, 1896.0, 18_978.0, 0.0, 0.6, 1.0, 0.05),
            (0.0, 1.0, 444.0, 444.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5),
        ],
        arrayed=set(PER_POINT),
    )
    def test_kernel_array_fields_match_per_point(self, config, points, arrayed):
        """Any kernel field as an array, the rest scalars: each element is
        the per-point blended_emissions, bit for bit."""
        inputs = [point_inputs(config, point, arrayed) for point in points]
        columns = zip(
            *[(hi.load, lo.load, *kernel_fields(hi, lo, g, p)) for hi, lo, g, p in inputs]
        )
        fields = [
            np.array(column) if name in arrayed else column[0]
            for name, column in zip(KERNEL_ARGS, columns)
        ]
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            array = _emissions(*fields)
        scalar = [blended_emissions(*args) for args in inputs]
        for field in dataclasses.fields(EmissionsReport):
            got = np.broadcast_to(getattr(array, field.name), (len(points),))
            expected = bits([getattr(report, field.name) for report in scalar])
            assert bits(got.tolist()) == expected, field.name

    @settings(max_examples=60, deadline=None)
    @given(config=configs, alpha=unit)
    @example(config=SATURATING, alpha=1.0)
    @example(config=ALL_ZERO, alpha=0.5)
    def test_kernel_numpy_scalars_stay_scalars(self, config, alpha):
        """numpy scalar fields take the scalar branches: no report field is
        a 0-d array, and each has the bits of the float inputs' field."""
        hi, lo = config.hi, config.lo
        policy = replace(config.policy, alpha=alpha)
        fields = (hi.load, lo.load, *kernel_fields(hi, lo, config.gamma, policy))
        expected = _emissions(*fields)
        with np.errstate(all="ignore"):  # Python floats overflow silently too
            got = _emissions(*map(np.float64, fields))
        for field in dataclasses.fields(EmissionsReport):
            value = getattr(got, field.name)
            assert not isinstance(value, np.ndarray), field.name
            assert bits([value]) == bits([getattr(expected, field.name)]), field.name

    @pytest.mark.parametrize(
        "config,param,nans",
        [
            (PARTLY_ZERO, "load_both", 2),
            (PARTLY_ZERO, "load_hi", 2),
            (SATURATING, "load_both", 1),
            (SATURATING, "load_hi", 0),
        ],
    )
    def test_one_kernel_call_per_block_for_all_variants(self, monkeypatch, config, param, nans):
        """3 blocks of grid points, plus one retry call where some variants
        are NaN at load 0; the retry fills only those."""
        spec = SweepSpec(base=config, swept_parameter=param, step=0.0004)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return _emissions(*args, **kwargs)

        monkeypatch.setattr(glshift.sweeps, "_emissions", counting)
        rows = run_sweep(spec)
        assert len(calls) == 3 + (nans > 0)
        assert sweep_bits(rows, VARIANTS) == sweep_bits(reference_sweep(spec), VARIANTS)
        lo = config.lo if param == "load_hi" else replace(config.lo, load=0.0)
        policy = replace(config.policy, alpha=1.0)
        at_zero = [
            reference_reduction(replace(config.hi, load=0.0), lo, config.gamma, policy, v)
            for v in VARIANTS
        ]
        assert sum(map(math.isnan, at_zero)) == nans

    def test_no_variants(self):
        rows = run_sweep(SweepSpec(base=SATURATING, step=0.5, variants=()))
        assert rows.tolist() == [(0.0, ()), (0.5, ()), (1.0, ())]

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

    def test_sweep_rows_hold_float64(self):
        rows = run_sweep(SweepSpec(base=read_bundled("table2_s1"), step=0.25))
        assert rows.dtype["load"] == np.float64
        assert [rows.dtype["reductions"][v] for v in VARIANTS] == [np.float64] * len(VARIANTS)

    def test_sweep_peak_memory(self):
        """100,001 points x 4 variants: the result itself is 4.0 MB
        (5 float64 fields per point), the grid 0.8 MB; nothing may be
        held per point beyond that."""
        spec = SweepSpec(base=read_bundled("table2_s3"), step=1e-5)
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 100_001
        assert peak < 8_000_000

    def test_scalar_report_holds_builtin_floats(self, scenarios):
        for config in scenarios.values():
            report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
            for field in dataclasses.fields(EmissionsReport):
                assert type(getattr(report, field.name)) is float, field.name


# `gls evaluate <name> --csv --precision full` and the sha256 of
# `gls sweep <name> --param <param>`, as written before sweeps were
# vectorised; the sha256 of `gls evaluate <name>` and of `--csv`, as
# written before the table and both CSV forms read one results list
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
EVALUATE_SHA256 = {  # name: (table, rounded CSV)
    "table1_solar": ("53e2f521e0e8f956", "6a1f2bb6a7daf0f8"),
    "table1_wind": ("2bf75cc60b35b1f8", "9979cb397f934939"),
    "table2_s1": ("810d71e2cf8972e1", "b440cde99b09b251"),
    "table2_s2": ("682b459b344a70fb", "7067d12bb7c4203a"),
    "table2_s3": ("5abae587335aa4b7", "c0d38230a47e59f7"),
    "table2_s4": ("748c9b09cf1c5991", "f4166bb276da2903"),
    "table2_s5": ("ce36ab7d3a750de1", "a4fbd6ce47d9be32"),
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
    for extra, expected in zip(([], ["--csv"]), EVALUATE_SHA256[name]):
        assert main(["evaluate", name, *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == expected
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
    @pytest.mark.parametrize(
        "step,grid",
        [
            (0.3, [0.0, 0.3, 0.6, 0.8999999999999999]),  # stop is dropped
            (0.6, [0.0, 0.6, 1.0]),  # an uneven last interval
            (0.4, [0.0, 0.4, 0.8]),  # 2.5 intervals round to 2 (ties to even)
        ],
    )
    def test_grid_rule(self, step, grid):
        assert SweepSpec(base=read_bundled("table2_s1"), step=step).grid().tolist() == grid

    def test_largest_grid_accepted(self):
        spec = SweepSpec(base=read_bundled("table2_s1"), step=1.0 / (MAX_GRID_POINTS - 1))
        assert spec.step > 0.0  # constructed only: the grid itself is not built

    def test_largest_grid_from_a_later_start_accepted(self):
        """The cap counts the intervals of stop - start, not of stop + start."""
        spec = SweepSpec(base=read_bundled("table2_s1"), start=0.5, stop=1.0, step=5e-7)
        assert spec.step > 0.0  # constructed only: 1,000,000 intervals

    # 1,000,000.7 intervals pass the first comparison and round to 1,000,001
    @pytest.mark.parametrize(
        "step", [1e-12, 5e-324, 0.9 / (MAX_GRID_POINTS - 1), 1 / 1_000_000.7]
    )
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


    def test_unknown_variants_rejected(self):
        with pytest.raises(ValueError) as info:
            SweepSpec(base=read_bundled("table2_s1"), variants=("full", "bogus", "other"))
        assert str(info.value) == "unknown variants: ['bogus', 'other']"


@pytest.mark.parametrize("start,stop", [(-0.1, 1.0), (0.0, 1.1), (0.6, 0.5)])
def test_range_outside_unit_interval_rejected(start, stop):
    with pytest.raises(ValueError) as info:
        SweepSpec(base=read_bundled("table2_s1"), start=start, stop=stop)
    assert str(info.value) == "need 0 <= start <= stop <= 1"


def test_unknown_swept_parameter_rejected():
    with pytest.raises(ValueError) as info:
        SweepSpec(base=read_bundled("table2_s1"), swept_parameter="load_lo")
    assert str(info.value) == "swept_parameter must be one of ('load_both', 'load_hi')"


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
        rows = record_rows([i / 64.0 for i in range(len(values))], {"full": values})
        assert kink_location(rows, "full") == reference_kink(rows, "full")

    def test_equal_load_sweep_kinks_at_half(self, ai_solar_rows):
        assert kink_location(ai_solar_rows, "no_time_constraints") == pytest.approx(0.5)

    def test_hpc_sweep_kinks_at_free_capacity(self, hpc_s1_rows):
        # cap activates where load_hi reaches 1 - load_lo = 0.5
        assert kink_location(hpc_s1_rows, "full") == pytest.approx(0.5)

    def test_constant_series_has_no_kink(self):
        rows = record_rows([i / 10.0 for i in range(11)], {"full": [0.25] * 11})
        assert kink_location(rows, "full") is None

    def test_too_few_rows(self):
        rows = record_rows([0.0], {"full": [0.0]})
        with pytest.raises(ValueError):
            kink_location(rows, "full")

    def test_unknown_variant_rejected(self, ai_solar_rows):
        with pytest.raises(ValueError, match="bogus"):
            kink_location(ai_solar_rows, "bogus")


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

    def test_negative_reduction_rejected(self):
        with pytest.raises(ValueError) as info:
            years_compensated(-0.1, 0.22)
        assert str(info.value) == "reduction must be in [0,1)"

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

    def test_negative_years_rejected(self):
        with pytest.raises(ValueError, match="^need a finite base_power_gw > 0.* and years >= 0$"):
            capacity_projection(1.0, 0.22, -1)

    @pytest.mark.parametrize(
        "base,growth,years", [(1.0, 1e308, 2), (1e308, 1.0, 1), (1e308, 0.0, 0)]
    )
    def test_overflowing_projection_rejected(self, base, growth, years):
        """(1 + 1e308) ** 2 raised OverflowError; 1e308 GW is finite, its TWh are not."""
        with pytest.raises(ValueError, match="^projected capacity is too large for a float$"):
            capacity_projection(base, growth, years)

    def test_shrinking_capacity_allowed(self):
        power, _ = capacity_projection(10.0, -0.5, 1)
        assert power == 5.0
