"""Trace-vs-closed-form validation of the averaging argument."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glshift import TraceSpec, Uniform, compare_with_means
from glshift.trace import BLOCK_STEPS, MAX_TRACE_STEPS, closed_form_total

DEFAULT_LOAD = Uniform(0.6, 1.0)
DEFAULT_CI = Uniform(300.0, 500.0)


def spec(steps: int = 100_000, seed: int = 42, correlated: bool = False) -> TraceSpec:
    return TraceSpec(
        steps=steps,
        seed=seed,
        load_dist=DEFAULT_LOAD,
        ci_dist=DEFAULT_CI,
        correlated=correlated,
    )


# ------------------------------------------------------------ references
# The whole-array draw and statistics that the block engine replaced, kept
# as references: the blocks must reproduce the draw bit for bit, and the
# streamed statistics the whole-array formulas within rounding.


def reference_draw(spec: TraceSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    loads = rng.uniform(spec.load_dist.low, spec.load_dist.high, spec.steps)
    cis = rng.uniform(spec.ci_dist.low, spec.ci_dist.high, spec.steps)
    if spec.correlated:
        lo, hi = spec.ci_dist.low, spec.ci_dist.high
        span = hi - lo
        unit = (cis - lo) / span if span > 0.0 else np.zeros_like(cis)
        loads = spec.load_dist.low + unit * (spec.load_dist.high - spec.load_dist.low)
    return loads, cis


def reference_comparison(spec: TraceSpec, gamma: float, embodied: float) -> dict[str, float]:
    loads, cis = reference_draw(spec)
    rates = closed_form_total(loads, cis, gamma, embodied)
    trace_total = float(np.mean(rates))
    closed = closed_form_total(spec.load_dist.mean, spec.ci_dist.mean, gamma, embodied)
    stderr = float(np.std(rates, ddof=1)) / math.sqrt(spec.steps) if spec.steps > 1 else 0.0
    return {
        "trace_total": trace_total,
        "closed_form_total": closed,
        "sample_mean_total": closed_form_total(
            float(np.mean(loads)), float(np.mean(cis)), gamma, embodied
        ),
        "z_score": (trace_total - closed) / stderr if stderr > 0.0 else 0.0,
        "sample_covariance": float(np.mean(loads * cis) - np.mean(loads) * np.mean(cis)),
    }


BLOCK_EDGES = [1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3]


class TestBlocks:
    """The block generator reproduces the whole-array draw bit for bit."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @pytest.mark.parametrize("steps", BLOCK_EDGES)
    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize(
        "load_dist,ci_dist",
        [
            (DEFAULT_LOAD, DEFAULT_CI),
            (Uniform(0.7, 0.7), DEFAULT_CI),
            (DEFAULT_LOAD, Uniform(400.0, 400.0)),
        ],
        ids=["wide", "zero_width_load", "zero_width_rate"],
    )
    def test_blocks_match_whole_array_draw(self, seed, steps, correlated, load_dist, ci_dist):
        trace = TraceSpec(steps, seed, load_dist, ci_dist, correlated)
        blocks = list(trace.blocks())
        assert [len(loads) for loads, _ in blocks] == [
            min(BLOCK_STEPS, steps - start) for start in range(0, steps, BLOCK_STEPS)
        ]
        expected_loads, expected_cis = reference_draw(trace)
        loads = np.concatenate([block[0] for block in blocks])
        cis = np.concatenate([block[1] for block in blocks])
        assert loads.tobytes() == expected_loads.tobytes()
        assert cis.tobytes() == expected_cis.tobytes()


class TestStreamedStatistics:
    """compare_with_means against the whole-array formulas it replaced."""

    @staticmethod
    def assert_matches_reference(trace: TraceSpec) -> None:
        result = compare_with_means(trace, 0.3, 444.0)
        expected = reference_comparison(trace, 0.3, 444.0)
        assert result.closed_form_total == expected["closed_form_total"]
        for field in ("trace_total", "sample_mean_total"):
            assert getattr(result, field) == pytest.approx(expected[field], rel=1e-12, abs=0.0)
        assert result.z_score == pytest.approx(expected["z_score"], rel=1e-9, abs=1e-9)
        # both covariances cancel terms of about mean(load) * mean(rate),
        # and round at that scale (1.5e-16 of it at 1e12)
        rounding = 1e-15 * trace.load_dist.mean * trace.ci_dist.mean
        assert result.sample_covariance == pytest.approx(
            expected["sample_covariance"], rel=1e-9, abs=max(1e-9, rounding)
        )

    @pytest.mark.parametrize("steps", [2, BLOCK_STEPS - 1, BLOCK_STEPS + 1, 3 * BLOCK_STEPS + 5])
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    @pytest.mark.parametrize("correlated", [False, True])
    def test_matches_whole_array_formulas(self, steps, seed, correlated):
        self.assert_matches_reference(spec(steps=steps, seed=seed, correlated=correlated))

    @pytest.mark.parametrize("steps", [2, BLOCK_STEPS - 1, BLOCK_STEPS + 1, 3 * BLOCK_STEPS + 5])
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize(
        # the spread is tiny next to the rates, so the shifted sums must not
        # lose it to cancellation
        "ci_dist",
        [Uniform(1e6, 1e6 + 1.0), Uniform(1e12, 1e12 + 1e3)],
        ids=["narrow_1e6", "narrow_1e12"],
    )
    def test_narrow_rates_far_from_zero(self, steps, seed, correlated, ci_dist):
        self.assert_matches_reference(TraceSpec(steps, seed, DEFAULT_LOAD, ci_dist, correlated))

    @pytest.mark.parametrize("steps", [3, 1000, BLOCK_STEPS + 1, 200_003])
    @pytest.mark.parametrize(
        "load,rate", [(0.8, 350.0), (0.3, 0.1), (1.0, 7.77), (0.123, 123.456), (0.5, 1e200)]
    )
    def test_constant_trace_has_no_spread(self, steps, load, rate):
        """The rounding of the total is no evidence against the closed form."""
        constant = TraceSpec(steps, 1, Uniform(load, load), Uniform(rate, rate))
        result = compare_with_means(constant, 0.3, 444.0)
        assert result.z_score == 0.0
        assert result.trace_total == pytest.approx(result.closed_form_total, rel=1e-12)

    def test_overflow_over_several_blocks_is_one_error(self):
        huge = TraceSpec(3 * BLOCK_STEPS + 1, 1, DEFAULT_LOAD, Uniform(0.0, 1e300))
        with pytest.raises(ValueError) as info:
            compare_with_means(huge, 0.3, 444.0)
        assert type(info.value) is ValueError
        assert str(info.value) == "trace totals are too large for a float"

    def test_memory_bounded_by_one_block(self):
        def peak(steps: int) -> int:
            tracemalloc.start()
            try:
                compare_with_means(spec(steps=steps), 0.3, 444.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1_000)  # lazy imports and numpy's first allocations
        short, long = peak(200_000), peak(4_000_000)
        assert long <= 2 * short
        assert long < 16 * 2**20


class TestDistributions:
    def test_uniform_mean(self):
        assert Uniform(300.0, 500.0).mean == 400.0


class TestEvaluateTrace:
    def test_constant_traces_match_closed_form(self):
        constant = TraceSpec(
            steps=1000, seed=1, load_dist=Uniform(0.8, 0.8), ci_dist=Uniform(350.0, 350.0)
        )
        total = compare_with_means(constant, 0.3, 444.0).trace_total
        assert total == pytest.approx(closed_form_total(0.8, 350.0, 0.3, 444.0), rel=1e-12)

    def test_single_step(self):
        single = spec(steps=1)
        loads, cis = next(single.blocks())
        expected = closed_form_total(float(loads[0]), float(cis[0]), 0.3, 444.0)
        total = compare_with_means(single, 0.3, 444.0).trace_total
        assert total == pytest.approx(expected, rel=1e-12)

    def test_large_trace_within_three_standard_errors(self):
        result = compare_with_means(spec(steps=1_000_000), 0.3, 444.0)
        assert abs(result.z_score) <= 3.0

    def test_deterministic_for_fixed_seed(self):
        a = compare_with_means(spec(), 0.3, 444.0).trace_total
        b = compare_with_means(spec(), 0.3, 444.0).trace_total
        assert a == b

    def test_different_seeds_differ(self):
        assert (
            compare_with_means(spec(seed=1), 0.3, 444.0).trace_total
            != compare_with_means(spec(seed=2), 0.3, 444.0).trace_total
        )


class TestCompareWithMeans:
    def test_covariance_identity(self):
        """trace_total - sample_mean_total is exactly (1-gamma)*cov(load, rate)."""
        for seed in range(10):
            result = compare_with_means(spec(seed=seed, steps=10_000), 0.3, 444.0)
            expected_gap = (1.0 - 0.3) * result.sample_covariance
            assert result.sample_mean_delta == pytest.approx(
                expected_gap, rel=1e-9, abs=1e-9
            )

    def test_gap_shrinks_like_inverse_sqrt_steps(self):
        """RMS of the sample-mean gap scales ~ steps^-0.5 (slope within 0.15)."""
        sizes = [1_000, 10_000, 100_000]
        rms = []
        for steps in sizes:
            gaps = [
                compare_with_means(spec(steps=steps, seed=seed), 0.3, 444.0).sample_mean_delta
                for seed in range(64)
            ]
            rms.append(math.sqrt(sum(g * g for g in gaps) / len(gaps)))
        slope = np.polyfit(np.log10(sizes), np.log10(rms), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_correlated_negative_control(self):
        result = compare_with_means(spec(steps=100_000, correlated=True), 0.3, 444.0)
        assert result.z_score > 3.0

    def test_gamma_one_removes_load_dependence(self):
        result = compare_with_means(spec(steps=10_000), 1.0, 444.0)
        assert result.trace_total == pytest.approx(result.sample_mean_total, rel=1e-9)

    def test_golden_seed_42(self):
        """Frozen totals for the documented default generator (PCG64)."""
        result = compare_with_means(spec(), 0.3, 444.0)
        assert result.trace_total == pytest.approx(787.976183876309, rel=1e-12)
        assert result.closed_form_total == 788.0
        assert result.sample_mean_total == pytest.approx(787.9555611316018, rel=1e-12)
        assert result.z_score == pytest.approx(-0.1265170929636193, rel=1e-9)


class TestStepsCap:
    """Specs are constructed only: no trace near the cap is ever drawn."""

    def test_cap_covers_the_benchmark_trace(self):
        assert MAX_TRACE_STEPS >= 17_000_000

    def test_largest_trace_accepted(self):
        assert spec(steps=MAX_TRACE_STEPS).steps == MAX_TRACE_STEPS

    @pytest.mark.parametrize("steps", [MAX_TRACE_STEPS + 1, 10**15, 10**400])
    def test_longer_trace_rejected_in_one_line(self, steps):
        with pytest.raises(ValueError, match="steps must be <=") as info:
            spec(steps=steps)
        assert "\n" not in str(info.value)


class TestRangeRules:
    """TraceSpec holds the oracle's range rules, so API callers get them too."""

    @pytest.mark.parametrize(
        "low,high", [(-0.1, 1.0), (0.0, 1.5), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_load_bound_outside_unit_interval_rejected(self, low, high):
        with pytest.raises(ValueError, match="load bounds must satisfy") as info:
            TraceSpec(steps=10, seed=1, load_dist=Uniform(low, high), ci_dist=DEFAULT_CI)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "low,high", [(-1.0, 500.0), (300.0, math.inf), (math.nan, 500.0), (300.0, math.nan)]
    )
    def test_rate_bound_negative_or_not_finite_rejected(self, low, high):
        with pytest.raises(ValueError, match="rate bounds must satisfy") as info:
            TraceSpec(steps=10, seed=1, load_dist=DEFAULT_LOAD, ci_dist=Uniform(low, high))
        assert "\n" not in str(info.value)
