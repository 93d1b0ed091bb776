"""Trace-vs-closed-form validation of the averaging argument."""

from __future__ import annotations

import math

import numpy as np
import pytest

from glshift import TraceSpec, Uniform, compare_with_means
from glshift.trace import MAX_TRACE_STEPS, closed_form_total

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
        loads, cis = single.draw()
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
