"""Time-stepped validation of the closed-form averaging argument.

The per-site operational emissions are affine in load and carbon
intensity: rate = (1-gamma)*load*ci + gamma*ci (+ constant embodied
term).  When load and CI traces are independent, the year total equals
the closed form evaluated at the trace means.  This module generates
seeded traces, integrates them step by step and compares against that
closed form, including a deliberately correlated negative control.

Trace generation uses numpy's default_rng (PCG64) seeded with a 64-bit
integer, so identical specs give bit-identical totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("need low <= high")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class TwoPoint:
    """Distribution taking value_a with probability prob_a, else value_b."""

    value_a: float
    value_b: float
    prob_a: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob_a <= 1.0):
            raise ValueError("prob_a must be in [0,1]")

    @property
    def mean(self) -> float:
        return self.prob_a * self.value_a + (1.0 - self.prob_a) * self.value_b

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        picks = rng.random(n) < self.prob_a
        return np.where(picks, self.value_a, self.value_b)


Distribution = Uniform | TwoPoint


@dataclass(frozen=True)
class TraceSpec:
    """A seeded pair of load and emission-rate traces.

    ci_dist draws the full-load operational emission rate (kg/y per
    site-group, any fixed unit); load_dist draws the load in [0,1].  The
    two traces are drawn independently unless correlated is set, in
    which case the load trace is an affine image of the rate trace onto
    the load range (negative control: the closed form is then biased by
    the covariance); both distributions must then be Uniform.
    """

    steps: int
    seed: int
    load_dist: Distribution
    ci_dist: Distribution
    correlated: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.correlated and not (
            isinstance(self.ci_dist, Uniform) and isinstance(self.load_dist, Uniform)
        ):
            raise ValueError("correlated traces need a Uniform load_dist and ci_dist")

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        loads = self.load_dist.sample(rng, self.steps)
        cis = self.ci_dist.sample(rng, self.steps)
        if self.correlated:
            # map the rate trace affinely onto the load distribution's range
            lo, hi = self.ci_dist.low, self.ci_dist.high
            span = hi - lo
            unit = (cis - lo) / span if span > 0.0 else np.zeros_like(cis)
            loads = self.load_dist.low + unit * (self.load_dist.high - self.load_dist.low)
        return loads, cis


def closed_form_total(load_mean, ci_mean, gamma: float, embodied: float):
    """Annual total from the affine model at mean load and mean rate.

    Elementwise over numpy arrays of loads and rates, it is the per-step
    rate of a trace.
    """
    a, b = 1.0 - gamma, gamma
    return a * load_mean * ci_mean + b * ci_mean + embodied


@dataclass(frozen=True)
class TraceComparison:
    """Trace total versus the closed form, with the covariance breakdown.

    trace_total is the time-integrated annual total, kg/y: each step
    carries an equal share of the year, and the embodied term is
    constant in time.  sample_mean_total plugs the realised sample means
    into the closed form; its gap to trace_total is exactly (1-gamma)
    times the sample covariance of load and rate.  z_score measures the
    gap between the trace total and the closed form at the distribution
    means, in units of the trace total's standard error.
    """

    trace_total: float
    closed_form_total: float
    sample_mean_total: float
    z_score: float
    sample_covariance: float

    @property
    def sample_mean_delta(self) -> float:
        return self.trace_total - self.sample_mean_total


def compare_with_means(spec: TraceSpec, gamma: float, embodied: float) -> TraceComparison:
    """Compare the time-stepped total against closed-form evaluations."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0,1]")
    if not 0.0 <= embodied < math.inf:
        raise ValueError("embodied must be >= 0 and finite")
    loads, cis = spec.draw()
    # overflow is reported below as one error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rates = closed_form_total(loads, cis, gamma, embodied)
        trace_total = float(np.mean(rates))
        closed = closed_form_total(spec.load_dist.mean, spec.ci_dist.mean, gamma, embodied)
        sample_mean = closed_form_total(
            float(np.mean(loads)), float(np.mean(cis)), gamma, embodied
        )
        if spec.steps > 1:
            stderr = float(np.std(rates, ddof=1)) / math.sqrt(spec.steps)
        else:
            stderr = 0.0
        cov = float(np.mean(loads * cis) - np.mean(loads) * np.mean(cis))
    if not all(map(math.isfinite, (trace_total, closed, sample_mean, stderr, cov))):
        raise ValueError("trace totals are too large for a float")
    z = (trace_total - closed) / stderr if stderr > 0.0 else 0.0
    return TraceComparison(
        trace_total=trace_total,
        closed_form_total=closed,
        sample_mean_total=sample_mean,
        z_score=z,
        sample_covariance=cov,
    )
