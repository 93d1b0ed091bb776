"""Time-stepped validation of the closed-form averaging argument.

A step's total is the model's operational term for one site, model._op,
at the step's load and full-load emission rate, plus a constant embodied
term.  It is affine in each of the two, so with independent load and
rate traces the year total equals that term at the trace means.  This
module draws seeded traces, integrates them step by step and compares
with that closed form, including a deliberately correlated control.

Trace generation uses numpy's default_rng (PCG64) seeded with a 64-bit
integer, so identical specs give bit-identical totals.  The traces are
made and reduced in blocks of BLOCK_STEPS steps, so memory is bounded by
one block whatever the length.  The steps are those of one whole-array
draw: all the loads from default_rng(seed), then all the rates.  The
load blocks come from one generator; the rate blocks come from a second
generator on the same seed whose stream is advanced by `steps` outputs
(PCG64 spends one output per double), to where the loads end.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import _op, check_gamma

# numpy is imported inside the functions that make arrays, so that
# `gls evaluate` and `gls growth` never pay for loading it
if TYPE_CHECKING:
    import numpy as np

MAX_TRACE_STEPS = 31_536_000  # one year at one-second resolution
BLOCK_STEPS = 1 << 16  # 512 KiB per array: a block's passes stay in cache


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [low, high]."""

    low: float
    high: float

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class TraceSpec:
    """A seeded pair of uniform load and emission-rate traces.

    ci_dist draws the full-load operational emission rate (kg/y per
    site-group, any fixed unit), within [0, inf); load_dist draws the
    load, within [0,1].  The two traces are drawn independently unless
    correlated is set, in which case the load trace is an affine image
    of the rate trace onto the load range (negative control: the closed
    form is then biased by the covariance).
    """

    steps: int
    seed: int
    load_dist: Uniform
    ci_dist: Uniform
    correlated: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.load_dist.low <= self.load_dist.high <= 1.0:
            raise ValueError("load bounds must satisfy 0 <= min <= max <= 1")
        if not 0.0 <= self.ci_dist.low <= self.ci_dist.high < math.inf:
            raise ValueError("rate bounds must satisfy 0 <= min <= max < inf")
        # ints and numpy integers have __index__; floats and strings do not
        if not hasattr(self.steps, "__index__"):
            raise ValueError("steps must be an integer")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps > MAX_TRACE_STEPS:
            raise ValueError(f"steps must be <= {MAX_TRACE_STEPS:,}")
        if not (hasattr(self.seed, "__index__") and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The load and rate traces, BLOCK_STEPS steps at a time.

        Every block's arrays are fresh: callers may overwrite them.
        """
        import numpy as np

        load_rng = np.random.default_rng(self.seed)
        rate_rng = np.random.default_rng(self.seed)
        rate_rng.bit_generator.advance(int(self.steps))  # numpy integers overflow here
        load, rate = self.load_dist, self.ci_dist
        span = rate.high - rate.low
        for start in range(0, self.steps, BLOCK_STEPS):
            size = min(BLOCK_STEPS, self.steps - start)
            cis = rate_rng.uniform(rate.low, rate.high, size)
            if self.correlated:
                # map the rate trace affinely onto the load distribution's range
                unit = (cis - rate.low) / span if span > 0.0 else np.zeros_like(cis)
                loads = load.low + unit * (load.high - load.low)
            else:
                loads = load_rng.uniform(load.low, load.high, size)
            yield loads, cis


@dataclass(frozen=True)
class TraceComparison:
    """Trace total versus the closed form, with the covariance breakdown.

    trace_total is the time-integrated annual total, kg/y: each step
    carries an equal share of the year, and the embodied term is
    constant in time.  closed_form_total and sample_mean_total are the
    step total at the distribution means and at the realised sample
    means; the latter's gap to trace_total is exactly (1-gamma) times
    the sample covariance of load and rate.  z_score measures the gap
    between the trace total and the closed form at the distribution
    means, in units of the trace total's standard error.  A constant
    trace gives exactly the closed form, zero covariance and no spread.
    """

    trace_total: float
    closed_form_total: float
    sample_mean_total: float
    z_score: float
    sample_covariance: float


def compare_with_means(spec: TraceSpec, gamma: float, embodied: float) -> TraceComparison:
    """Compare the time-stepped total against closed-form evaluations."""
    check_gamma(gamma)
    if not 0.0 <= embodied < math.inf:
        raise ValueError("embodied must be >= 0 and finite")
    import numpy as np

    def total(load, rate):
        return _op(1.0, rate, load, gamma) + embodied

    # every running sum is of deviations from the trace's first step: of
    # the loads, the rates, their product, the totals and squared totals
    load0 = None
    load_sum = ci_sum = product_sum = deviation_sum = square_sum = 0.0
    # overflow is reported below as one error, not as numpy warnings or
    # an OverflowError: the running sums are floats that go to inf
    with np.errstate(over="ignore", invalid="ignore"):
        for loads, cis in spec.blocks():
            totals = total(loads, cis)  # before the loads and rates are shifted
            if load0 is None:
                load0, ci0, total0 = float(loads[0]), float(cis[0]), float(totals[0])
            loads -= load0
            cis -= ci0
            totals -= total0
            load_sum += float(np.sum(loads))
            ci_sum += float(np.sum(cis))
            # no np.dot: a threaded BLAS stalled cold runs by 10-30 ms
            product_sum += float(np.sum(np.multiply(loads, cis, out=loads)))
            deviation_sum += float(np.sum(totals))
            square_sum += float(np.sum(np.square(totals, out=totals)))
    steps = spec.steps
    load_delta, ci_delta = load_sum / steps, ci_sum / steps
    trace_total = total0 + deviation_sum / steps
    closed = total(spec.load_dist.mean, spec.ci_dist.mean)
    sample_mean = total(load0 + load_delta, ci0 + ci_delta)
    # clamped: rounding must not leave a negative spread for sqrt
    m2 = max(square_sum - deviation_sum * deviation_sum / steps, 0.0)
    stderr = math.sqrt(m2 / (steps - 1)) / math.sqrt(steps) if steps > 1 else 0.0
    cov = product_sum / steps - load_delta * ci_delta
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
