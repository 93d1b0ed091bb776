"""Parameter sweeps and growth analyses over the emissions model.

Sweeps evaluate reduction-vs-load curves with variant toggles that
isolate the contribution of idle power, embodied carbon and time
constraints.  During a sweep the whole movable fraction is shifted
(alpha forced to 1); single-scenario evaluation keeps the scenario's
own alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .model import _emissions, _where
from .scenario import ScenarioConfig

# numpy is imported inside the functions that make arrays, so that
# `gls evaluate` and `gls growth` never pay for loading it
if TYPE_CHECKING:
    import numpy as np

VARIANTS = ("full", "zero_idle", "zero_embodied", "no_time_constraints")
SWEEP_PARAMETERS = ("load_both", "load_hi")
MAX_GRID_POINTS = 1_000_001  # a 1e-6 step over [0,1]
KINK_TOL = 1e-9  # second differences at or below this are no kink

# grid points per kernel call: bounds the kernel's temporary arrays
_BLOCK = 1024


@dataclass(frozen=True)
class SweepSpec:
    """One reduction-vs-load sweep over a base scenario.

    swept_parameter "load_both" moves both loads together;
    "load_hi" sweeps only the high side, keeping the low load fixed.
    """

    base: ScenarioConfig
    swept_parameter: str = "load_both"
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.01
    variants: tuple[str, ...] = VARIANTS

    def __post_init__(self) -> None:
        if self.swept_parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"swept_parameter must be one of {SWEEP_PARAMETERS}")
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be > 0 and finite")
        if not (0.0 <= self.start <= self.stop <= 1.0):
            raise ValueError("need 0 <= start <= stop <= 1")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        repeated = {v for v in self.variants if self.variants.count(v) > 1}
        if repeated:
            raise ValueError(f"repeated variants: {sorted(repeated)}")
        intervals = (self.stop - self.start) / self.step
        if not (intervals < MAX_GRID_POINTS and round(intervals) < MAX_GRID_POINTS):
            raise ValueError(
                f"sweep grid exceeds {MAX_GRID_POINTS:,} points: raise step or narrow the range"
            )

    def grid(self) -> np.ndarray:
        import numpy as np

        count = int(round((self.stop - self.start) / self.step))
        return np.minimum(self.start + np.arange(count + 1) * self.step, self.stop)


@dataclass(frozen=True)
class SweepRow:
    """Reductions at one load grid point, keyed by variant name."""

    load: float
    reductions: dict[str, float]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate all requested variants across the load grid.

    Each variant is one kernel call per block of grid points.  Where the
    baseline vanishes (all toggles zero at load 0) the reduction is
    reported as its right-hand limit, which for equal-load sweeps equals
    the constant value on (0, 0.5].
    """
    import numpy as np

    base = spec.base
    fixed_lo = spec.swept_parameter == "load_hi"
    bare_hi = replace(base.hi, embodied_per_node=0.0)
    bare_lo = replace(base.lo, embodied_per_node=0.0)
    shift_all = replace(base.policy, alpha=1.0)  # move the whole movable fraction
    untimed = replace(shift_all, beta=1.0)
    # variant -> the site classes, gamma and policy it evaluates
    inputs = {
        "full": (base.hi, base.lo, base.gamma, shift_all),
        "zero_idle": (base.hi, base.lo, 0.0, shift_all),
        "zero_embodied": (bare_hi, bare_lo, base.gamma, shift_all),
        "no_time_constraints": (bare_hi, bare_lo, 0.0, untimed),
    }

    def reduction(variant, load, where):
        hi, lo, gamma, policy = inputs[variant]
        load_lo = lo.load if fixed_lo else load
        return _emissions(hi, lo, load, load_lo, gamma, policy, where).reduction

    grid = spec.grid()
    rows: list[SweepRow] = []
    # overflow gives inf, as with Python floats, without a warning
    with np.errstate(all="ignore"):
        for first in range(0, len(grid), _BLOCK):
            loads = grid[first : first + _BLOCK]
            block = [SweepRow(load=load, reductions={}) for load in loads.tolist()]
            for variant in spec.variants:
                values = reduction(variant, loads, np.where).tolist()
                if first == 0 and loads[0] == 0.0 and math.isnan(values[0]):
                    values[0] = reduction(variant, 1e-9, _where)
                for row, value in zip(block, values):
                    row.reductions[variant] = value
            rows.extend(block)
    return rows


def kink_location(rows: list[SweepRow], variant: str) -> float | None:
    """Grid load where the curve's slope changes most abruptly.

    Uses the discrete second difference of the variant's reduction; the
    result is reported at grid resolution.  Returns None when the series
    has no kink (no second difference above KINK_TOL).  The first of
    equal maxima wins, and a NaN difference never does.
    """
    if len(rows) < 3:
        raise ValueError("kink detection needs at least 3 rows")
    import numpy as np

    values = np.fromiter((row.reductions[variant] for row in rows), float, len(rows))
    mags = np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2])
    candidates = np.where(mags > KINK_TOL, mags, -np.inf)
    best = int(np.argmax(candidates))
    if not candidates[best] > KINK_TOL:
        return None
    return rows[best + 1].load


def years_compensated(reduction: float, annual_growth: float) -> float:
    """Years of compound growth undone by a one-off relative reduction.

    Solves (1+g)^t * (1-r) = 1 for t.
    """
    if not (0.0 <= reduction < 1.0):
        raise ValueError("reduction must be in [0,1)")
    if not 1.0 < 1.0 + annual_growth < math.inf:
        raise ValueError("annual_growth must be > 0 and finite, with 1 + annual_growth > 1")
    return math.log(1.0 / (1.0 - reduction)) / math.log(1.0 + annual_growth)


def capacity_projection(
    base_power_gw: float, annual_growth: float, years: int
) -> tuple[float, float]:
    """Projected power (GW) and annual energy (TWh) after compound growth.

    Energy assumes continuous draw at the projected power: 1 GW is
    8.76 TWh/y.
    """
    if not (0.0 < base_power_gw < math.inf and -1.0 < annual_growth < math.inf and years >= 0):
        raise ValueError(
            "need a finite base_power_gw > 0, a finite annual_growth > -1 and years >= 0"
        )
    try:
        power = base_power_gw * (1.0 + annual_growth) ** years
    except OverflowError:  # float ** int raises where float * float gives inf
        power = math.inf
    if power * 8.76 == math.inf:
        raise ValueError("projected capacity is too large for a float")
    return power, power * 8.76
