"""Parameter sweeps and growth analyses over the emissions model.

Sweeps evaluate reduction-vs-load curves with variant toggles that
isolate the contribution of idle power, embodied carbon and time
constraints.  During a sweep the whole movable fraction is shifted
(alpha forced to 1); single-scenario evaluation keeps the scenario's
own alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import _emissions

# numpy is imported inside the functions that make arrays, so that
# `gls evaluate` and `gls growth` never pay for loading it; scenario is
# named only in annotations, so that `import glshift.sweeps` skips it
if TYPE_CHECKING:
    import numpy as np

    from .scenario import ScenarioConfig

# variant -> whether it keeps (embodied carbon, idle power, time constraints)
_KEEPS = {
    "full": (True, True, True),
    "zero_idle": (True, False, True),
    "zero_embodied": (False, True, True),
    "no_time_constraints": (False, False, False),
}
VARIANTS = tuple(_KEEPS)  # in CSV column order
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

    The grid has round((stop - start) / step) intervals (Python's round,
    ties to even) and its points are start + k*step, clipped to stop.
    Over [0, 1], step 0.3 gives [0, 0.3, 0.6, 0.8999999999999999] (drops
    stop), 0.6 gives [0, 0.6, 1.0] (an uneven last interval) and 0.4
    gives [0, 0.4, 0.8] (1/0.4 = 2.5 intervals, rounded to 2).
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


def run_sweep(spec: SweepSpec) -> np.recarray:
    """Evaluate all requested variants across the load grid.

    Returns one float64 record array, a row per grid point: the columns
    are rows.load and rows.reductions[v] per requested variant v, and one
    point is rows[i].load and rows[i].reductions[v], which from Python
    costs more per point than reading whole columns.

    The kernel fields that the variants toggle (per-site embodied, gamma
    and beta) are columns with one entry per variant, so that one kernel
    call per block of grid points evaluates every variant.  Where the
    baseline vanishes (all toggles zero at load 0) the reduction is its
    value at load 1e-9: the right-hand limit if eta = 0, but if eta > 0
    about -eta*1e9, where the limit is -inf (a load-free overhead over ~0).
    """
    import numpy as np

    base = spec.base
    hi, lo = base.hi, base.lo
    fixed_lo = spec.swept_parameter == "load_hi"
    # (variants, 1) columns, broadcast against each block's points
    keeps = np.array([_KEEPS[v] for v in spec.variants], dtype=bool)
    embodied, idle, timed = keeps.reshape(len(spec.variants), 3).T[:, :, None]
    fields = (
        hi.site_count,
        np.where(embodied, hi.embodied_per_site, 0.0),
        hi.op_full_per_site,
        lo.site_count,
        np.where(embodied, lo.embodied_per_site, 0.0),
        lo.op_full_per_site,
        np.where(idle, base.gamma, 0.0),
        1.0,  # move the whole movable fraction
        np.where(timed, base.policy.beta, 1.0),
        base.policy.eta,
    )
    grid = spec.grid()
    # one float64 column per record field: the load, then each variant's
    table = np.empty((len(grid), 1 + len(spec.variants)))
    table[:, 0] = grid
    # overflow gives inf, as with Python floats, without a warning
    with np.errstate(all="ignore"):
        for first in range(0, len(grid), _BLOCK):
            loads = grid[first : first + _BLOCK]
            values = _emissions(loads, lo.load if fixed_lo else loads, *fields).reduction
            if loads[0] == 0.0 and np.isnan(values[:, 0]).any():
                eps = 1e-9
                retry = _emissions(eps, lo.load if fixed_lo else eps, *fields).reduction
                values[:, 0] = np.where(np.isnan(values[:, 0]), retry[:, 0], values[:, 0])
            table[first : first + len(loads), 1:] = values.T
    dtype = [("load", float), ("reductions", [(v, float) for v in spec.variants])]
    return table.view(dtype)[:, 0].view(np.recarray)


def kink_location(rows: np.recarray, variant: str) -> float | None:
    """Grid load where the curve's slope changes most abruptly.

    Uses the discrete second difference of the variant's reduction; the
    result is reported at grid resolution.  Returns None when the series
    has no kink (no second difference above KINK_TOL).  The first of
    equal maxima wins, and a NaN difference never does.  A variant that
    rows (a run_sweep result) lacks raises ValueError.
    """
    if len(rows) < 3:
        raise ValueError("kink detection needs at least 3 rows")
    import numpy as np

    table = np.asarray(rows)  # a recarray's field lookups cost ~20 times more
    values = table["reductions"][variant]
    mags = np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2])
    candidates = np.where(mags > KINK_TOL, mags, -np.inf)
    best = int(np.argmax(candidates))
    if not candidates[best] > KINK_TOL:
        return None
    return float(table["load"][best + 1])


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
