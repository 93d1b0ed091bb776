"""Two-site annual emissions model for geographic load shifting.

All emission quantities are kgCO2e per year unless noted otherwise.
Every function here is pure; the dataclasses are frozen and validated
at construction, so downstream code never re-checks ranges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

HOURS_PER_YEAR = 24 * 365  # fixed 8,760 h convention, no leap years


class ModelError(ValueError):
    """Invalid parameter value for the emissions model."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelError(message)


def check_gamma(gamma: float) -> None:
    """The idle fraction's rule, for every entry point that takes one."""
    _require(0.0 <= gamma <= 1.0, "gamma must be in [0,1]")


@dataclass(frozen=True)
class NodePowerModel:
    """Electrical and emission characteristics of one compute node.

    active_power: W drawn when the node is busy.
    pue: facility power / IT power, >= 1.
    carbon_intensity: gCO2e per kWh of the local grid.
    network_overhead_fraction: extra draw for networking outside the
        node, as a fraction of node energy (default 0).
    """

    active_power: float
    pue: float
    carbon_intensity: float
    network_overhead_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(self.active_power > 0, "active_power must be > 0")
        _require(self.active_power < math.inf, "active_power must be finite")
        _require(self.pue >= 1.0, "pue must be >= 1")
        _require(self.pue < math.inf, "pue must be finite")
        _require(self.carbon_intensity >= 0.0, "carbon_intensity must be >= 0")
        _require(self.carbon_intensity < math.inf, "carbon_intensity must be finite")
        _require(
            self.network_overhead_fraction >= 0.0,
            "network_overhead_fraction must be >= 0",
        )
        _require(
            self.network_overhead_fraction < math.inf,
            "network_overhead_fraction must be finite",
        )


@dataclass(frozen=True)
class SiteClass:
    """One emission class (high or low CI): identical sites grouped together.

    op_full_per_node is the annual operational emissions of one node at
    full load, including PUE and network overhead.
    """

    site_count: int
    nodes_per_site: int
    load: float
    embodied_per_node: float
    op_full_per_node: float

    def __post_init__(self) -> None:
        # counts enter float arithmetic; an int compares with a float exactly
        _require(self.site_count >= 1, "site_count must be >= 1")
        _require(self.site_count <= sys.float_info.max, "site_count must fit a float")
        _require(self.nodes_per_site >= 1, "nodes_per_site must be >= 1")
        _require(self.nodes_per_site <= sys.float_info.max, "nodes_per_site must fit a float")
        _require(0.0 <= self.load <= 1.0, "load must be in [0,1]")
        _require(self.embodied_per_node >= 0.0, "embodied_per_node must be >= 0")
        _require(self.embodied_per_node < math.inf, "embodied_per_node must be finite")
        _require(self.op_full_per_node >= 0.0, "op_full_per_node must be >= 0")
        _require(self.op_full_per_node < math.inf, "op_full_per_node must be finite")
        # every annual total stays finite: each report total is at most the
        # sum of this bound over both classes (op_hi, op_lo and the overhead
        # each stay below sites * nodes * op); a quarter of the float range
        # leaves room for rounding
        count = float(self.site_count) * float(self.nodes_per_site)
        _require(
            count * (self.embodied_per_node + 2.0 * self.op_full_per_node)
            <= sys.float_info.max / 4.0,
            "annual totals too large for a float",
        )

    @property
    def embodied_per_site(self) -> float:
        return self.embodied_per_node * self.nodes_per_site

    @property
    def op_full_per_site(self) -> float:
        """Full-load annual operational emissions of one whole site."""
        return self.op_full_per_node * self.nodes_per_site


@dataclass(frozen=True)
class ShiftPolicy:
    """Shifting knobs: how much work moves, how often, at what cost.

    alpha: fraction of the workload that can be moved.
    beta: fraction of the time during which moving is possible.
    eta: per-node emission overhead factor for moving work.
    """

    alpha: float
    beta: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        _require(0.0 <= self.alpha <= 1.0, "alpha must be in [0,1]")
        _require(0.0 <= self.beta <= 1.0, "beta must be in [0,1]")
        _require(0.0 <= self.eta < 1.0, "eta must be in [0,1)")


@dataclass(frozen=True)
class EmissionsReport:
    """Itemised annual emissions for one evaluated scenario.

    op_hi / op_lo are the operational totals of each class after
    shifting (the load-shifted case).  overhead is the effective annual
    overhead, i.e. already scaled by beta.  reduction is NaN when the
    baseline is zero (undefined, distinct from a genuine 0).
    """

    embodied_total: float
    op_hi: float
    op_lo: float
    overhead: float
    baseline_total: float
    gls_total: float
    blended_total: float
    alpha_eff: float
    reduction: float


def op_full_per_node(model: NodePowerModel) -> float:
    """Annual operational emissions of one node at full load, kgCO2e.

    Includes the PUE and the network overhead factor; carbon intensity
    is g/kWh, hence the /1000.
    """
    energy = model.active_power * HOURS_PER_YEAR / 1000.0  # kWh per year
    op = (
        energy
        * (1.0 + model.network_overhead_fraction)
        * model.pue
        * model.carbon_intensity
        / 1000.0
    )
    # an overflowing energy gives inf, or NaN at a zero intensity
    _require(op < math.inf, "annual totals too large for a float")
    return op


def _where(cond, if_true, if_false):
    """The kernel's only branching step: numpy.where for array conditions.

    A condition without dimensions picks a branch, so scalars stay scalars.
    Both branches are evaluated, so the kernel guards its divisions.
    """
    if getattr(cond, "ndim", 0) == 0:
        return if_true if cond else if_false
    import numpy as np

    return np.where(cond, if_true, if_false)


def _op(sites, op_full, load, gamma):
    """Annual operational emissions of all sites of one class at a load."""
    return sites * (load + gamma * (1.0 - load)) * op_full


def _emissions(
    load_hi,
    load_lo,
    sites_hi,
    embodied_hi,
    op_full_hi,
    sites_lo,
    embodied_lo,
    op_full_lo,
    gamma,
    alpha,
    beta,
    eta,
) -> EmissionsReport:
    """The emissions kernel: every term of the model, computed once.

    Per class it reads the site count and the per-site embodied and
    full-load operational emissions; then the shift knobs.  Every field
    may be a Python float or a numpy array; arrays broadcast against each
    other, and every report field is then an array.  Elementwise the two
    give the same IEEE operations in the same order, hence identical bits.
    """
    embodied_total = sites_hi * embodied_hi + sites_lo * embodied_lo
    # alpha_eff = min(alpha, free/busy), taking alpha on ties as the
    # builtin min does, and alpha when the high sites are idle
    busy = sites_hi * load_hi
    free = sites_lo * (1.0 - load_lo)
    moving = busy != 0.0
    ratio = free / _where(moving, busy, 1.0)
    alpha_eff = _where(moving & (ratio < alpha), ratio, alpha)
    new_hi = load_hi * (1.0 - alpha_eff)
    new_lo = load_lo + alpha_eff * load_hi * sites_hi / sites_lo
    new_lo = _where(1.0 < new_lo, 1.0, new_lo)
    op_hi = _op(sites_hi, op_full_hi, new_hi, gamma)
    op_lo = _op(sites_lo, op_full_lo, new_lo, gamma)
    # moving work costs eta per unit moved, on the full-load operational
    # emissions of all sites involved
    overhead = eta * alpha_eff * (sites_hi * op_full_hi + sites_lo * op_full_lo)
    # the baseline is summed in the same order as the shifted case, so
    # that a no-op shift (alpha_eff = 0) reproduces it bit for bit
    baseline = (
        embodied_total
        + _op(sites_hi, op_full_hi, load_hi, gamma)
        + _op(sites_lo, op_full_lo, load_lo, gamma)
    )
    gls = embodied_total + op_hi + op_lo + overhead
    # beta*x + (1-beta)*x may round away from x: keep the baseline then
    # (beta = 0 needs no test: 0*gls + 1*baseline is the baseline, since
    # SiteClass keeps gls finite)
    blended = _where(gls == baseline, baseline, beta * gls + (1.0 - beta) * baseline)
    # a zero baseline leaves the reduction undefined: NaN, not 0
    positive = baseline > 0.0
    reduction = _where(
        positive, (baseline - blended) / _where(positive, baseline, 1.0), math.nan
    )
    return EmissionsReport(
        embodied_total=embodied_total,
        op_hi=op_hi,
        op_lo=op_lo,
        overhead=beta * overhead,
        baseline_total=baseline,
        gls_total=gls,
        blended_total=blended,
        alpha_eff=alpha_eff,
        reduction=reduction,
    )


def blended_emissions(
    hi: SiteClass, lo: SiteClass, gamma: float, policy: ShiftPolicy
) -> EmissionsReport:
    """Evaluate the full model and return the itemised report.

    The blended total weights the shifting and baseline regimes by the
    fraction of the time shifting is possible (beta).
    """
    check_gamma(gamma)
    return _emissions(
        hi.load,
        lo.load,
        hi.site_count,
        hi.embodied_per_site,
        hi.op_full_per_site,
        lo.site_count,
        lo.embodied_per_site,
        lo.op_full_per_site,
        gamma,
        policy.alpha,
        policy.beta,
        policy.eta,
    )


def ideal_reduction(c_hi: float, c_lo: float, load: float) -> float:
    """Upper bound on the reduction under ideal conditions.

    Ideal means: no embodied carbon, zero idle draw, no overhead, all
    work movable all the time, equal loads on both sides.
    """
    _require(0.0 <= load <= 1.0, "load must be in [0,1]")
    _require(
        0.0 <= c_hi < math.inf and 0.0 <= c_lo < math.inf,
        "c_hi and c_lo must be >= 0 and finite",
    )
    total = c_hi + c_lo
    if total <= 0.0:
        raise ModelError("ideal_reduction undefined for c_hi + c_lo = 0")
    if load <= 0.5:
        return (c_hi - c_lo) / total
    return 1.0 - ((2.0 * load - 1.0) * c_hi + c_lo) / (load * total)
