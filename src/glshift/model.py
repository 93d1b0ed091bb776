"""Two-site annual emissions model for geographic load shifting.

All emission quantities are kgCO2e per year unless noted otherwise.
Every function here is pure; the dataclasses are frozen and validated
at construction, so downstream code never re-checks ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HOURS_PER_YEAR = 24 * 365  # fixed 8,760 h convention, no leap years


class ModelError(ValueError):
    """Invalid parameter value for the emissions model."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelError(message)


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
        _require(self.pue >= 1.0, "pue must be >= 1")
        _require(self.carbon_intensity >= 0.0, "carbon_intensity must be >= 0")
        _require(
            self.network_overhead_fraction >= 0.0,
            "network_overhead_fraction must be >= 0",
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
        _require(self.site_count >= 1, "site_count must be >= 1")
        _require(self.nodes_per_site >= 1, "nodes_per_site must be >= 1")
        _require(0.0 <= self.load <= 1.0, "load must be in [0,1]")
        _require(self.embodied_per_node >= 0.0, "embodied_per_node must be >= 0")
        _require(self.op_full_per_node >= 0.0, "op_full_per_node must be >= 0")

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
    return (
        energy
        * (1.0 + model.network_overhead_fraction)
        * model.pue
        * model.carbon_intensity
        / 1000.0
    )


def _where(cond, if_true, if_false):
    """Float counterpart of numpy.where: the kernel's only branching step.

    Both branches are evaluated, as they are by numpy.where, so the
    kernel guards its divisions instead of relying on short circuits.
    """
    return if_true if cond else if_false


def _op(site: SiteClass, load, gamma):
    """Annual operational emissions of all sites of one class at a load."""
    return site.site_count * (load + gamma * (1.0 - load)) * site.op_full_per_site


def _capped_alpha(alpha, hi: SiteClass, load_hi, lo: SiteClass, load_lo, where):
    """min(alpha, free/busy); alpha when the high sites are idle."""
    busy = hi.site_count * load_hi
    free = lo.site_count * (1.0 - load_lo)
    moving = busy != 0.0
    ratio = free / where(moving, busy, 1.0)
    # min(alpha, ratio), taking alpha on ties as the builtin min does
    return where(moving & (ratio < alpha), ratio, alpha)


def _emissions(
    hi: SiteClass,
    lo: SiteClass,
    load_hi,
    load_lo,
    gamma: float,
    policy: ShiftPolicy,
    where=_where,
) -> EmissionsReport:
    """The emissions kernel: every term of the model, computed once.

    The site classes give counts and per-node values; the loads are
    passed apart so that they may be Python floats (with where=_where)
    or numpy arrays (with where=numpy.where), in which case every
    report field is an array over the loads.  Elementwise the two give
    the same IEEE operations in the same order, hence identical bits.
    """
    embodied_total = (
        hi.site_count * hi.embodied_per_site + lo.site_count * lo.embodied_per_site
    )
    beta = policy.beta
    alpha_eff = _capped_alpha(policy.alpha, hi, load_hi, lo, load_lo, where)
    new_hi = load_hi * (1.0 - alpha_eff)
    new_lo = load_lo + alpha_eff * load_hi * hi.site_count / lo.site_count
    new_lo = where(1.0 < new_lo, 1.0, new_lo)
    op_hi = _op(hi, new_hi, gamma)
    op_lo = _op(lo, new_lo, gamma)
    # moving work costs eta per unit moved, on the full-load operational
    # emissions of all sites involved
    overhead = policy.eta * alpha_eff * (
        hi.site_count * hi.op_full_per_site + lo.site_count * lo.op_full_per_site
    )
    # the baseline is summed in the same order as the shifted case, so
    # that a no-op shift (alpha_eff = 0) reproduces it bit for bit
    baseline = embodied_total + _op(hi, load_hi, gamma) + _op(lo, load_lo, gamma)
    gls = embodied_total + op_hi + op_lo + overhead
    # beta*x + (1-beta)*x may round away from x: keep the baseline then
    blended = where(
        (beta == 0.0) | (gls == baseline),
        baseline,
        beta * gls + (1.0 - beta) * baseline,
    )
    # a zero baseline leaves the reduction undefined: NaN, not 0
    positive = baseline > 0.0
    reduction = where(
        positive, (baseline - blended) / where(positive, baseline, 1.0), math.nan
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
    return _emissions(hi, lo, hi.load, lo.load, gamma, policy)


def ideal_reduction(c_hi: float, c_lo: float, load: float) -> float:
    """Upper bound on the reduction under ideal conditions.

    Ideal means: no embodied carbon, zero idle draw, no overhead, all
    work movable all the time, equal loads on both sides.
    """
    _require(0.0 <= load <= 1.0, "load must be in [0,1]")
    total = c_hi + c_lo
    if total <= 0.0:
        raise ModelError("ideal_reduction undefined for c_hi + c_lo = 0")
    if load <= 0.5:
        return (c_hi - c_lo) / total
    return 1.0 - ((2.0 * load - 1.0) * c_hi + c_lo) / (load * total)
