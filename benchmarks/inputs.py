"""Seeded inputs for the four benchmark workloads.

Every workload draws its operations from a fixed pool of inputs.  The
pools are built deterministically (the scenario texts from a fixed
corpus seed), so that the expected outputs can be recorded once, at the
commit that defines the benchmark, in ``expected.json``.  The workload
seed given on the command line picks the sequence of pool entries a run
executes.

This module imports nothing from glshift: the cli_cold driver never
loads the package into its own process.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

SCENARIO_POOL_SIZE = 4096
SCENARIO_CORPUS_SEED = 20261017
MALFORMED_SHARE = 0.10

BUNDLED = (
    "table1_solar",
    "table1_wind",
    "table2_s1",
    "table2_s2",
    "table2_s3",
    "table2_s4",
    "table2_s5",
)

# ---------------------------------------------------------------- scenario_batch

_FLOAT_KEYS = {
    "hi": ("load", "op_kg_per_node_year", "ci_g_per_kwh", "node_power_w", "pue", "nu"),
    "common": ("gamma", "embodied_kg_per_node_year"),
    "shift": ("alpha", "beta", "eta"),
}
_FLOAT_KEYS["lo"] = _FLOAT_KEYS["hi"]

# (section, key, bad value) for values outside the documented ranges
_OUT_OF_RANGE = (
    ("hi", "load", "1.5"),
    ("lo", "load", "-0.2"),
    ("common", "gamma", "1.2"),
    ("common", "gamma", "-0.1"),
    ("common", "embodied_kg_per_node_year", "-1"),
    ("shift", "alpha", "1.5"),
    ("shift", "beta", "-0.5"),
    ("shift", "eta", "1.0"),
    ("hi", "sites", "0"),
    ("lo", "nodes", "-3"),
    ("hi", "op_kg_per_node_year", "-10"),
    ("lo", "pue", "0.8"),
    ("hi", "ci_g_per_kwh", "-5"),
    ("lo", "node_power_w", "0"),
    ("hi", "nu", "-0.1"),
)
_NON_NUMERIC = ("abc", "1,5", "12kg", "", "0x1p3", "one")
_INF = ("inf", "-inf", "Infinity", "+inf")
_NAN = ("nan", "NaN", "-nan")


@dataclass(frozen=True)
class ScenarioInput:
    """One generated scenario text and what the benchmark expects of it.

    malformed: the defect (out_of_range, non_numeric, inf, nan, structure)
    that breaks the input contract, so that the text must be rejected
    with ScenarioError or ModelError; None for a valid text.
    """

    text: str
    malformed: str | None


def _num(rng: random.Random, low: float, high: float) -> str:
    """A value in [low, high] written the ways a person might write it."""
    value = rng.uniform(low, high)
    style = rng.random()
    if style < 0.15:
        return str(int(round(value)))
    if style < 0.25:
        return f"{value:.3e}"
    return repr(round(value, rng.choice((2, 3, 4, 6))))


def _site(rng: random.Random, derived: bool, load: str) -> list[tuple[str, str]]:
    keys = [
        ("sites", str(rng.randint(1, 6))),
        ("nodes", str(rng.choice((rng.randint(1, 200), rng.randint(200, 100_000))))),
        ("load", load),
    ]
    if derived:
        keys += [
            ("ci_g_per_kwh", _num(rng, 20.0, 900.0)),
            ("node_power_w", _num(rng, 200.0, 12_000.0)),
            ("pue", _num(rng, 1.0, 2.0)),
        ]
        if rng.random() < 0.5:
            keys.append(("nu", _num(rng, 0.0, 0.2)))
    else:
        keys.append(("op_kg_per_node_year", _num(rng, 0.0, 25_000.0)))
    return keys


def _sections(rng: random.Random, index: int) -> dict[str, list]:
    """A valid scenario; each site class is given directly or derived."""
    derived_hi = rng.random() < 0.5
    derived_lo = rng.random() < 0.5
    regime = rng.random()
    alpha = _num(rng, 0.0, 1.0)
    if regime < 0.30:
        # busy high side, nearly full low side: free capacity binds alpha_eff
        load_hi, load_lo = _num(rng, 0.5, 1.0), _num(rng, 0.7, 1.0)
        alpha = _num(rng, 0.6, 1.0)
    elif regime < 0.36:
        # idle high side: nothing to move
        load_hi, load_lo = rng.choice(("0", "0.0")), _num(rng, 0.0, 1.0)
    elif regime < 0.40:
        load_hi, load_lo = _num(rng, 0.0, 1.0), _num(rng, 0.0, 1.0)
        alpha = "0"
    else:
        load_hi, load_lo = _num(rng, 0.0, 1.0), _num(rng, 0.0, 1.0)
    shift = [("alpha", alpha), ("beta", _num(rng, 0.0, 1.0))]
    if rng.random() < 0.6:
        shift.append(("eta", _num(rng, 0.0, 0.1)))
    sections = {
        "scenario": [("name", f"generated_{index}")],
        "hi": _site(rng, derived_hi, load_hi),
        "lo": _site(rng, derived_lo, load_lo),
        "common": [
            ("gamma", _num(rng, 0.0, 1.0)),
            ("embodied_kg_per_node_year", _num(rng, 0.0, 5000.0)),
        ],
        "shift": shift,
    }
    return sections


def _set(sections: dict[str, list], section: str, key: str, value: str) -> bool:
    entries = sections[section]
    for i, (k, _) in enumerate(entries):
        if k == key:
            entries[i] = (key, value)
            return True
    return False


def _break(rng: random.Random, sections: dict[str, list]) -> str:
    """Make the scenario malformed in place; return the defect's name."""
    defect = rng.choice(("out_of_range", "non_numeric", "inf", "nan", "structure"))
    if defect == "out_of_range":
        candidates = [c for c in _OUT_OF_RANGE if any(k == c[1] for k, _ in sections[c[0]])]
        section, key, value = rng.choice(candidates)
        _set(sections, section, key, value)
        return defect
    if defect == "structure":
        section = rng.choice(("hi", "lo", "common", "shift"))
        choice = rng.randrange(4)
        if choice == 0:
            sections[section].append(("weight", "1"))
        elif choice == 1:
            sections[section].pop(0)
        elif choice == 2:
            sections[section].append(sections[section][0])
        else:
            sections[section].append(("", "load 0.5"))
        return defect
    values = {"non_numeric": _NON_NUMERIC, "inf": _INF, "nan": _NAN}[defect]
    section = rng.choice(("hi", "lo", "common", "shift"))
    present = [k for k, _ in sections[section] if k in _FLOAT_KEYS[section] or k in ("sites", "nodes")]
    _set(sections, section, rng.choice(present), rng.choice(values))
    return defect


def _render(rng: random.Random, sections: dict[str, list]) -> str:
    lines = []
    if rng.random() < 0.5:
        lines += ["# generated scenario", "# two site classes, capped shifting", ""]
    order = list(sections)
    rng.shuffle(order)
    order.remove("scenario")
    order.insert(0, "scenario")
    for name in order:
        lines.append(f"[{name}]" if rng.random() < 0.8 else f"[ {name} ]")
        entries = list(sections[name])
        rng.shuffle(entries)
        for key, value in entries:
            line = value if key == "" else f"{key} = {value}"
            if rng.random() < 0.15:
                line += "  # note"
            lines.append(line)
        if rng.random() < 0.8:
            lines.append("")
    return "\n".join(lines) + "\n"


def scenario_pool() -> list[ScenarioInput]:
    """The fixed pool of generated scenario texts (same on every call)."""
    rng = random.Random(SCENARIO_CORPUS_SEED)
    pool = []
    for index in range(SCENARIO_POOL_SIZE):
        sections = _sections(rng, index)
        malformed = _break(rng, sections) if rng.random() < MALFORMED_SHARE else None
        pool.append(ScenarioInput(_render(rng, sections), malformed))
    return pool


def pool_fingerprint(texts: list[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------- sweep_dense

# (start, stop, step); steps such as 0.0099 and 0.011 do not divide the range
SMALL_GRIDS = (
    (0.0, 1.0, 0.01),
    (0.0, 1.0, 0.0099),
    (0.0, 1.0, 0.011),
    (0.1, 0.9, 0.008),
    (0.2, 1.0, 0.0075),
)
LARGE_GRIDS = (
    (0.0, 1.0, 1e-4),
    (0.0, 1.0, 0.000099),
    (0.05, 0.95, 0.00009),
)
# operations of each class per block: 4/5 small and 1/5 large grids.  The
# large class is 3:1 load_both:load_hi because a load_both sweep costs ~15 %
# more; an even split would put p90, the median of the large class, on the
# boundary between the two.
SWEEP_MIX = (
    ("small/load_both", 8),
    ("small/load_hi", 8),
    ("large/load_both", 3),
    ("large/load_hi", 1),
)


@dataclass(frozen=True)
class SweepInput:
    scenario: str
    param: str
    start: float
    stop: float
    step: float

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.param}/{self.start!r}/{self.stop!r}/{self.step!r}"


def sweep_pool() -> dict[str, list[SweepInput]]:
    """Sweep specs keyed by "<size>/<swept parameter>"."""
    pool: dict[str, list[SweepInput]] = {}
    for size, grids in (("small", SMALL_GRIDS), ("large", LARGE_GRIDS)):
        for param in ("load_both", "load_hi"):
            pool[f"{size}/{param}"] = [
                SweepInput(scenario, param, start, stop, step)
                for scenario in BUNDLED
                for start, stop, step in grids
            ]
    return pool


# ---------------------------------------------------------------- oracle_long

IN_CACHE_STEPS = 100_000  # 0.8 MB per float64 array
OUT_OF_CACHE_STEPS = 17_000_000  # 136 MB (>= 128 MiB) per float64 array
ORACLE_MIX = (("in_cache", 4), ("out_of_cache", 1))  # operations of each class per block


@dataclass(frozen=True)
class OracleInput:
    steps: int
    seed: int
    load: tuple[float, float]
    ci: tuple[float, float]
    gamma: float
    embodied: float
    correlated: bool

    @property
    def key(self) -> str:
        return (
            f"{self.steps}/{self.seed}/{self.load}/{self.ci}/{self.gamma!r}/"
            f"{self.embodied!r}/{int(self.correlated)}"
        )


# the tests' seed-42 golden spec; its totals are checked exactly
ORACLE_GOLDEN = OracleInput(IN_CACHE_STEPS, 42, (0.6, 1.0), (300.0, 500.0), 0.3, 444.0, False)
ORACLE_GOLDEN_VALUES = {
    "trace_total": 787.976183876309,
    "closed_form_total": 788.0,
    "sample_mean_total": 787.9555611316018,
    "z_score": -0.1265170929636193,
}

_ORACLE_SHAPES = (
    ((0.6, 1.0), (300.0, 500.0), 0.3, 444.0),
    ((0.0, 1.0), (20.0, 900.0), 0.1, 0.0),
    ((0.2, 0.8), (100.0, 400.0), 0.5, 2066.0),
    ((0.83, 0.83), (41.0, 369.0), 0.3, 444.0),
)


def oracle_pool() -> dict[str, list[OracleInput]]:
    pool: dict[str, list[OracleInput]] = {"in_cache": [ORACLE_GOLDEN], "out_of_cache": []}
    for seed in range(1, 24):
        load, ci, gamma, embodied = _ORACLE_SHAPES[seed % len(_ORACLE_SHAPES)]
        correlated = seed % 6 == 0  # never the constant-load shape 3
        pool["in_cache"].append(
            OracleInput(IN_CACHE_STEPS, seed, load, ci, gamma, embodied, correlated)
        )
    # the last out-of-cache spec is a correlated control on the first shape
    for seed in range(len(_ORACLE_SHAPES) + 1):
        load, ci, gamma, embodied = _ORACLE_SHAPES[seed % len(_ORACLE_SHAPES)]
        correlated = seed == len(_ORACLE_SHAPES)
        pool["out_of_cache"].append(
            OracleInput(OUT_OF_CACHE_STEPS, 1000 + seed, load, ci, gamma, embodied, correlated)
        )
    return pool


# ---------------------------------------------------------------- cli_cold

# Table 2 (HPC) and Table 1 (AI) goldens of the paper, as in the acceptance
# tests: baseline tCO2e/y, blended tCO2e/y, reduction %, and tolerances.
EVALUATE_GOLDENS = {
    "table2_s1": (1197.0, 832.0, 30.5),
    "table2_s2": (1054.0, 910.0, 13.6),
    "table2_s3": (1054.0, 982.0, 6.8),
    "table2_s4": (534.0, 500.0, 6.5),
    "table2_s5": (534.0, 517.0, 3.3),
    "table1_solar": (2_565_724.0, 2_447_922.0, 4.6),
    "table1_wind": (2_273_088.0, 2_151_753.0, 5.3),
}

GROWTH_CASES = ((0.5, 0.22), (0.1, 0.27), (0.305, 0.2), (0.046, 0.25), (0.0, 0.22))

ORACLE_COMMANDS = (
    (),
    ("--seed", "7"),
    ("--seed", "2026"),
    ("--seed", "3", "--gamma", "0.5"),
    ("--correlated",),
    ("--correlated", "--seed", "7"),
)

# operations of each command per block: 65 % evaluate, 5 % growth, 10 % sweep,
# 20 % oracle, so that p50 reads the fast commands and p90 the oracle
CLI_MIX = (("evaluate", 13), ("growth", 1), ("sweep", 2), ("oracle", 4))


def cli_pool() -> dict[str, list[tuple[str, ...]]]:
    pool: dict[str, list[tuple[str, ...]]] = {"evaluate": [], "growth": [], "sweep": [], "oracle": []}
    for name in BUNDLED:
        pool["evaluate"] += [
            ("evaluate", name),
            ("evaluate", name, "--csv"),
            ("evaluate", name, "--csv", "--precision", "full"),
        ]
        for param in ("load_both", "load_hi"):
            pool["sweep"].append(("sweep", name, "--param", param, "--kink"))
    for reduction, growth in GROWTH_CASES:
        pool["growth"].append(("growth", "--reduction", repr(reduction), "--growth", repr(growth)))
    for extra in ORACLE_COMMANDS:
        pool["oracle"].append(("oracle",) + extra)
    return pool


def schedule(rng: random.Random, mix: tuple[tuple[str, int], ...], pool: dict[str, list]):
    """Endless seeded sequence of pool entries, stratified by class.

    Each block of ``sum(counts)`` operations holds every class exactly
    ``count`` times, in a seeded order, so that the shares do not vary
    from run to run; within a class the entry is drawn uniformly.
    """
    block = [name for name, count in mix for _ in range(count)]
    while True:
        rng.shuffle(block)
        for name in block:
            yield rng.choice(pool[name])
