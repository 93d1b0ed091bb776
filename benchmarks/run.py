"""Layered benchmark for glshift.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one seeded workload (cli_cold, scenario_batch, sweep_dense,
oracle_long) against the package in ``src/`` (nothing is installed),
checks every output, and prints a readable report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
first, untraced part of the run is followed by a traced part, and the
metrics are the per-layer ones derived from its spans plus the tracing
overhead.  ``--workload all`` runs every workload in turn, each in its
own process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import inputs
import tracing
import workloads
from workloads import FAILED, OK, OUT, ROOT, SRC, WRONG

EXPECTED = Path(__file__).resolve().parent / "expected.json"
MIN_OPS = 100  # at least ten samples beyond p90
SETUP_RUNS = 11  # fresh interpreters per run, half before and half after timing
UNTRACED_SHARE = 0.3  # of a traced run, spent untraced to measure the overhead

# metric names and units, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Tally:
    """Per-operation times and outcomes of one closed loop.

    With a window, each whole window's times are reduced to its p50, p90
    and items per second when it closes, then dropped, so that the
    harness's memory does not grow with the operation count; operations of
    a last, partial window count as attempted but not in the time metrics.
    Without one, ``times`` keeps every operation of the run.
    """

    def __init__(self) -> None:
        self.times = array("q")
        self.window_items = 0
        self.attempted = 0
        self.outcomes = [0, 0, 0]
        self.summaries: list[tuple[float, float, float]] = []  # (p50 ns, p90 ns, items/s)

    def run(
        self,
        op,
        seconds: float,
        min_ops: int = 0,
        tracer: tracing.Tracer | None = None,
        window_s: float = 0.0,
    ) -> "Tally":
        now = time.perf_counter_ns()
        deadline = now + int(seconds * 1e9)
        window = int(window_s * 1e9)
        next_mark = now + window if window else None
        while now < deadline or self.attempted < min_ops:
            if tracer is not None:
                tracer.op = self.attempted
            elapsed, items, outcome = op()
            self.times.append(elapsed)
            self.window_items += items
            self.attempted += 1
            self.outcomes[outcome] += 1
            now = time.perf_counter_ns()
            if next_mark is not None and now >= next_mark:
                self.close_window()
                next_mark += window
        return self

    def close_window(self) -> None:
        times = self.times
        self.summaries.append(
            (
                statistics.median(times),
                statistics.quantiles(times, n=10)[8],
                self.window_items / (sum(times) / 1e9),
            )
        )
        self.times = array("q")
        self.window_items = 0

    @property
    def failed(self) -> int:
        return self.outcomes[FAILED] + self.outcomes[WRONG]


def measure_setup(modules: tuple[str, ...], runs: int, warm: bool = False) -> list[float]:
    """Times over fresh interpreters to import ``modules``, s."""
    code = (
        "import time; start = time.perf_counter(); "
        f"import {', '.join(modules)}; print(time.perf_counter() - start)"
    )
    command = [sys.executable, "-c", code]
    env = workloads.child_env()
    if warm:
        subprocess.run(command, env=env, check=True, capture_output=True)  # fills caches
    return [
        float(subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(runs)
    ]


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def provenance(workload: str, seed: int, recorded_at: str) -> dict:
    """Where a result comes from: code, interpreter, machine and inputs."""
    sha = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "glshift").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}"] = _read(index / "size")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "expected_recorded_at": recorded_at,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "workload": workload,
        "seed": seed,
        "oracle_steps": {"in_cache": inputs.IN_CACHE_STEPS, "out_of_cache": inputs.OUT_OF_CACHE_STEPS},
        "oracle_mib_per_array": {
            "in_cache": inputs.IN_CACHE_STEPS * 8 / 2**20,
            "out_of_cache": inputs.OUT_OF_CACHE_STEPS * 8 / 2**20,
        },
    }


def end_to_end(workload, tally: Tally, setup_s: float) -> dict[str, float]:
    """Time metrics are medians over the run's windows (one, unless windowed)."""
    if isinstance(workload, workloads.CliCold):
        rss = statistics.median(workload.child_rss_mb)
    else:
        rss = workloads.peak_rss_mb()
    if not tally.summaries:
        tally.close_window()  # the whole run is one window
    p50, p90, items_per_s = (statistics.median(column) for column in zip(*tally.summaries))
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": p50 / 1e6,
        "op_p90_ms": p90 / 1e6,
        "items_per_s": items_per_s,
        "peak_rss_mb": rss,
    }
    return {name: metrics[name] for name in UNITS}


def per_layer(workload, untraced: Tally, traced: Tally, tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer metrics; those of a layer the workload does not reach read 0."""
    measured = tracing.layer_metrics(tracer)
    measured.update(workload.traced_extras())
    # tracing overhead: the same operations, traced minus untraced
    common = min(untraced.attempted, traced.attempted)
    base = sum(untraced.times[:common])
    extra = sum(traced.times[:common]) - base
    measured["tracing.overhead_ms"] = extra / common / 1e6 if common else 0.0
    measured["tracing.overhead_pct"] = 100.0 * extra / base if base else 0.0
    unlisted = measured.keys() - PER_LAYER_UNITS.keys()
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    return {name: measured.get(name, 0.0) for name in PER_LAYER_UNITS}


def run_one(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[name]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("provenance " + json.dumps(provenance(name, seed, expected["recorded_at"])))
    setup = [] if trace else measure_setup(cls.modules, SETUP_RUNS - SETUP_RUNS // 2, warm=True)
    workload = cls(expected)
    workload.warm()
    if not trace:
        tally = Tally().run(workload.operation(seed), seconds, MIN_OPS, window_s=cls.window_s)
        setup += measure_setup(cls.modules, SETUP_RUNS // 2)
        metrics = end_to_end(workload, tally, statistics.median(setup))
        units = UNITS
        tallies = [tally]
    else:
        untraced = Tally().run(workload.operation(seed), seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        traced = Tally().run(workload.operation(seed, tracer), seconds * (1 - UNTRACED_SHARE), tracer=tracer)
        workload.stop_tracing()
        metrics = per_layer(workload, untraced, traced, tracer)
        units = PER_LAYER_UNITS
        tallies = [untraced, traced]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}.csv.gz"
        tracer.write(spans_path)
        print(f"spans {len(tracer)} written to {spans_path.relative_to(ROOT)}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.outcomes[WRONG] for t in tallies)
    print(
        f"operations {attempted} attempted, {sum(t.outcomes[OK] for t in tallies)} ok, "
        f"{failed} failed ({wrong} with a wrong result); items are {cls.item}"
    )
    for key, value in metrics.items():
        label = f"{cls.items_name} (items_per_s)" if key == "items_per_s" else key
        print(f"  {label:<36} {value:>16.6g} {units[key]}")
    print(f"  {'failed_ratio':<36} {failed / attempted:>16.6g}")
    if isinstance(workload, workloads.ScenarioBatch):
        print(
            f"known defects: {workload.known_defects_accepted()} of {len(workload.known_defects)} "
            "malformed texts accepted, probed apart from the timed operations"
        )
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so that peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        result = subprocess.run(command, capture_output=True, text=True)
        lines = result.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stderr)
            raise RuntimeError(f"workload {name} exited with {result.returncode}")
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, metric in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "glshift" / "__init__.py").is_file():
        print(f"error: no glshift package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
