"""The four workloads, each a closed loop with one client.

An operation is one ``gls`` process (cli_cold), one scenario parsed and
evaluated (scenario_batch), one sweep plus kink detection (sweep_dense)
or one oracle call (oracle_long).  Each operation reports its time in
the program, the work items it completed and an outcome:

OK      the output passed its check;
FAILED  the input contract was broken: a malformed input was accepted,
        or an input raised something other than ScenarioError/ModelError;
WRONG   a valid input gave a result that differs from the paper golden
        or from the value recorded in ``expected.json``.

FAILED and WRONG both count as failed operations; WRONG also makes the
run incorrect.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import selectors
import struct
import subprocess
import sys
import time
from array import array
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GLS_CHILD = HERE / "gls_child.py"

OK, FAILED, WRONG = 0, 1, 2
VARIANTS = ("full", "zero_idle", "zero_embodied", "no_time_constraints")
REPORT_FIELDS = (
    "embodied_total",
    "op_hi",
    "op_lo",
    "overhead",
    "baseline_total",
    "gls_total",
    "blended_total",
    "alpha_eff",
    "reduction",
)
ORACLE_FIELDS = ("trace_total", "closed_form_total", "sample_mean_total", "z_score", "sample_covariance")

# the ``gls`` console script: a fresh interpreter calling glshift.cli.main
GLS = "import sys; from glshift.cli import main; sys.exit(main())"

_now = time.perf_counter_ns


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ------------------------------------------------------------ output digests


def report_digest(report) -> str:
    values = [getattr(report, field) for field in REPORT_FIELDS]
    return hashlib.sha256(struct.pack(f"{len(values)}d", *values)).hexdigest()[:16]


def sweep_digest(rows, kinks) -> str:
    values = array("d")
    for row in rows:
        values.append(row.load)
        values.extend(row.reductions[v] for v in VARIANTS)
    values.extend(-1.0 if k is None else k for k in kinks)
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def oracle_values(result) -> list[float]:
    return [getattr(result, field) for field in ORACLE_FIELDS]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bundled_text(name: str) -> str:
    return (SRC / "glshift" / "scenarios" / f"{name}.scenario").read_text(encoding="utf-8")


def oracle_spec(api, entry: inputs.OracleInput):
    return api.TraceSpec(
        steps=entry.steps,
        seed=entry.seed,
        load_dist=api.Uniform(*entry.load),
        ci_dist=api.Uniform(*entry.ci),
        correlated=entry.correlated,
    )


def sweep_spec(api, configs, entry: inputs.SweepInput):
    return api.SweepSpec(
        base=configs[entry.scenario],
        swept_parameter=entry.param,
        start=entry.start,
        stop=entry.stop,
        step=entry.step,
        variants=VARIANTS,
    )


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


# ------------------------------------------------------------ in-process workloads


class InProcess:
    """A workload that calls glshift's public entry points in this process."""

    name = ""
    modules: tuple[str, ...] = ()
    item = ""  # what items_per_s counts
    items_name = ""  # the name items_per_s has in the report
    window_s = 0.0  # time metrics over windows this long, then their median; 0: the whole run

    def __init__(self) -> None:
        self.api = tracing.public_api()
        self.traced_api = None
        self.patched: list = []

    def operation(self, seed: int, tracer: tracing.Tracer | None = None):
        """A function running the next operation of the seeded sequence.

        With a tracer, the operation calls the traced entry points, and
        glshift's own cross-layer calls are traced too, until
        ``stop_tracing``.
        """
        if tracer is None:
            return self._operation(seed, self.api)
        if self.traced_api is None:
            self.traced_api, self.patched = tracing.install(tracer)
        return self._operation(seed, self.traced_api)

    def stop_tracing(self) -> None:
        tracing.uninstall(self.patched)
        self.patched = []

    def _operation(self, seed: int, api):
        raise NotImplementedError

    def warm(self) -> None:
        """Run each kind of operation before timing starts."""

    def traced_extras(self) -> dict[str, float]:
        return {}


class ScenarioBatch(InProcess):
    name = "scenario_batch"
    modules = ("glshift.scenario", "glshift.model")
    item = "scenarios parsed and evaluated"
    items_name = "evals_per_s"
    # operations take ~25 us: short bursts of interference from other
    # tenants of the host raise p90 for a second or two at a time
    window_s = 1.0

    def __init__(self, expected: dict) -> None:
        super().__init__()
        self.pool = inputs.scenario_pool()
        fingerprint = inputs.pool_fingerprint([entry.text for entry in self.pool])
        if fingerprint != expected["scenario_pool_sha256"]:
            raise RuntimeError("generated scenario pool differs from the recorded one")
        self.digests = expected["scenario"]
        # malformed texts the recorded commit accepts: a known defect, probed
        # apart from the timed mix so that the timed operations do not fail
        self.known_defects = expected["scenario_known_defects"]
        known = set(self.known_defects)
        self.timed = [i for i in range(len(self.pool)) if i not in known]

    def _operation(self, seed: int, api):
        rng = random.Random(seed)
        pool, digests, timed = self.pool, self.digests, self.timed
        rejects = (api.ScenarioError, api.ModelError)
        load_scenario, blended_emissions = api.load_scenario, api.blended_emissions

        def op():
            index = rng.choice(timed)
            entry = pool[index]
            start = _now()
            try:
                config = load_scenario(entry.text)
                report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
            except rejects:
                return _now() - start, 1, OK if entry.malformed else WRONG
            except Exception:  # noqa: BLE001 - any other exception breaks the contract
                return _now() - start, 1, FAILED if entry.malformed else WRONG
            elapsed = _now() - start
            if entry.malformed:
                return elapsed, 1, FAILED
            return elapsed, 1, OK if report_digest(report) == digests[index] else WRONG

        return op

    def warm(self) -> None:
        op = self.operation(-1)
        for _ in range(3000):
            op()

    def known_defects_accepted(self) -> int:
        """How many of the known-defect texts are not yet rejected with
        ScenarioError/ModelError."""
        api, accepted = self.api, 0
        for index in self.known_defects:
            try:
                config = api.load_scenario(self.pool[index].text)
                api.blended_emissions(config.hi, config.lo, config.gamma, config.policy)
            except (api.ScenarioError, api.ModelError):
                continue
            except Exception:  # noqa: BLE001 - any other exception still breaks the contract
                pass
            accepted += 1
        return accepted

    def traced_extras(self) -> dict[str, float]:
        return {"scenario.known_defects_accepted": self.known_defects_accepted()}


class SweepDense(InProcess):
    name = "sweep_dense"
    modules = ("glshift.sweeps",)
    item = "grid points x variants"
    items_name = "evals_per_s"

    def __init__(self, expected: dict) -> None:
        super().__init__()
        self.pool = inputs.sweep_pool()
        self.configs = {name: self.api.load_scenario(bundled_text(name)) for name in inputs.BUNDLED}
        self.digests = expected["sweep"]

    def _operation(self, seed: int, api):
        entries = inputs.schedule(random.Random(seed), inputs.SWEEP_MIX, self.pool)

        def op():
            entry = next(entries)
            start = _now()
            rows = api.run_sweep(sweep_spec(api, self.configs, entry))
            kinks = [api.kink_location(rows, v) for v in VARIANTS]
            elapsed = _now() - start
            outcome = OK if sweep_digest(rows, kinks) == self.digests[entry.key] else WRONG
            return elapsed, len(rows) * len(VARIANTS), outcome

        return op

    def warm(self) -> None:
        for entries in self.pool.values():
            entry = entries[0]
            rows = self.api.run_sweep(sweep_spec(self.api, self.configs, entry))
            self.api.kink_location(rows, "full")


class OracleLong(InProcess):
    name = "oracle_long"
    modules = ("glshift.trace",)
    item = "trace steps"
    items_name = "trace_steps_per_s"

    def __init__(self, expected: dict) -> None:
        super().__init__()
        self.pool = inputs.oracle_pool()
        self.reference = expected["oracle"]

    def check(self, entry: inputs.OracleInput, result) -> int:
        values = oracle_values(result)
        reference = self.reference[entry.key]
        tolerances = ((1e-9, 0.0), (1e-12, 0.0), (1e-9, 0.0), (1e-6, 1e-9), (1e-6, 1e-9))
        if not all(_close(v, r, *tol) for v, r, tol in zip(values, reference, tolerances)):
            return WRONG
        if entry == inputs.ORACLE_GOLDEN:
            golden = inputs.ORACLE_GOLDEN_VALUES
            if not (
                _close(result.trace_total, golden["trace_total"], 1e-12, 0.0)
                and result.closed_form_total == golden["closed_form_total"]
                and _close(result.sample_mean_total, golden["sample_mean_total"], 1e-12, 0.0)
                and _close(result.z_score, golden["z_score"], 1e-9, 0.0)
            ):
                return WRONG
        if entry.correlated and not abs(result.z_score) > 3.0:
            return WRONG
        return OK

    def _operation(self, seed: int, api):
        entries = inputs.schedule(random.Random(seed), inputs.ORACLE_MIX, self.pool)

        def op():
            entry = next(entries)
            spec = oracle_spec(api, entry)
            start = _now()
            result = api.compare_with_means(spec, entry.gamma, entry.embodied)
            elapsed = _now() - start
            return elapsed, entry.steps, self.check(entry, result)

        return op

    def warm(self) -> None:
        # the first out-of-cache call costs far more than later ones
        for entry in self.pool["in_cache"][:3] + self.pool["out_of_cache"][:2]:
            self.api.compare_with_means(oracle_spec(self.api, entry), entry.gamma, entry.embodied)

    def traced_extras(self) -> dict[str, float]:
        """Peak traced allocation of one out-of-cache call (tracemalloc)."""
        import tracemalloc

        entry = self.pool["out_of_cache"][0]
        spec = oracle_spec(self.api, entry)
        tracemalloc.start()
        try:
            self.api.compare_with_means(spec, entry.gamma, entry.embodied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"trace.peak_alloc_mb": peak / 2**20, "trace.computed_bytes_per_step": peak / entry.steps}


# ------------------------------------------------------------ cli_cold


def _table_value(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.startswith(label):
            return float(line[len(label):].strip().rstrip("%").replace(",", ""))
    raise ValueError(f"no {label!r} row")


def check_evaluate(argv: tuple[str, ...], out: str) -> int:
    """Compare a ``gls evaluate`` report with the paper goldens."""
    name = argv[1]
    baseline_t, blended_t, reduction_pct = inputs.EVALUATE_GOLDENS[name]
    full = "full" in argv
    try:
        if "--csv" in argv:
            fields = out.splitlines()[1].split(",")
            baseline, blended, reduction = float(fields[4]), float(fields[6]), float(fields[7])
        else:
            baseline = _table_value(out, "Baseline (tCO2e/y)")
            blended = _table_value(out, "Geographic load shifting (tCO2e/y)")
            reduction = _table_value(out, "Emission reduction (%)")
    except (ValueError, IndexError):
        return WRONG
    # tolerances of the acceptance tests, plus half a unit for rounded output
    rounding_t, rounding_pct = (0.0, 0.0) if full else (0.5, 0.05)
    if name.startswith("table2"):
        ok = (
            abs(baseline - baseline_t) <= 1.0 + rounding_t
            and abs(blended - blended_t) <= 1.0 + rounding_t
            and abs(reduction - reduction_pct) <= 0.1 + rounding_pct
        )
    else:
        ok = (
            abs(baseline - baseline_t) <= 0.005 * baseline_t
            and abs(blended - blended_t) <= 0.005 * blended_t
            and abs(reduction - reduction_pct) <= 0.3 + rounding_pct
        )
    return OK if ok else WRONG


def check_cli(argv: tuple[str, ...], code: int, out: str, err_lines: list[str], expected: dict) -> int:
    command = argv[0]
    if command == "evaluate":
        return check_evaluate(argv, out) if code == 0 else WRONG
    if command == "growth":
        reduction, growth = float(argv[2]), float(argv[4])
        years = math.log(1.0 / (1.0 - reduction)) / math.log(1.0 + growth)
        return OK if code == 0 and out == f"{years:.2f}\n" else WRONG
    recorded = expected[" ".join(argv)]
    if code != recorded["exit"] or text_digest(out) != recorded["stdout"]:
        return WRONG
    if command == "sweep":
        kinks = "\n".join(line for line in err_lines if line.startswith("kink["))
        return OK if text_digest(kinks) == recorded["kinks"] else WRONG
    if argv == ("oracle",):
        golden = (
            "trace_total       = 787.976184\n"
            "closed_form_total = 788.000000\n"
            "sample_mean_total = 787.955561\n"
            "z_score           = -0.1265\n"
        )
        return OK if out == golden else WRONG
    if "--correlated" in argv:
        z = float(out.splitlines()[-1].split("=")[1])
        return OK if code == 3 and z > 3.0 else WRONG
    return OK


def _importtime(lines: list[str]) -> tuple[float, float]:
    """Cumulative import time of the glshift package and of numpy, in ms."""
    glshift_us = numpy_us = 0
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, package = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(package) - len(package.lstrip(" "))
        name = package.strip()
        if depth == 1 and (name == "glshift" or name.startswith("glshift.")):
            glshift_us += int(cumulative)
        if name == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
    return glshift_us / 1000.0, numpy_us / 1000.0


class CliCold:
    """Fresh ``gls`` processes, one at a time."""

    name = "cli_cold"
    modules = ("glshift.cli",)
    item = "gls processes"
    items_name = "procs_per_s"
    window_s = 0.0

    def __init__(self, expected: dict) -> None:
        self.expected = expected["cli"]
        self.pool = inputs.cli_pool()
        self.env = child_env()
        self.child_rss_mb: list[float] = []
        self.processes: list[dict] = []

    def spawn(self, command: list[str]) -> tuple[int, str, str, int, float]:
        """Run one child; returns exit code, stdout, stderr, wall ns, peak RSS MB.

        Drains both pipes until the child closes them, then reaps it with
        wait4, which gives that child's own peak RSS.
        """
        start = _now()
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT
        )
        output = {child.stdout: bytearray(), child.stderr: bytearray()}
        with selectors.DefaultSelector() as selector:
            for pipe in output:
                selector.register(pipe, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        output[key.fileobj] += data
                    else:
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(child.pid, 0)
        wall = _now() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return (
            child.returncode,
            output[child.stdout].decode(),
            output[child.stderr].decode(),
            wall,
            usage.ru_maxrss / 1024.0,
        )

    def operation(self, seed: int, tracer: tracing.Tracer | None = None):
        commands = inputs.schedule(random.Random(seed), inputs.CLI_MIX, self.pool)

        def op():
            argv = next(commands)
            if tracer is None:
                command = [sys.executable, "-c", GLS, *argv]
            else:
                command = [sys.executable, "-X", "importtime", str(GLS_CHILD), *argv]
            code, out, err, wall, rss = self.spawn(command)
            self.child_rss_mb.append(rss)
            err_lines = err.splitlines()
            if tracer is not None:
                self.record(tracer, argv[0], wall, err_lines)
            return wall, 1, check_cli(argv, code, out, err_lines, self.expected)

        return op

    def record(self, tracer: tracing.Tracer, command: str, wall: int, err_lines: list[str]) -> None:
        dumps = [line for line in err_lines if line.startswith("BENCH-SPANS ")]
        if not dumps:
            return
        rows, counters = tracing.load_dump(dumps[-1][len("BENCH-SPANS "):])
        first = len(tracer)
        tracer.extend(rows, counters, tracer.op)
        spans = {tracer.name(i).split("/")[0]: i for i in range(first, len(tracer))
                 if tracer.parents[i] < first}
        durations = {name: tracer.ends[i] - tracer.starts[i] for name, i in spans.items()}
        main = spans.get("cli.main")
        children = sum(
            tracer.ends[i] - tracer.starts[i]
            for i in range(first, len(tracer))
            if main is not None and tracer.parents[i] == main
        )
        import_ms, numpy_ms = _importtime(err_lines)
        self.processes.append(
            {
                "command": command,
                "wall": wall,
                "import": durations.get("cli.import", 0),
                "main": durations.get("cli.main", 0),
                "children": children,
                "import_ms": import_ms,
                "numpy_ms": numpy_ms,
            }
        )

    def warm(self) -> None:
        op = self.operation(-1)
        for _ in range(3):
            op()
        self.child_rss_mb.clear()

    def stop_tracing(self) -> None:
        """Nothing to undo: only the traced children were patched."""

    def python_floor_ms(self, runs: int = 5) -> float:
        walls = [self.spawn([sys.executable, "-c", "pass"])[3] for _ in range(runs)]
        return tracing.median_or_zero(walls) / 1e6

    def traced_extras(self) -> dict[str, float]:
        procs = self.processes
        med = tracing.median_or_zero
        metrics = {
            "cli.import_ms": med([p["import_ms"] for p in procs]),
            "cli.import_numpy_ms": med([p["numpy_ms"] for p in procs]),
            "cli.process_overhead_ms": med([(p["wall"] - p["import"] - p["main"]) / 1e6 for p in procs]),
            "cli.python_floor_ms": self.python_floor_ms(),
            "cli.self_ms": med([(p["main"] - p["children"]) / 1e6 for p in procs]),
        }
        for command in ("evaluate", "sweep", "growth", "oracle"):
            metrics[f"cli.main_ms.{command}"] = med(
                [p["main"] / 1e6 for p in procs if p["command"] == command]
            )
        return metrics


WORKLOADS = {w.name: w for w in (CliCold, ScenarioBatch, SweepDense, OracleLong)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
