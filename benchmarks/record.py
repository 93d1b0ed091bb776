"""Record the expected outputs the benchmark checks against.

    python3 benchmarks/record.py

Evaluates every pool entry with the code in ``src/`` and writes
``expected.json``: digests of the full-precision results of the valid
generated scenarios and of every sweep, the oracle's five outputs per
trace spec, and exit code plus output digests of the ``gls sweep`` and
``gls oracle`` commands.  Malformed scenarios get no digest: they must be
rejected.  Those the current code accepts anyway are listed as known
defects, which the benchmark probes apart from its timed operations.  Re-recording is only right when a change of the program's
results is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys

import inputs
import tracing
import workloads
from workloads import ROOT, SRC, VARIANTS


def main() -> int:
    sys.path.insert(0, str(SRC))
    api = tracing.public_api()
    pool = inputs.scenario_pool()
    scenario, known_defects = [], []
    for index, entry in enumerate(pool):
        if entry.malformed:
            scenario.append(None)
            try:
                config = api.load_scenario(entry.text)
                api.blended_emissions(config.hi, config.lo, config.gamma, config.policy)
            except (api.ScenarioError, api.ModelError):
                pass
            else:
                known_defects.append(index)
            continue
        config = api.load_scenario(entry.text)
        report = api.blended_emissions(config.hi, config.lo, config.gamma, config.policy)
        scenario.append(workloads.report_digest(report))

    configs = {name: api.load_scenario(workloads.bundled_text(name)) for name in inputs.BUNDLED}
    sweep = {}
    for entries in inputs.sweep_pool().values():
        for entry in entries:
            rows = api.run_sweep(workloads.sweep_spec(api, configs, entry))
            kinks = [api.kink_location(rows, v) for v in VARIANTS]
            sweep[entry.key] = workloads.sweep_digest(rows, kinks)

    oracle = {}
    for entries in inputs.oracle_pool().values():
        for entry in entries:
            result = api.compare_with_means(workloads.oracle_spec(api, entry), entry.gamma, entry.embodied)
            oracle[entry.key] = workloads.oracle_values(result)

    cli = {}
    commands = inputs.cli_pool()
    for argv in commands["sweep"] + commands["oracle"]:
        result = subprocess.run(
            [sys.executable, "-c", workloads.GLS, *argv],
            capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT,
        )
        kinks = "\n".join(line for line in result.stderr.splitlines() if line.startswith("kink["))
        cli[" ".join(argv)] = {
            "exit": result.returncode,
            "stdout": workloads.text_digest(result.stdout),
            "kinks": workloads.text_digest(kinks),
        }

    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    expected = {
        "recorded_at": sha,
        "scenario_pool_sha256": inputs.pool_fingerprint([entry.text for entry in pool]),
        "scenario": scenario,
        "scenario_known_defects": known_defects,
        "sweep": sweep,
        "oracle": oracle,
        "cli": cli,
    }
    path = workloads.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=0) + "\n", encoding="utf-8")
    malformed = sum(1 for entry in pool if entry.malformed)
    print(f"wrote {path.relative_to(ROOT)} at {sha}")
    print(f"scenario pool: {len(pool)} texts, {malformed} malformed, {len(known_defects)} of them accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
