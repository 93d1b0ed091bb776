"""Command-line front end: gls evaluate | sweep | growth | oracle.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 statistical
mismatch (oracle z-score above 3).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .model import EmissionsReport, blended_emissions
from .scenario import ScenarioConfig, load_scenario
from .sweeps import (
    SWEEP_PARAMETERS, VARIANTS, SweepSpec, kink_location, run_sweep, years_compensated,
)
from .trace import TraceSpec, Uniform, compare_with_means

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_STATISTICAL = 3

CSV_HEADER = "name,alpha_eff,overhead_t,embodied_t,baseline_t,gls_t,blended_t,reduction_pct"


def round_half_away(value: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def tonnes(kg: float) -> int:
    return round_half_away(kg / 1000.0)


def builtin_scenario_path(name: str) -> Path | None:
    """Path of a bundled scenario file, or None if there is no such file."""
    path = Path(__file__).with_name("scenarios") / f"{name}.scenario"
    return path if path.is_file() else None


def _read_scenario(path_arg: str) -> ScenarioConfig:
    path = Path(path_arg)
    if not path.is_file():
        builtin = builtin_scenario_path(path_arg)
        if builtin is None:
            raise FileNotFoundError(f"scenario file not found: {path_arg}")
        path = builtin
    return load_scenario(path.read_text(encoding="utf-8"))


def build_report_table(
    config: ScenarioConfig, report: EmissionsReport
) -> list[tuple[str, str]]:
    """Rows of the evaluation report: parameters first, then results."""
    return [
        ("Scenario", config.name),
        ("Nodes per site (hi/lo)", f"{config.hi.nodes_per_site:,} / {config.lo.nodes_per_site:,}"),
        ("Sites, high-CI", f"{config.hi.site_count}"),
        ("Sites, low-CI", f"{config.lo.site_count}"),
        ("Embodied per node (kgCO2e/y)", f"{config.hi.embodied_per_node:,.0f}"),
        ("Op full-load per node, high-CI (kgCO2e/y)", f"{config.hi.op_full_per_node:,.0f}"),
        ("Op full-load per node, low-CI (kgCO2e/y)", f"{config.lo.op_full_per_node:,.0f}"),
        ("Load, high-CI", f"{config.hi.load:.2f}"),
        ("Load, low-CI", f"{config.lo.load:.2f}"),
        ("Idle fraction", f"{config.gamma:.2f}"),
        ("Movable fraction alpha", f"{config.policy.alpha:.2f}"),
        ("Time fraction beta", f"{config.policy.beta:.2f}"),
        ("Overhead factor eta", f"{config.policy.eta:.2f}"),
        ("Overhead (tCO2e/y)", f"{tonnes(report.overhead):,}"),
        ("Embodied (tCO2e/y)", f"{tonnes(report.embodied_total):,}"),
        ("Baseline (tCO2e/y)", f"{tonnes(report.baseline_total):,}"),
        ("Geographic load shifting (tCO2e/y)", f"{tonnes(report.blended_total):,}"),
        ("Emission reduction (%)", f"{report.reduction * 100.0:.1f}%"),
    ]


def render_table(rows: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def _evaluate_csv(config: ScenarioConfig, report: EmissionsReport, full_precision: bool) -> str:
    if full_precision:
        fields = [
            config.name,
            repr(report.alpha_eff),
            repr(report.overhead / 1000.0),
            repr(report.embodied_total / 1000.0),
            repr(report.baseline_total / 1000.0),
            repr(report.gls_total / 1000.0),
            repr(report.blended_total / 1000.0),
            repr(report.reduction * 100.0),
        ]
    else:
        fields = [
            config.name,
            f"{report.alpha_eff:.6f}",
            str(tonnes(report.overhead)),
            str(tonnes(report.embodied_total)),
            str(tonnes(report.baseline_total)),
            str(tonnes(report.gls_total)),
            str(tonnes(report.blended_total)),
            f"{report.reduction * 100.0:.1f}",
        ]
    return CSV_HEADER + "\n" + ",".join(fields) + "\n"


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.precision == "full" and not args.csv:
        raise ValueError("--precision full needs --csv")
    config = _read_scenario(args.scenario)
    report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
    if args.csv:
        sys.stdout.write(_evaluate_csv(config, report, args.precision == "full"))
    else:
        print(render_table(build_report_table(config, report)))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _read_scenario(args.scenario)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    spec = SweepSpec(
        base=config,
        swept_parameter=args.param,
        start=args.start,
        stop=args.stop,
        step=args.step,
        variants=variants,
    )
    rows = run_sweep(spec)
    # before any output, so that a failing kink check leaves no CSV behind
    kinks = [kink_location(rows, variant) for variant in variants] if args.kink else []
    lines = ["load," + ",".join(variants)]
    for row in rows:
        values = ",".join(f"{row.reductions[v]:.12g}" for v in variants)
        lines.append(f"{row.load:.6g},{values}")
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    for variant, location in zip(variants, kinks):
        label = "none" if location is None else f"{location:.6g}"
        print(f"kink[{variant}] = {label}", file=sys.stderr)
    return EXIT_OK


def cmd_growth(args: argparse.Namespace) -> int:
    years = years_compensated(args.reduction, args.growth)
    print(f"{years:.2f}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = TraceSpec(
        steps=args.steps,
        seed=args.seed,
        load_dist=Uniform(args.load_min, args.load_max),
        ci_dist=Uniform(args.ci_min, args.ci_max),
        correlated=args.correlated,
    )
    result = compare_with_means(spec, args.gamma, args.embodied)
    print(f"trace_total       = {result.trace_total:.6f}")
    print(f"closed_form_total = {result.closed_form_total:.6f}")
    print(f"sample_mean_total = {result.sample_mean_total:.6f}")
    print(f"z_score           = {result.z_score:.4f}")
    return EXIT_OK if abs(result.z_score) <= 3.0 else EXIT_STATISTICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gls",
        description="Emission reductions from geographic load shifting of compute workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate one scenario file")
    p_eval.add_argument("scenario", help="scenario file path or bundled scenario name")
    p_eval.add_argument("--csv", action="store_true", help="emit one CSV row")
    p_eval.add_argument(
        "--precision", choices=("round", "full"), default="round",
        help="CSV value precision (full = unrounded)",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="reduction-vs-load sweep as CSV")
    p_sweep.add_argument("scenario", help="scenario file path or bundled scenario name")
    p_sweep.add_argument("--param", choices=SWEEP_PARAMETERS, default="load_both")
    p_sweep.add_argument("--from", dest="start", type=float, default=0.0)
    p_sweep.add_argument("--to", dest="stop", type=float, default=1.0)
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.add_argument("--variants", help="comma-separated subset of " + ",".join(VARIANTS))
    p_sweep.add_argument("--out", help="write CSV to this path instead of stdout")
    p_sweep.add_argument("--kink", action="store_true", help="report kink locations on stderr")
    p_sweep.set_defaults(func=cmd_sweep)

    p_growth = sub.add_parser("growth", help="years of growth compensated by a reduction")
    p_growth.add_argument("--reduction", type=float, required=True)
    p_growth.add_argument("--growth", type=float, required=True)
    p_growth.set_defaults(func=cmd_growth)

    p_oracle = sub.add_parser("oracle", help="trace-vs-closed-form comparison")
    p_oracle.add_argument("--steps", type=int, default=100_000)
    p_oracle.add_argument("--seed", type=int, default=42)
    p_oracle.add_argument("--gamma", type=float, default=0.3)
    p_oracle.add_argument("--embodied", type=float, default=444.0)
    p_oracle.add_argument("--load-min", type=float, default=0.6)
    p_oracle.add_argument("--load-max", type=float, default=1.0)
    p_oracle.add_argument("--ci-min", type=float, default=300.0)
    p_oracle.add_argument("--ci-max", type=float, default=500.0)
    p_oracle.add_argument(
        "--correlated", action="store_true",
        help="negative control: load trace follows the rate trace",
    )
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ScenarioError and ModelError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
