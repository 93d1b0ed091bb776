"""Command-line front end: gls evaluate | sweep | growth | oracle.

Exit codes: 0 success, 1 validation error, 2 I/O error or a malformed
command line (argparse), 3 statistical mismatch (oracle z-score above 3).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path

from .model import EmissionsReport, blended_emissions
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .sweeps import (
    SWEEP_PARAMETERS, VARIANTS, SweepSpec, kink_location, run_sweep, years_compensated,
)
from .trace import TraceSpec, Uniform, compare_with_means

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_STATISTICAL = 3


def round_half_away(value: float) -> int:
    """Round to the nearest integer, ties away from zero."""
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


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
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as load_scenario counts lines; the
        # codec's object and offset leave out a byte-order mark
        before = exc.object[: exc.start].decode("utf-8")
        raise ScenarioError("not UTF-8 text", len((before + "?").splitlines())) from None
    return load_scenario(text)


def evaluate_results(report: EmissionsReport) -> list[tuple[str, str | None, float]]:
    """The results of `gls evaluate`, in CSV order, for every output form.

    Each is (CSV column, table label or None if the table omits it, value
    in the column's unit: tonnes for _t, percent for _pct).
    """
    return [
        ("alpha_eff", None, report.alpha_eff),
        ("overhead_t", "Overhead (tCO2e/y)", report.overhead / 1000.0),
        ("embodied_t", "Embodied (tCO2e/y)", report.embodied_total / 1000.0),
        ("baseline_t", "Baseline (tCO2e/y)", report.baseline_total / 1000.0),
        ("gls_t", None, report.gls_total / 1000.0),
        ("blended_t", "Geographic load shifting (tCO2e/y)", report.blended_total / 1000.0),
        ("reduction_pct", "Emission reduction (%)", report.reduction * 100.0),
    ]


def _rounded(column: str, value: float, grouping: str = "") -> str:
    """A result as the table and the rounded CSV print it."""
    if column.endswith("_t"):
        return format(round_half_away(value), grouping)  # whole tonnes
    return f"{value:.1f}" if column.endswith("_pct") else f"{value:.6f}"


def render_table(rows: list[tuple[str, str]]) -> str:
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.precision == "full" and not args.csv:
        raise ValueError("--precision full needs --csv")
    config = _read_scenario(args.scenario)
    report = blended_emissions(config.hi, config.lo, config.gamma, config.policy)
    results = evaluate_results(report)
    if args.csv:
        values = [repr(v) if args.precision == "full" else _rounded(c, v) for c, _, v in results]
        header = ",".join(["name"] + [column for column, _, _ in results])
        sys.stdout.write(header + "\n" + ",".join([config.name] + values) + "\n")
        return EXIT_OK
    rows = [
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
    ]
    for column, label, value in results:
        if label is not None:
            percent = "%" if column.endswith("_pct") else ""
            rows.append((label, _rounded(column, value, ",") + percent))
    print(render_table(rows))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _read_scenario(args.scenario)
    variants = tuple(args.variants.split(","))
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
    import numpy as np  # already loaded by run_sweep

    table = np.asarray(rows).view((float, 1 + len(variants)))  # no copy
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        # a handle, not the path: savetxt would gzip a .gz path
        np.savetxt(
            out, table, fmt=["%.6g"] + ["%.12g"] * len(variants), delimiter=",",
            header="load," + ",".join(variants), comments="",
        )
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
    p_sweep.add_argument(
        "--variants", default=",".join(VARIANTS), help="comma-separated subset of %(default)s"
    )
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
