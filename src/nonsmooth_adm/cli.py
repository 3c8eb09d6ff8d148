"""Command-line front end.

Commands
--------
run      execute a preset or scenario file, write trace.csv / metrics.json
compare  run the set-valued controller and the naive clamped baseline side by side
sweep    rerun a scenario over a list of values for one parameter
verify   run the oracle-equivalence and invariant suites
plot     re-render the SVG panels from an existing trace.csv

Exit codes: 0 success, 2 configuration error, 3 simulation failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .msta import SolverConvergenceError
from .plant import SimulationBlowUp
from .plotting import compare_panels, trace_panels
from .sim import (
    Scenario,
    ScenarioError,
    apply_override,
    compute_metrics,
    load_scenario,
    metrics_to_dict,
    naive_variant,
    presets,
    run_scenario,
    save_scenario,
    sweep,
    trace_from_csv,
    trace_to_csv,  # noqa: F401  (perfbench patches it under this name)
    write_trace_csv,
)
from .verify import GROUPS, run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIM = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


def _resolve_scenario(name: str, overrides: list[str]) -> Scenario:
    bundled = presets()
    if name in bundled:
        sc = bundled[name]
    elif os.path.exists(name):
        try:
            sc = load_scenario(name)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"could not parse scenario file {name!r}: {exc}") from exc
    else:
        raise ConfigError(
            f"unknown scenario {name!r}; available presets: {', '.join(sorted(bundled))}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            apply_override(sc, key.strip(), value.strip())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad override {item!r}: {exc}") from exc
    return sc


def _write_outputs(sc: Scenario, trace, outdir: str, plot: bool, prefix: str = "") -> dict:
    os.makedirs(outdir, exist_ok=True)
    write_trace_csv(trace, os.path.join(outdir, f"{prefix}trace.csv"))
    metrics = compute_metrics(trace, sc)
    with open(os.path.join(outdir, f"{prefix}metrics.json"), "w") as f:
        json.dump(metrics_to_dict(metrics), f, indent=2)
    save_scenario(sc, os.path.join(outdir, f"{prefix}scenario.json"))
    if plot:
        trace_panels(trace, list(sc.controller.torque_limits), outdir, prefix=prefix)
    return metrics_to_dict(metrics)


def cmd_run(args) -> int:
    sc = _resolve_scenario(args.scenario, args.set)
    trace = run_scenario(sc)
    metrics = _write_outputs(sc, trace, args.out, args.plot)
    print(f"ran {sc.name}: {trace.t.size} steps, outputs in {args.out}")
    for key, value in metrics.items():
        print(f"  {key}: {value}")
    return EXIT_OK


def cmd_compare(args) -> int:
    sc = _resolve_scenario(args.scenario, args.set)
    if sc.controller.kind != "proposed":
        raise ConfigError("compare expects a scenario configured for the proposed controller")
    naive = naive_variant(sc)
    trace_p = run_scenario(sc)
    trace_n = run_scenario(naive)
    os.makedirs(args.out, exist_ok=True)
    m_p = _write_outputs(sc, trace_p, args.out, False, prefix="proposed_")
    m_n = _write_outputs(naive, trace_n, args.out, False, prefix="naive_")
    with open(os.path.join(args.out, "metrics_compare.json"), "w") as f:
        json.dump({"proposed": m_p, "naive": m_n}, f, indent=2)
    if args.plot:
        compare_panels(trace_p, trace_n, "proposed", "naive", args.out)
    print(f"compared controllers on {sc.name}; outputs in {args.out}")
    for key in m_p:
        print(f"  {key}: proposed={m_p[key]} naive={m_n[key]}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc = _resolve_scenario(args.scenario, args.set)
    try:
        values = json.loads(f"[{args.values}]")     # the items of one JSON array
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"could not parse sweep values {args.values!r}: no value given")
    rows = sweep(sc, args.param, values)    # checks every value before the first run
    os.makedirs(args.out, exist_ok=True)
    table = [{"value": v, **metrics_to_dict(m)} for v, m in rows]
    with open(os.path.join(args.out, "sweep.json"), "w") as f:
        json.dump({"param": args.param, "rows": table}, f, indent=2)
    print(f"swept {args.param} over {values} on {sc.name}")
    for row in table:
        print("  " + json.dumps(row))
    return EXIT_OK


def cmd_verify(args) -> int:
    groups = [args.group] if args.group else None
    try:
        results = run_verification(groups)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.group}:{r.name} ({r.detail})")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_plot(args) -> int:
    if not os.path.exists(args.scenario):
        raise ConfigError(f"trace file {args.scenario!r} not found")
    try:
        trace = trace_from_csv(args.scenario)
    except ValueError as exc:
        raise ConfigError(f"could not parse trace file {args.scenario!r}: {exc}") from exc
    if args.limits is None:
        limits = [float(abs(trace.tau).max() or 1.0)] * trace.dof
    else:
        try:
            limits = [float(x) for x in args.limits.split(",")]
        except ValueError:
            limits = []
        if len(limits) != trace.dof or not all(math.isfinite(x) and x > 0.0 for x in limits):
            raise ConfigError(f"--limits {args.limits!r} must hold {trace.dof} finite positive "
                              f"torque limit(s), one per joint of the trace")
    written = trace_panels(trace, limits, args.out)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nonsmooth-adm",
                                     description="set-valued admittance control simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_help):
        p.add_argument("--scenario", required=True, help=scenario_help)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario field (dotted path), repeatable")
        p.add_argument("--plot", action="store_true", help="also write SVG panels")

    p = sub.add_parser("run", help="run one scenario")
    common(p, "preset name or scenario JSON path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="proposed controller vs naive clamped baseline")
    common(p, "preset name or scenario JSON path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    common(p, "preset name or scenario JSON path")
    p.add_argument("--param", required=True, help="dotted parameter path, e.g. env.ks_N_per_m")
    p.add_argument("--values", required=True,
                   help="comma-separated JSON values, e.g. -1.5,-2.0 or [3,4],[5,6]")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the invariant and oracle suites")
    p.add_argument("--group", default=None, help=f"run one group ({', '.join(GROUPS)})")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plot", help="render SVG panels from an existing trace.csv")
    p.add_argument("--scenario", required=True, help="path to a trace.csv")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--limits", default=None, help="comma-separated torque limits for the panel")
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_SIM
    except SolverConvergenceError as exc:
        print(f"simulation failure: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SIM
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
