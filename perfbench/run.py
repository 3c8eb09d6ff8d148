"""Benchmark of the nonsmooth-adm package, timed from outside the package.

    python3 perfbench/run.py --workload replay_2dof --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --profile impact_compare --seed 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs untraced passes for half the time and traced passes for the other half,
and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A results file with the same numbers and the run's provenance goes to
``.perfbench_out/results/``; traced runs also write their spans to
``.perfbench_out/spans/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import Tracer

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "NONSMOOTH_ADM_THREADS": os.environ.get("NONSMOOTH_ADM_THREADS"),
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Start a fresh process that only sets the workload up; return the time
    until it reports ready, and its import time of the CLI module."""
    workdir = OUT / f"probe-{os.getpid()}"
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed),
           str(workdir)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} exited with {rc}")
    return elapsed, json.loads(line)["cli_import_s"]


def run_passes(wl, seconds: float) -> tuple[list[float], list[float], list]:
    """Timed passes until ``seconds`` have elapsed (at least one); each pass
    is audited after its timing stops.  Returns every pass's wall seconds,
    its time in reference units (the sum over its segments), and its
    audit."""
    walls, refs, results = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        wl.run_pass()
        walls.append(perf_counter() - t0)
        results.append(wl.finish_pass())
        refs.append(sum(r for _, r in wl.segments))
        if perf_counter() - start >= seconds:
            return walls, refs, results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return float(ordered[k])


def end_to_end(wl, pass_refs, results, setup: list[float], peak_rss_mb: float) -> dict:
    lat = wl.log.ctrl_ref
    behaviour = next((r.behaviour for r in results if r.behaviour), {})
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(pass_refs), "ref"),
        "ctrl_step_p50_ref": (percentile(lat, 0.50) if lat else 0.0, "ref"),
        "ctrl_step_p90_ref": (percentile(lat, 0.90) if lat else 0.0, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "steady_force_err": (behaviour.get("steady_force_err", 0.0), "ratio"),
        "settle_time_s": (behaviour.get("settle_time_s", 0.0), "s"),
    }


def per_layer(summary: dict, passes: int, cli_import_s: float, overhead: float) -> dict:
    spans, counts, maxima = summary["spans"], summary["counts"], summary["maxima"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name, key="total_ns"):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(name, unit_ns, key="total_ns"):
        return ratio(total(name, key), calls(name)) / unit_ns

    msta = [n for n in spans if n.startswith("msta.")]
    msta_calls = sum(calls(n) for n in msta)
    solves = counts.get("msta.solves", 0)
    step = "admittance.admittance_step"
    naive = "admittance.baseline_naive_step"
    substeps = counts.get("plant.substeps", 0)
    return {
        "admittance.step_us": (mean(step, 1e3), "us"),
        "admittance.step_self_us": (mean(step, 1e3, "self_ns"), "us"),
        "admittance.proxy_predict_us": (mean("admittance.proxy_predict", 1e3), "us"),
        "admittance.inner_loop_candidate_us": (mean("admittance.inner_loop_candidate", 1e3), "us"),
        "admittance.naive_step_us": (mean(naive, 1e3), "us"),
        "admittance.calls": ((calls(step) + calls(naive)) / passes, "count"),
        "admittance.saturated_frac": (ratio(counts.get("admittance.saturated", 0), calls(step)),
                                      "ratio"),
        "msta.step_us": (ratio(sum(total(n) for n in msta), msta_calls) / 1e3, "us"),
        "msta.calls": (msta_calls / passes, "count"),
        "msta.fp_iters_mean": (ratio(counts.get("msta.fp_iters", 0), solves), "count"),
        "msta.fp_iters_max": (maxima.get("msta.fp_iters_max", 0), "count"),
        "msta.closed_form_frac": (ratio(counts.get("msta.closed_form", 0), solves), "ratio"),
        "setvalued.project_box_us": (mean("setvalued.project_box", 1e3), "us"),
        "setvalued.vi_residual_us": (mean("setvalued.variational_residual", 1e3), "us"),
        "setvalued.vi_probes_per_call": (ratio(counts.get("setvalued.vi_probes", 0),
                                               calls("setvalued.variational_residual")), "count"),
        "plant.integrate_us": (mean("plant.integrate_substep", 1e3), "us"),
        "plant.substep_ns": (ratio(total("plant.integrate_substep"), substeps), "ns"),
        "plant.substeps": (substeps / passes, "count"),
        "plant.contact_us": (mean("plant.contact_wrench", 1e3), "us"),
        "plant.build_model_calls": (calls("plant.build_model") / passes, "count"),
        "sim.run_s": (mean("sim.run_scenario", 1e9), "s"),
        "sim.runner_self_us_per_step": (ratio(total("sim.run_scenario", "self_ns"),
                                              counts.get("sim.steps", 0)) / 1e3, "us"),
        "sim.metrics_ms": (mean("sim.compute_metrics", 1e6), "ms"),
        "sim.trace_write_ms": (mean("sim.trace_to_csv", 1e6), "ms"),
        "sim.trace_read_ms": (mean("sim.trace_from_csv", 1e6), "ms"),
        "sim.trace_bytes": (counts.get("sim.trace_bytes", 0) / passes, "B"),
        "sim.sweep_wall_s": (mean("sim.sweep", 1e9), "s"),
        "sim.sweep_child_s": (mean("sim.sweep", 1e9, "children_ns"), "s"),
        "plotting.svg_ms": (mean("plotting.line_chart", 1e6), "ms"),
        "plotting.svg_bytes": (counts.get("plotting.svg_bytes", 0) / passes, "B"),
        "cli.import_s": (cli_import_s, "s"),
        "cli.self_ms": (mean("cli.main", 1e6, "self_ns"), "ms"),
        "trace_overhead_frac": (overhead, "ratio"),
    }


def profile(name: str, seed: int) -> int:
    """Dump cProfile stats for one untraced pass (never part of a timed run)."""
    import cProfile
    import pstats

    wl = workloads.make(name, seed, OUT / f"work-{os.getpid()}")
    wl.setup()
    wl.generate()
    wl.install()
    prof = cProfile.Profile()
    prof.runcall(wl.run_pass)
    res = wl.finish_pass()
    wl.uninstall()
    shutil.rmtree(wl.workdir, ignore_errors=True)
    path = OUT / "profiles" / f"{name}-seed{seed}.pstats"
    path.parent.mkdir(parents=True, exist_ok=True)
    prof.dump_stats(str(path))
    pstats.Stats(str(path)).sort_stats("cumulative").print_stats(30)
    print(f"pass audit: {res.ok}/{res.attempted} ops passed")
    print(f"profile written to {path}")
    return 0 if res.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", metavar="WORKLOAD", choices=sorted(workloads.WORKLOADS),
                    help="dump cProfile stats for one untraced pass and exit")
    args = ap.parse_args(argv)
    if not (args.workload or args.profile):
        ap.error("--workload or --profile is required")

    try:
        workloads.ensure_src()
    except workloads.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # serial sweeps: with pool threads contending for the interpreter lock,
    # sweep pass times varied by +-13 % within a run and did not follow the
    # single-threaded reference kernel (see README.md)
    os.environ["NONSMOOTH_ADM_THREADS"] = "1"
    if args.profile:
        return profile(args.profile, args.seed)

    name = args.workload
    probes = [probe_setup(name, args.seed) for _ in range(SETUP_PROBES)]
    setup = [p[0] for p in probes]

    wl = workloads.make(name, args.seed, OUT / f"work-{os.getpid()}")
    t0 = perf_counter()
    wl.setup()
    inproc_setup_s = perf_counter() - t0
    wl.generate()
    wl.install()

    tracer = None
    if args.trace:
        # half the time untraced, half traced: the ratio is the tracing cost
        _, plain_refs, plain = run_passes(wl, args.seconds / 2)
        tracer = Tracer()
        workloads.install_trace_points(tracer, wl)
        walls, pass_refs, results = run_passes(wl, args.seconds / 2)
        results += plain
        tracer.unpatch()
    else:
        walls, pass_refs, results = run_passes(wl, args.seconds)
    wl.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(wl.workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    correct = failed == 0 and not problems
    behaviour = next((r.behaviour for r in results if r.behaviour), {})
    log = wl.log
    extras = {
        "passes": len(walls),
        "failed_frac": failed / attempted,
        "rebound_count": behaviour.get("rebound_count"),
        "wall_median_s": statistics.median(walls),
        "ref_median_ms": statistics.median(log.refs_s) * 1e3 if log.refs_s else None,
        "ctrl_step_calls": len(log.ctrl_ns),
        "ctrl_step_us_p50": percentile(log.ctrl_ns, 0.5) / 1e3 if log.ctrl_ns else None,
        "ctrl_step_us_p90": percentile(log.ctrl_ns, 0.9) / 1e3 if log.ctrl_ns else None,
        "setup_s_runs": setup,
        "setup_s_in_process": inproc_setup_s,
        "pass_walls_s": walls,
        "pass_refs": pass_refs,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    if tracer is not None:
        summary = tracer.summary()
        cli_import_s = statistics.median(p[1] for p in probes)
        overhead = statistics.median(pass_refs) / statistics.median(plain_refs) - 1.0
        metrics = per_layer(summary, len(walls), cli_import_s, overhead)
        extras["n_spans"] = summary["n_spans"]
        extras["min_self_ns"] = min((s["min_self_ns"] for s in summary["spans"].values()),
                                    default=0)
        extras["spans"] = summary["spans"]
        spans_path = OUT / "spans" / f"{name}-seed{args.seed}-{stamp}.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(spans_path))
        extras["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(wl, pass_refs, results, setup, peak_rss_mb)

    record = {
        "workload": name, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": extras, "provenance": provenance(args.seed),
    }
    results_path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(record, indent=1))

    print(f"{name} seed={args.seed} trace={args.trace}: {len(walls)} passes, "
          f"{attempted} ops, {failed} failed")
    for p in problems[:5]:
        print(f"  problem: {p}")
    for k, (v, u) in metrics.items():
        print(f"  {k:36s} {v:14.6g} {u}")
    for k, u in (("failed_frac", "ratio"), ("rebound_count", "count"), ("wall_median_s", "s"),
                 ("ref_median_ms", "ms"), ("ctrl_step_us_p50", "us"), ("ctrl_step_us_p90", "us")):
        print(f"  {k:36s} {str(extras[k]):>14s} {u}")
    print(f"  results: {results_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
