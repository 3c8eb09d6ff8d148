"""How far each contact run's force is from the same run at a fine plant step.

    python3 tools/plant_convergence.py [--seeds 0 1 2 ...]

Runs, with the proposed controller and with the naive baseline, the three
presets that meet a surface (fig3, fig5, ``linmotor_steps``; ``msta_bench``
has none), fig5 with the ``implicit-vector`` inner loop, and the three presets
at a surface of 1e4 N/m.  Each run is made twice: at the scenario's own plant
step and at 2000 substeps per controller period, the reference.
Per run it prints max |fcy - fcy_ref| in N over the first 50 ms after the
first contact of either run (the impact transient) and over the whole run,
and the run's ``steady_force_err``, settle time and contact losses (contact
-> no-contact transitions after first contact) with the reference's in
brackets.

It then prints the order table: the impact transient's gap of fig3 and fig5
(proposed controller) at 5, 10, 20 and 40 substeps per period, at the
preset's surface friction and at mu = 0, each against its own 2000-substep
run, with the ratio of each gap to the next (about 4 per halving of the step
for a second-order step, 2 for a first-order one).

``tests/test_plant_convergence.py`` holds the impact transient of the
proposed fig3, fig5, fig5 ``implicit-vector`` and ``linmotor_steps`` runs at
each preset's own plant step to the values of the semi-implicit Euler loop
at 100 substeps, and the three arm runs, at 5 substeps, also to the values
of the event-located step at 10 substeps when its Coulomb term was an
implicit Euler step at each velocity update's end state.

With ``--seeds``, it also prints, for the fig5 ``implicit-vector`` run with
the surface stiffness and force command perturbed as ``perfbench`` perturbs
them for each seed (its ``replay_2dof`` recording), the median over the seeds
of ``steady_force_err`` and settle time, at the scenario's plant step.

The package is imported from the ``src`` directory next to this script, so a
copy of the script in another checkout measures that checkout's plant.
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from nonsmooth_adm.sim import (  # noqa: E402
    apply_override,
    compute_metrics,
    naive_variant,
    presets,
    run_scenario,
)

TRANSIENT_S = 0.05
REF_SUBSTEPS = 2000
CONTACT_PRESETS = ("fig3_one_dof", "fig5_two_dof", "linmotor_steps")
STIFF_K_S = 1e4
ORDER_PRESETS = ("fig3_one_dof", "fig5_two_dof")
ORDER_SUBSTEPS = (5, 10, 20, 40)


def convergence_runs() -> dict:
    """The runs of the table, by name."""
    runs = {}
    bundled = presets()
    for name in CONTACT_PRESETS:
        runs[name] = bundled[name]
        runs[name + "_naive"] = naive_variant(bundled[name])
    sc = copy.deepcopy(bundled["fig5_two_dof"])
    sc.controller.us_mode = "implicit-vector"
    runs["fig5_two_dof:implicit-vector"] = sc
    for name in CONTACT_PRESETS:
        sc = copy.deepcopy(bundled[name])
        apply_override(sc, "env.k_s", STIFF_K_S)
        runs[f"{name}:ks=1e4"] = sc
        runs[f"{name}:ks=1e4_naive"] = naive_variant(sc)
    return runs


def refined(sc, substeps: int):
    """``sc`` with ``substeps`` plant substeps per controller period."""
    out = copy.deepcopy(sc)
    out.dt_sub = out.h / substeps
    return out


def first_contact(trace) -> int | None:
    """The first step in contact, or None."""
    hits = np.flatnonzero(trace.contact)
    return int(hits[0]) if hits.size else None


def contact_losses(trace) -> int:
    """Contact -> no-contact transitions after the first contact."""
    c = trace.contact.astype(np.int8)
    return int(np.count_nonzero(np.diff(c) < 0))


def fcy_gaps(trace, ref, h: float) -> tuple[float, float]:
    """(max |fcy - fcy_ref| over the first TRANSIENT_S after the first contact
    of either trace, and over the common steps), in N; NaN where no trace
    touches the surface."""
    n = min(trace.t.size, ref.t.size)
    gap = np.abs(trace.fc_cart[:n, 1] - ref.fc_cart[:n, 1])
    starts = [k for k in (first_contact(trace), first_contact(ref)) if k is not None]
    if not starts:
        return float("nan"), float("nan")
    k0 = min(starts)
    k1 = k0 + int(TRANSIENT_S / h + 1e-9)
    return float(gap[k0:k1 + 1].max()), float(gap.max())


def transient_gap(sc) -> float:
    """max |fcy - fcy_ref| over the first TRANSIENT_S after first contact,
    each run cut a step after that window."""
    run = run_scenario(sc)
    k0 = first_contact(run)
    if k0 is None:
        raise ValueError(f"{sc.name} never touches the surface")
    short = copy.deepcopy(sc)
    short.duration = (k0 + int(TRANSIENT_S / sc.h + 1e-9) + 2) * sc.h
    return fcy_gaps(run, run_scenario(refined(short, REF_SUBSTEPS)), sc.h)[0]


def row(name: str, sc) -> str:
    run, ref = run_scenario(sc), run_scenario(refined(sc, REF_SUBSTEPS))
    m, mr = compute_metrics(run, sc), compute_metrics(ref, sc)
    transient, whole = fcy_gaps(run, ref, sc.h)
    return (f"| {name} | {round(sc.h / sc.dt_sub)} | {transient:.2g} | {whole:.2g} "
            f"| {m.steady_force_err:.4g} ({mr.steady_force_err:.4g}) "
            f"| {m.settle_time:.4g} ({mr.settle_time:.4g}) "
            f"| {contact_losses(run)} ({contact_losses(ref)}) |")


def order_rows() -> list[str]:
    """The order table's rows: per arm preset and surface friction, the
    impact transient's gap at each of ORDER_SUBSTEPS and the ratios of
    consecutive gaps."""
    rows = []
    for name in ORDER_PRESETS:
        preset = presets()[name]
        for mu in (preset.env.mu_fric, 0.0):
            sc = copy.deepcopy(preset)
            apply_override(sc, "env.mu_fric", mu)
            gaps = [transient_gap(refined(sc, n)) for n in ORDER_SUBSTEPS]
            ratios = " ".join(f"{a / b:.2g}" for a, b in zip(gaps, gaps[1:]))
            rows.append(f"| {name} | {mu:g} | " + " | ".join(f"{g:.2g}" for g in gaps)
                        + f" | {ratios} |")
    return rows


def seed_medians(seeds: list[int]) -> str:
    from workloads import factors

    errs, settles = [], []
    for seed in seeds:
        sc = copy.deepcopy(presets()["fig5_two_dof"])
        sc.controller.us_mode = "implicit-vector"
        f_ks, f_fd = factors(seed, 2)
        apply_override(sc, "env.k_s", sc.env.k_s * f_ks)
        apply_override(sc, "fd_y", sc.fd_schedule[-1][2] * f_fd)
        m = compute_metrics(run_scenario(sc), sc)
        errs.append(m.steady_force_err)
        settles.append(m.settle_time)
    return (f"fig5_two_dof:implicit-vector over seeds {' '.join(map(str, seeds))}: median "
            f"steady_force_err {statistics.median(errs):.5g}, median settle time "
            f"{statistics.median(settles):.4g} s")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=None)
    args = ap.parse_args(argv)
    print(f"reference: {REF_SUBSTEPS} plant substeps per controller period; "
          f"|dfcy| in N; (reference) in brackets")
    print("| run | substeps | max abs dfcy, contact + 50 ms | whole run "
          "| steady_force_err | settle s | contact losses |")
    print("|---|---|---|---|---|---|---|")
    for name, sc in convergence_runs().items():
        print(row(name, sc), flush=True)
    print()
    print("order: max abs dfcy over contact + 50 ms, each run against its own reference")
    print("| run | mu | " + " | ".join(f"{n} substeps" for n in ORDER_SUBSTEPS)
          + " | ratios |")
    print("|---|---|" + "---|" * len(ORDER_SUBSTEPS) + "---|")
    for line in order_rows():
        print(line, flush=True)
    if args.seeds:
        print(seed_medians(args.seeds))


if __name__ == "__main__":
    main()
