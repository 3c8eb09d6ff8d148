"""Alternated parent/change pairs of the benchmark, with the verdict on each metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload impact_compare \\
        [--pairs 10] [--seconds 30] [--seeds 41 42 43] [--claim ctrl_step_p50_ref]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, and pair i takes the seed ``seeds[i %
len(seeds)]`` (default: the pair index).  Each run's last line of standard
output is its JSON result; a run that exits non-zero or prints no JSON stops
the script.  A line per pair gives every end-to-end metric as parent -> change.

The summary gives, per end-to-end metric of BENCHMARK.json (read from the
repository this script belongs to), each side's median and quartiles, the
number of pairs the change wins (ties count for neither side), and the
verdict:

* the claimed metric is a gain when the change wins at least nine tenths of
  the pairs and the medians differ, in the better direction, by more than
  the distance between the parent's quartiles;
* any other metric passes when the change's median is no worse than the
  parent's by more than the metric's bound; when the parent's own quartiles
  are further apart than the bound, it is unresolved unless every change run
  is better than every parent run.

It exits 0 when every run was correct with no failed operation and every
verdict passes, and 1 otherwise.  It writes nothing itself: the runs write
their result files where ``perfbench/run.py`` puts them, in each checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by linear interpolation
    between the order statistics; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _better(a: float, b: float, lower_is_better: bool) -> bool:
    """Whether a is strictly better than b."""
    return a < b if lower_is_better else a > b


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            claimed: bool) -> dict:
    """The verdict on one metric from its paired values (parent[i] and
    change[i] ran as pair i): medians, quartiles, pairs won by the change,
    ``status`` ("gain", "no gain", "within bound", "worse than bound",
    "unresolved" or "undefined") and ``ok``.

    A metric that a run leaves undefined (NaN) must be undefined in the
    same pairs on both sides, and the verdict is taken on the other pairs;
    otherwise, or when no pair is left, the status is "undefined", which
    passes only in the second case."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, nonzero number of runs")
    undefined = [math.isnan(p) for p in parent]
    if undefined != [math.isnan(c) for c in change] or all(undefined):
        return {"pairs": len(parent), "wins": 0, "status": "undefined", "ok": all(undefined)
                and all(map(math.isnan, change))}
    parent = [p for p, u in zip(parent, undefined) if not u]
    change = [c for c, u in zip(change, undefined) if not u]
    lower = better == "lower"
    wins = sum(_better(c, p, lower) for p, c in zip(parent, change))
    out = {"pairs": len(parent), "wins": wins}
    p_q, c_q = quartiles(parent), quartiles(change)
    p_med, c_med = p_q[1], c_q[1]
    iqr = p_q[2] - p_q[0]
    out.update(parent=p_q, change=c_q, parent_iqr=iqr,
               rel=(c_med - p_med) / p_med if p_med else 0.0)
    if claimed:
        gain = (wins >= 0.9 * len(parent) and _better(c_med, p_med, lower)
                and abs(c_med - p_med) > iqr)
        out.update(status="gain" if gain else "no gain", ok=gain)
        return out
    limit = p_med * (1.0 + bound) if lower else p_med * (1.0 - bound)
    within = c_med <= limit if lower else c_med >= limit
    separated = all(_better(c, p, lower) for c in change for p in parent)
    if separated:
        out.update(status="within bound", ok=True)
    elif iqr > abs(p_med) * bound:
        out.update(status="unresolved", ok=False)
    else:
        out.update(status="within bound" if within else "worse than bound", ok=within)
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``; its last line
    of standard output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RuntimeError(f"{checkout}: the last line of the run is not JSON: "
                           f"{lines[-1]!r}") from exc


def _values(result: dict, names: list[str]) -> dict:
    """The named metrics of one run's result, NaN where the run has none."""
    metrics = result["metrics"]
    return {n: math.nan if metrics.get(n, {}).get("value") is None
            else float(metrics[n]["value"]) for n in names}


def summary_lines(metrics: list[dict], parent: list[dict], change: list[dict],
                  claim: str | None) -> tuple[list[str], bool]:
    """The summary table and whether every verdict passes."""
    lines, ok = [], True
    for m in metrics:
        name = m["name"]
        v = verdict([r[name] for r in parent], [r[name] for r in change], m["better"],
                    m["bound"], name == claim)
        ok &= v["ok"]
        if v["status"] == "undefined":
            lines.append(f"{name:20s} undefined: "
                         f"{'in every run' if v['ok'] else 'in other pairs on each side'}")
            continue
        (p1, p2, p3), (c1, c2, c3) = v["parent"], v["change"]
        lines.append(f"{name:20s} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} "
                     f"[{c1:.6g}, {c3:.6g}]  {v['rel']:+.1%}  won {v['wins']}/{v['pairs']}  "
                     f"{'claim: ' if name == claim else ''}{v['status']} "
                     f"(bound {m['bound']:.0%}, parent IQR {v['parent_iqr']:.4g})")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    if args.claim is not None and args.claim not in names:
        ap.error(f"--claim must be one of {', '.join(names)}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seeds = args.seeds or list(range(args.pairs))
    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            correct &= bool(result["correct"]) and result["failed"] == 0
            values[side].append(_values(result, names))
        p, c = values["parent"][-1], values["change"][-1]
        print(f"pair {i + 1} seed {seed} ({order[0]} first): "
              + ", ".join(f"{n} {p[n]:.6g} -> {c[n]:.6g}" for n in names), flush=True)
    lines, ok = summary_lines(metrics, values["parent"], values["change"], args.claim)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, every run "
          f"{'correct with 0 failed' if correct else 'NOT correct'}")
    print("\n".join(lines))
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
