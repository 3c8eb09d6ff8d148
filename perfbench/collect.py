"""Summarise benchmark results files: median and spread of every metric.

    python3 perfbench/collect.py [FILE ...] [--write perfbench/BENCH_baseline.json]

Reads the results files that ``run.py`` writes (by default every file in
``.perfbench_out/results/``), groups them by workload and trace mode, and
prints for each metric the median over runs and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  End-to-end spreads are compared with the bounds in
BENCHMARK.json; a spread above a third of its bound is flagged ``wide``, one
above the bound ``OVER``.  ``--write`` stores the summary, every run's
values and the runs' provenance as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", type=Path)
    ap.add_argument("--write", type=Path, help="write the summary to this JSON file")
    args = ap.parse_args(argv)
    files = args.files or sorted((ROOT / ".perfbench_out" / "results").glob("*.json"))
    if not files:
        print("no results files", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    groups: dict[str, list[dict]] = {}
    for f in files:
        r = json.loads(f.read_text())
        groups.setdefault(f"{r['workload']}/trace{r['trace']}", []).append(r)

    summary = {}
    status = 0
    for key, runs in sorted(groups.items()):
        correct = all(r["correct"] for r in runs)
        print(f"{key}: {len(runs)} runs, seeds {sorted(r['provenance']['seed'] for r in runs)}, "
              f"all correct: {correct}")
        status |= not correct
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name) if not key.endswith("trace1") else None
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OVER" if s > bound else "wide" if s > bound / 3 else "ok"
                status |= s > bound
            metrics[name] = {"unit": first["unit"], "median": statistics.median(values),
                             "spread": s, "values": values}
            print(f"  {name:36s} median {statistics.median(values):12.6g} {first['unit']:6s} "
                  f"spread {s:6.3f}" + (f"  bound {bound:.2f} {flag}" if bound else ""))
        summary[key] = {
            "runs": len(runs), "all_correct": correct, "metrics": metrics,
            "provenance": [r["provenance"] for r in runs],
            "failed": [r["failed"] for r in runs], "attempted": [r["attempted"] for r in runs],
        }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.write}")
    return status


if __name__ == "__main__":
    sys.exit(main())
