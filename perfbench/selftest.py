"""Self-test of the benchmark: schema of BENCHMARK.json and of the result
line, a short smoke pass of every workload in both modes, and the refusal to
run without the package source.

    python3 perfbench/selftest.py

Not a timing gate: it checks shapes, names, units and correctness only.
Takes a few minutes; prints one line per check and exits non-zero if any
check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict) -> list[str]:
    errs = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errs.append(f"top-level keys {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
            for p in spec["paths"]):
        errs.append("paths")
    if not 1 <= len(spec["command"]) <= 32 or any(len(c) > 200 for c in spec["command"]):
        errs.append("command")
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errs.append("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        errs.append("workload count")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            errs.append(f"workload {w}")
    for group, keys, lo, hi in (("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
                                ("per_layer", {"name", "unit", "better"}, 1, 128)):
        if not lo <= len(spec[group]) <= hi:
            errs.append(f"{group} count")
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("higher", "lower"):
                errs.append(f"{group} entry {m}")
            if group == "end_to_end" and not 0 <= m["bound"] <= 0.25:
                errs.append(f"bound of {m['name']}")
    if len(names) != len(set(names)):
        errs.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must exist, in s, lower is better, with the largest bound")
    if len(BENCH.read_bytes()) > 64 * 1024:
        errs.append("file larger than 64 KiB")
    return errs


def check_result(stdout: str, expected: list[dict]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    res = json.loads(lines[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    if res["correct"] is not True:
        errs.append("correct is not true")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        errs.append("attempted")
    if res["failed"] != 0:
        errs.append(f"failed = {res['failed']}")
    want = {m["name"]: m["unit"] for m in expected}
    got = res["metrics"]
    if set(got) != set(want):
        errs.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != want.get(name) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            errs.append(f"{name}: {m}")
        elif "bound" in next((e for e in expected if e["name"] == name), {}) and v == 0:
            errs.append(f"{name} is 0")
    return errs


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    failures = 0

    def report(label: str, errs: list[str]) -> None:
        nonlocal failures
        failures += bool(errs)
        print(f"{'FAIL' if errs else 'ok  '} {label}" + (": " + "; ".join(errs) if errs else ""),
              flush=True)

    spec = json.loads(BENCH.read_text())
    report("BENCHMARK.json schema", check_spec(spec))

    for w in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(spec["command"] + ["--workload", w["name"], "--seed", "1",
                                          "--seconds", "1", "--trace", str(trace)], ROOT)
            errs = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] \
                if proc.returncode else check_result(proc.stdout, expected)
            report(f"{w['name']} --trace {trace}", errs)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH, bare / "BENCHMARK.json")
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    w = spec["workloads"][0]["name"]
    proc = run(spec["command"] + ["--workload", w, "--seed", "0", "--seconds", "1",
                                  "--trace", "0"], bare)
    errs = []
    if proc.returncode == 0:
        errs.append("exited with 0")
    if proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout:
        errs.append("printed a result")
    report("refuses to run without the package source", errs)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
