"""Fingerprint the fifteen standard closed-loop runs, for bitwise comparison.

    python3 tools/trace_digest.py > digest.json

Runs the four presets with the proposed controller and with the naive
baseline; fig5 with the ``implicit-vector`` inner loop for the preset's
scalar k1, for a structured k1 (``gamma1 = 150``, whose iteration matrix
is a multiple of I, so the solve takes its radial closed form) and for that
structured k1 with ``k4 = 1`` (whose radial equation is a cubic, solved by
the scalar root); fig5 with a diagonal estimate of unequal entries
(``mass_diag = (0.2, 0.3)``, ``coriolis_diag = (20, 30)``: every loop
matrix diagonal but not a multiple of I) under the explicit inner loop and
under ``implicit-vector`` (whose iteration matrix diag(1.25, 1.2) sends the
solve to its scalar root); fig5 with ``implicit-vector`` and the arm's own
model as the estimate (``estimate.kind = exact``: full loop matrices,
evaluated every period, whose solves against W take the elimination of
``setvalued._solve2``, and a non-symmetric iteration matrix, also solved
by the root); and ``linmotor_steps`` under a sine disturbance (on top of the
stage's own rail friction).  It prints sorted JSON: per run, one SHA-256
per ``Trace`` channel (dtype, shape and bytes), one of the written CSV, and
the ``repr`` of every ``Metrics`` field.  The package is imported from the
``src`` directory next to this script, so two checkouts compare with ``cmp``
of their outputs.  No controller period calls numpy's BLAS or LAPACK, so
the digests do not depend on the build numpy loads either; libm's ``sin``
and ``cos`` in the plant kernels are all that may differ between platforms.

    python3 tools/trace_digest.py --diff old.json new.json

compares two such digests instead of running anything: per run it prints
the channels whose digest changed and each changed metric as old -> new
(and a run present in one file only), then exits 0.

Each run's CSV is also written to a file with ``write_trace_csv``, whose
bytes must be the text ``trace_to_csv`` returns, then read back with
``trace_from_csv`` and formatted again, which must give the same text; if
either differs, the script names the run on stderr and exits 1 without
printing the digest.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nonsmooth_adm.sim import (  # noqa: E402
    DisturbanceSpec,
    compute_metrics,
    naive_variant,
    presets,
    run_scenario,
    trace_from_csv,
    trace_to_csv,
    write_trace_csv,
)


def standard_runs() -> dict:
    runs = {}
    for sc in presets().values():
        runs[sc.name] = sc
        runs[sc.name + "_naive"] = naive_variant(sc)
    sc = copy.deepcopy(presets()["fig5_two_dof"])
    sc.controller.us_mode = "implicit-vector"
    runs["fig5_two_dof:implicit-vector"] = sc
    sc = copy.deepcopy(sc)
    sc.controller.k1 = "structured"
    sc.controller.gamma1 = 150.0
    runs["fig5_two_dof:implicit-vector-structured"] = sc
    sc = copy.deepcopy(sc)
    sc.controller.k4 = 1.0
    runs["fig5_two_dof:implicit-vector-structured-k4"] = sc
    sc = copy.deepcopy(presets()["fig5_two_dof"])
    sc.estimate.mass_diag = (0.2, 0.3)
    sc.estimate.coriolis_diag = (20.0, 30.0)
    runs["fig5_two_dof:unequal-diag"] = sc
    sc = copy.deepcopy(sc)
    sc.controller.us_mode = "implicit-vector"
    runs["fig5_two_dof:implicit-vector-unequal-diag"] = sc
    sc = copy.deepcopy(presets()["fig5_two_dof"])
    sc.controller.us_mode = "implicit-vector"
    sc.estimate.kind = "exact"
    runs["fig5_two_dof:implicit-vector-exact"] = sc
    sc = copy.deepcopy(presets()["linmotor_steps"])
    sc.disturbance = DisturbanceSpec(kind="sine", amplitude=0.5, freq_hz=2.0)
    runs["linmotor_steps:sine"] = sc
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, sc, csv_path: str) -> dict:
    trace = run_scenario(sc)
    channels = {}
    for f in dataclasses.fields(trace):
        a = getattr(trace, f.name)
        channels[f.name] = _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    metrics = compute_metrics(trace, sc)
    text = trace_to_csv(trace)
    write_trace_csv(trace, csv_path)
    if Path(csv_path).read_bytes() != text.encode():
        sys.exit(f"trace_digest: {name}: write_trace_csv wrote other bytes than trace_to_csv's text")
    if trace_to_csv(trace_from_csv(csv_path)) != text:
        sys.exit(f"trace_digest: {name}: the CSV read back with trace_from_csv writes other text")
    return {
        "channels": channels,
        "csv": _sha(text.encode()),
        "metrics": {f.name: repr(getattr(metrics, f.name)) for f in dataclasses.fields(metrics)},
    }


def diff(old: dict, new: dict) -> list[str]:
    """Lines naming, per run, the changed channels (and the CSV) and each
    changed metric as old -> new; runs in one digest only are named too."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            lines.append(f"{name}: only in the {'old' if name in old else 'new'} digest")
            continue
        a, b = old[name], new[name]
        channels = sorted(c for c in a["channels"].keys() | b["channels"].keys()
                          if a["channels"].get(c) != b["channels"].get(c))
        if a["csv"] != b["csv"]:
            channels.append("csv")
        metrics = [f"  {m}: {a['metrics'].get(m)} -> {b['metrics'].get(m)}"
                   for m in sorted(a["metrics"].keys() | b["metrics"].keys())
                   if a["metrics"].get(m) != b["metrics"].get(m)]
        if channels or metrics:
            lines.append(f"{name}: channels changed: {', '.join(channels) or 'none'}")
            lines.extend(metrics)
    return lines or ["no run changed"]


def main() -> None:
    if sys.argv[1:2] == ["--diff"]:
        if len(sys.argv) != 4:
            sys.exit("usage: trace_digest.py [--diff old.json new.json]")
        old, new = (json.loads(Path(p).read_text()) for p in sys.argv[2:])
        print("\n".join(diff(old, new)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "trace.csv")
        out = {name: digest(name, sc, csv_path) for name, sc in standard_runs().items()}
    print(json.dumps(out, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()
