"""Fingerprint the fourteen standard closed-loop runs, for bitwise comparison.

    python3 tools/trace_digest.py > digest.json

Runs the four presets with the proposed controller and with the naive
baseline, fig5 with the ``implicit-vector`` inner loop for the preset's
scalar k1 and for a structured k1 (``gamma1 = 150``, whose iteration matrix
is a multiple of I, so the solve takes its radial closed form), fig5 with a
diagonal estimate of unequal entries (``mass_diag = (0.2, 0.3)``,
``coriolis_diag = (20, 30)``: every loop matrix diagonal but not a multiple
of I) under the explicit inner loop and under ``implicit-vector`` (whose
iteration matrix diag(1.25, 1.2) sends the solve to its scalar root), fig5
with ``implicit-vector`` and the arm's own model as the estimate
(``estimate.kind = exact``: a non-symmetric iteration matrix, evaluated every
period, also solved by the root), and ``linmotor_steps`` under a sine
disturbance (on top of the stage's own rail friction), and prints sorted
JSON: per run, one SHA-256 per ``Trace`` channel (dtype, shape and bytes),
one of the written CSV, and the ``repr`` of every ``Metrics`` field.  The
package is imported from the ``src`` directory next to this script, so two
checkouts compare with ``cmp`` of their outputs.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nonsmooth_adm.sim import (  # noqa: E402
    DisturbanceSpec,
    compute_metrics,
    naive_variant,
    presets,
    run_scenario,
    trace_to_csv,
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


def digest(sc) -> dict:
    trace = run_scenario(sc)
    channels = {}
    for f in dataclasses.fields(trace):
        a = getattr(trace, f.name)
        channels[f.name] = _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    metrics = compute_metrics(trace, sc)
    return {
        "channels": channels,
        "csv": _sha(trace_to_csv(trace).encode()),
        "metrics": {f.name: repr(getattr(metrics, f.name)) for f in dataclasses.fields(metrics)},
    }


def main() -> None:
    out = {name: digest(sc) for name, sc in standard_runs().items()}
    print(json.dumps(out, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()
