"""Scenario files, overrides, and trace round trips.

Scenarios serialize to JSON with unit-suffixed field names, any field can be
overridden through a dotted path, traces export to CSV and parse back exactly,
and identical scenarios produce bit-identical traces.
"""

import json
import os

import numpy as np

from nonsmooth_adm.sim import (
    apply_override,
    load_scenario,
    presets,
    run_scenario,
    save_scenario,
    scenario_to_dict,
    trace_from_csv,
    write_trace_csv,
)

os.makedirs("out", exist_ok=True)
sc = presets()["msta_bench"]
sc.duration = 1.0

print("scenario as JSON (excerpt):")
doc = scenario_to_dict(sc)
print(json.dumps({k: doc[k] for k in ("name", "plant", "env", "h_s", "duration_s")}, indent=2))

save_scenario(sc, "out/bench.json")
sc2 = load_scenario("out/bench.json")
apply_override(sc2, "disturbance.level", 5.0)
apply_override(sc2, "h_s", "0.0005")
print(f"\noverrides applied: disturbance level {sc2.disturbance.level} N, h {sc2.h} s")

trace = run_scenario(sc2)
write_trace_csv(trace, "out/bench_trace.csv")
back = trace_from_csv("out/bench_trace.csv")
exact = all(np.array_equal(getattr(trace, f), getattr(back, f))
            for f in ("t", "q", "qd", "tau", "u_s", "s", "v"))
print(f"CSV round trip exact: {exact}")

rerun = run_scenario(sc2)
identical = np.array_equal(trace.q, rerun.q) and np.array_equal(trace.u_s, rerun.u_s)
print(f"bit-identical rerun:  {identical}")
