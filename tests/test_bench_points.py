"""The benchmark's patch points, checked in the tier-1 suite.

``perfbench/`` times the package by patching names in its modules: the layer
boundaries of ``LAYER_POINTS`` and each workload's own ``trace_points``, and
``sweep_map`` audits every cell by patching ``sim.run_scenario``.  A name
that no longer resolves, or a sweep that stops going through the
module-level runner, breaks the benchmark without failing any other test.
``perfbench/selftest.py`` catches both too, but it runs every workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nonsmooth_adm import sim

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # load it without writing under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class _ResolvingTracer:
    """A tracer whose ``patch`` only looks the name up and whose ``wrap``
    returns its argument; it records every name it was asked to patch."""

    def __init__(self):
        self.patched = []

    def patch(self, namespace, attr, name, hook=None):
        getattr(namespace, attr)
        self.patched.append((namespace.__name__, attr))

    def wrap(self, fn, name, hook=None):
        return fn


def test_every_patch_point_resolves(workloads, tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0, tmp_path / name)
        wl.step = wl.main = wl.sweep = None      # set-up provides them
        tracer = _ResolvingTracer()
        workloads.install_trace_points(tracer, wl)
        for module, attr, _ in workloads.LAYER_POINTS:
            assert (f"nonsmooth_adm.{module}", attr) in tracer.patched, (name, module, attr)


def test_sweep_runs_each_cell_through_the_module_level_runner(monkeypatch):
    runs = []

    def counting(sc, _run=sim.run_scenario):
        runs.append(sc.fd_schedule[-1][2])
        return _run(sc)

    monkeypatch.setattr(sim, "run_scenario", counting)
    sc = sim.presets()["linmotor_steps"]
    sc.duration = 0.05
    rows = sim.sweep(sc, "fd_y", [-1.5, -2.0, -2.5])
    assert runs == [-1.5, -2.0, -2.5]
    assert [v for v, _ in rows] == runs
