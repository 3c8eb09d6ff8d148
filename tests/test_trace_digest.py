"""The diff mode of tools/trace_digest.py, on hand-made digests, and the
fig5 runs of its standard set, whose controller periods call no np.linalg
function."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TRACE_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "trace_digest.py"


@pytest.fixture(scope="module")
def trace_digest():
    spec = importlib.util.spec_from_file_location("trace_digest", TRACE_DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(channels, csv, **metrics):
    return {"channels": channels, "csv": csv, "metrics": metrics}


def test_diff_names_changed_channels_and_metrics(trace_digest, tmp_path, monkeypatch, capsys):
    old = {"a": _run({"q": "1", "tau": "2"}, "c", steady_force_err="0.5", rebound_count="0"),
           "b": _run({"q": "3"}, "d", steady_force_err="1.0"),
           "gone": _run({}, "e")}
    new = {"a": _run({"q": "1", "tau": "9"}, "f", steady_force_err="0.25", rebound_count="0"),
           "b": _run({"q": "3"}, "d", steady_force_err="1.0"),
           "added": _run({}, "e")}
    assert trace_digest.diff(old, new) == [
        "a: channels changed: tau, csv",
        "  steady_force_err: 0.5 -> 0.25",
        "added: only in the new digest",
        "gone: only in the old digest",
    ]
    assert trace_digest.diff(old, old) == ["no run changed"]
    paths = []
    for name, digest in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(digest))
    monkeypatch.setattr(sys, "argv", ["trace_digest.py", "--diff", *map(str, paths)])
    trace_digest.main()     # returns: the diff mode exits 0
    assert capsys.readouterr().out.splitlines() == trace_digest.diff(old, new)


_LINALG = ("cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
           "matrix_power", "matrix_rank", "multi_dot", "norm", "pinv", "qr", "slogdet", "solve",
           "svd")


def test_fig5_periods_call_no_numpy_linalg(trace_digest, monkeypatch):
    """No controller period of a proposed fig5 digest run calls a np.linalg
    function, and no build of a period's loop (which a constant estimate
    does once, before the first period): the explicit inner loop on the
    preset's estimate and on the unequal diagonal one, and "implicit-vector"
    on the preset's, the unequal diagonal, the structured, the structured-k4
    and the exact estimates.  So their bits do not depend on the LAPACK
    build.  The runs that need the scalar root take it in their first 50
    periods, so its solves are covered; building the gains (which checks mx
    and bx with np.linalg) is neither."""
    from nonsmooth_adm import admittance, msta, sim

    calls, roots, in_period = [], [], [False]
    for name in _LINALG:
        def counting(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if in_period[0]:
                calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)

    def counted(fn):
        def wrapped(*args, **kwargs):
            in_period[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                in_period[0] = False
        return wrapped

    monkeypatch.setattr(sim, "admittance_step", counted(sim.admittance_step))
    monkeypatch.setattr(admittance, "_evaluate_loop", counted(admittance._evaluate_loop))
    monkeypatch.setattr(msta, "_root", lambda *args, _fn=msta._root: roots.append(1) or _fn(*args))
    runs = {name: sc for name, sc in trace_digest.standard_runs().items()
            if name.startswith("fig5_two_dof") and not name.endswith("_naive")}
    assert len(runs) == 7
    took_root = set()
    for name, sc in runs.items():
        sc.duration = 0.05
        roots.clear()
        trace = sim.run_scenario(sc)
        assert len(trace.t) == 50 and calls == [], (name, calls)
        if roots:
            took_root.add(name.partition(":")[2])
    assert took_root == {"implicit-vector-exact", "implicit-vector-structured-k4",
                         "implicit-vector-unequal-diag"}
