"""The diff mode of tools/trace_digest.py, on hand-made digests."""

import importlib.util
import json
import sys
from pathlib import Path

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
