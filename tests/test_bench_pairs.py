"""The verdict of tools/bench_pairs.py, on fixed numbers: no run is started."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_quartiles_interpolate_between_order_statistics(bench_pairs):
    assert bench_pairs.quartiles(PARENT) == (102.25, 104.5, 106.75)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_claim_needs_nine_tenths_of_the_pairs_and_medians_apart_by_the_iqr(bench_pairs):
    verdict = bench_pairs.verdict
    # 9 of 10 pairs won, medians 6.0 apart against a parent IQR of 4.5
    change = [p - 6.0 for p in PARENT[:9]] + [PARENT[9]]
    v = verdict(PARENT, change, "lower", 0.15, claimed=True)
    assert (v["wins"], v["status"], v["ok"]) == (9, "gain", True)
    assert v["parent_iqr"] == 4.5
    # 8 of 10 won (a tie counts for neither side)
    change = [p - 6.0 for p in PARENT[:8]] + [PARENT[8], PARENT[9] + 1.0]
    v = verdict(PARENT, change, "lower", 0.15, claimed=True)
    assert (v["wins"], v["status"], v["ok"]) == (8, "no gain", False)
    # every pair won, but the medians are 3.0 apart, inside the parent's IQR
    v = verdict(PARENT, [p - 3.0 for p in PARENT], "lower", 0.15, claimed=True)
    assert (v["wins"], v["status"]) == (10, "no gain")
    # "higher" is better: a fall is no gain however far
    v = verdict(PARENT, [p - 50.0 for p in PARENT], "higher", 0.15, claimed=True)
    assert (v["wins"], v["status"]) == (0, "no gain")


def test_other_metrics_need_their_median_within_the_bound(bench_pairs):
    verdict = bench_pairs.verdict
    # parent median 104.5, IQR 4.5 (4.3 %) inside a 10 % bound
    v = verdict(PARENT, [p + 9.0 for p in PARENT], "lower", 0.10, claimed=False)
    assert (v["status"], v["ok"]) == ("within bound", True)
    v = verdict(PARENT, [p + 11.0 for p in PARENT], "lower", 0.10, claimed=False)
    assert (v["status"], v["ok"]) == ("worse than bound", False)
    v = verdict(PARENT, [p - 11.0 for p in PARENT], "higher", 0.10, claimed=False)
    assert (v["status"], v["ok"]) == ("worse than bound", False)
    # a parent spread wider than the bound leaves the metric unresolved ...
    v = verdict(PARENT, [p + 1.0 for p in PARENT], "lower", 0.04, claimed=False)
    assert (v["status"], v["ok"]) == ("unresolved", False)
    # ... unless every change run is better than every parent run
    v = verdict(PARENT, [p - 10.0 for p in PARENT], "lower", 0.04, claimed=False)
    assert (v["status"], v["ok"]) == ("within bound", True)


def test_an_undefined_metric_must_be_undefined_in_the_same_pairs(bench_pairs):
    verdict = bench_pairs.verdict
    nan = math.nan
    v = verdict([nan, 100.0, 101.0], [nan, 100.0, 101.0], "lower", 0.2, claimed=False)
    assert (v["pairs"], v["wins"], v["status"], v["ok"]) == (2, 0, "within bound", True)
    v = verdict([nan, nan], [nan, nan], "lower", 0.2, claimed=False)
    assert (v["status"], v["ok"]) == ("undefined", True)
    v = verdict([nan, 1.0], [1.0, 1.0], "lower", 0.2, claimed=False)
    assert (v["status"], v["ok"]) == ("undefined", False)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0, 2.0], "lower", 0.2, claimed=False)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.2, claimed=False)


def test_main_alternates_the_first_side_and_prints_the_verdict(bench_pairs, monkeypatch,
                                                               capsys, tmp_path):
    """``main`` with ``run_once`` replaced by fixed results: the side that
    runs first alternates, pair i takes seed i of --seeds (cycling), and the
    exit status follows the verdict."""
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    calls, shift = [], [-6.0]

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        k = sum(1 for c in calls if c[0] == checkout.name) - 1
        value = PARENT[k] if checkout.name == "parent" else PARENT[k] + shift[0]
        return {"correct": True, "failed": 0,
                "metrics": {n: {"value": value, "unit": "x"} for n in names}}

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
            "--pairs", "4", "--seeds", "7", "8", "--claim", "wall_ref"]
    # every change run 6.0 lower: the claim holds (parent IQR 1.5), the rest pass
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    out = capsys.readouterr().out
    assert "every run correct with 0 failed" in out
    assert "claim: gain" in out and out.count("within bound") == len(names) - 1
    calls.clear()
    shift[0] = 1.0
    assert bench_pairs.main(argv) == 1
    assert "claim: no gain" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--claim", "no_such_metric"])
