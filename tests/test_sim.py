import _pyio
import copy
import json
import math
import os
import random
import re
import string
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from nonsmooth_adm import admittance, plant, sim
from nonsmooth_adm.cli import main
from nonsmooth_adm.plant import EnvironmentModel, SimulationBlowUp
from nonsmooth_adm.sim import (
    LINMOTOR_STIFFNESS_LEVELS,
    DisturbanceSpec,
    Metrics,
    ScenarioError,
    Trace,
    build_model,
    apply_override,
    compute_metrics,
    load_scenario,
    metrics_to_dict,
    naive_variant,
    presets,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep,
    trace_from_csv,
    trace_to_csv,
    write_trace_csv,
)


def short(sc, seconds=0.5):
    out = copy.deepcopy(sc)
    out.duration = seconds
    return out


def test_presets_fields():
    p = presets()
    assert set(p) == {"fig3_one_dof", "fig5_two_dof", "linmotor_steps", "msta_bench"}
    assert p["fig3_one_dof"].h == 1e-3
    assert p["linmotor_steps"].h == 4e-3
    assert tuple(p["fig5_two_dof"].controller.torque_limits) == (3.0, 4.0)
    assert p["fig3_one_dof"].env.k_s == 2e3
    assert p["fig3_one_dof"].env.y_s == pytest.approx(-0.5 * math.sin(0.1))


def test_free_space_equilibrium():
    sc = short(presets()["fig3_one_dof"], 1.0)
    sc.env = EnvironmentModel()              # no surface
    sc.fd_schedule = ((0.0, 0.0, 0.0),)
    tr = run_scenario(sc)
    assert np.abs(tr.q - tr.q[0]).max() <= 1e-9
    assert np.abs(tr.tau).max() <= 1e-9


def test_trace_shape_and_time_grid():
    sc = short(presets()["fig3_one_dof"], 0.25)
    tr = run_scenario(sc)
    assert tr.t.size == 250
    assert tr.q.shape == (250, 1)
    assert np.allclose(np.diff(tr.t), sc.h)


def test_full_preset_row_count(fig3_run):
    _, tr, _, _ = fig3_run
    assert tr.t.size == 5000          # 5 s at 1 ms


def test_deterministic_reruns():
    sc = short(presets()["msta_bench"], 1.0)
    a = run_scenario(sc)
    b = run_scenario(sc)
    for field in ("t", "q", "qd", "qx", "qxd", "tau", "tau_star", "fc_joint",
                  "fc_cart", "s", "v", "u_s"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_blowup_reports_step_index():
    # a destabilized baseline on the coupled arm overflows the velocity
    # products within a fraction of a second
    sc = short(presets()["fig5_two_dof"], 1.0)
    sc.controller.kind = "naive"
    sc.controller.kp = -5e6          # destabilizing on purpose
    sc.controller.kd = -5e4
    sc.controller.torque_limits = (1e300, 1e300)
    with pytest.raises(SimulationBlowUp) as err:
        run_scenario(sc)
    assert err.value.step >= 0


def test_metrics_on_synthetic_traces():
    sc = short(presets()["fig3_one_dof"], 2.0)
    tr = run_scenario(sc)
    m = compute_metrics(tr, sc)
    assert m.torque_violations == 0
    # perfect tracking window: overwrite the tail with the exact command
    tr.fc_cart[:, 1] = 2.0
    tr.contact[:] = True
    m2 = compute_metrics(tr, sc)
    assert m2.steady_force_err == 0.0
    assert m2.rebound_count == 0
    # one synthetic contact-loss gap after sustained contact
    tr.contact[1500:1520] = False
    m3 = compute_metrics(tr, sc)
    assert m3.rebound_count == 1


def test_metrics_read_the_trace_and_build_no_plant(fig3_run, fig5_run, monkeypatch,
                                                   ee_kinematics):
    """With the plant builder refusing every call, the metrics of the fig3
    and fig5 traces are the ones computed before, by repr; max_penetration
    is the largest penetration of the closed-form pose, or 0."""
    def refuse(sc):
        raise AssertionError("compute_metrics built the plant")

    monkeypatch.setattr(sim, "build_model", refuse)
    for sc, tr, m, *_ in (fig3_run, fig5_run):
        assert repr(compute_metrics(tr, sc)) == repr(m), sc.name
        pose = [sc.env.y_s - ee_kinematics(_plant_params(sc), q)[0][1] for q in tr.q]
        assert m.max_penetration == max([0.0, *pose]) > 0.0, sc.name
    # a trace is refused by a scenario of another joint count
    with pytest.raises(ValueError, match=r"^the trace has 2 joint\(s\); torque_limits has 1$"):
        compute_metrics(fig5_run[1], fig3_run[0])


def test_metrics_undefined_without_command():
    sc = short(presets()["msta_bench"], 1.5)
    tr = run_scenario(sc)
    m = compute_metrics(tr, sc)
    assert math.isnan(m.steady_force_err)
    d = metrics_to_dict(m)
    assert d["steady_force_err"] is None


def test_trace_csv_round_trip(tmp_path):
    for name in ("fig3_one_dof", "fig5_two_dof"):
        tr = run_scenario(short(presets()[name], 0.5))
        # impact and saturation happen inside the window, so both values of
        # each bool channel go through the file
        assert tr.contact.any() and not tr.contact.all(), name
        assert tr.saturated.any() and not tr.saturated.all(), name
        path = os.path.join(tmp_path, f"{name}.csv")
        write_trace_csv(tr, path)
        text = trace_to_csv(tr)
        back = trace_from_csv(path)
        for f in fields(Trace):
            a, b = getattr(tr, f.name), getattr(back, f.name)
            assert a.dtype == b.dtype and a.shape == b.shape, (name, f.name)
            assert np.array_equal(a, b), (name, f.name)
        with open(path, newline="") as fh:
            assert fh.read() == text, name
        assert trace_to_csv(back) == text, name        # write -> read -> write


def test_trace_csv_text_layout():
    row = np.array([[0.1]])
    tr = Trace(t=np.array([0.001]), q=row, qd=-row, qx=row * 3, qxd=np.array([[-0.0]]),
               tau=np.array([[1e-300]]), tau_star=np.array([[2.5]]), fc_joint=np.array([[7.0]]),
               fc_cart=np.array([[1.5, -2.0]]), penetration=np.array([1e-3]),
               s=np.array([[np.inf]]), v=np.array([[0.0]]), u_s=np.array([[-1e17]]),
               saturated=np.array([[True]]), contact=np.array([False]))
    assert trace_to_csv(tr) == (
        "t_s,q0_rad,qd0_rad_per_s,qx0_rad,qxd0_rad_per_s,tau0_Nm,tau_star0_Nm,fc_joint0_Nm,"
        "s0,v0,u_s0,fcx_N,fcy_N,penetration_m,saturated0,contact\r\n"
        "0.001,0.10000000000000001,-0.10000000000000001,0.30000000000000004,-0,1e-300,2.5,7,"
        "inf,0,-1e+17,1.5,-2,0.001,1,0\r\n")
    two = run_scenario(short(presets()["fig5_two_dof"], 0.01))
    assert two.column_names()[:3] == ["t_s", "q0_rad", "q1_rad"]
    assert two.column_names()[-5:] == ["fcy_N", "penetration_m", "saturated0", "saturated1",
                                       "contact"]
    assert len(two.column_names()) == 27


def _header(dof, edit):
    cols = run_scenario(short(presets()["fig5_two_dof" if dof == 2 else "fig3_one_dof"],
                              0.01)).column_names()
    return ",".join(edit(cols)) + "\n"


@pytest.mark.parametrize("text,message", [
    ("a,b\n1,2\n", "column 1 is 'a', expected 't_s'"),
    ("{}", "column 1 is '{}', expected 't_s'"),
    (lambda: _header(1, lambda c: ["q0" if x == "q0_rad" else x for x in c]),
     "column 2 is 'q0', expected 'q0_rad'"),
    (lambda: _header(1, lambda c: c + ["extra"]), "column 17 is 'extra', expected None"),
    (lambda: _header(2, lambda c: c[:-1]), "column 27 is None, expected 'contact'"),
    (lambda: _header(2, lambda c: c[:5] + ["tau1_Nm"] + c[6:]),
     "column 6 is 'tau1_Nm', expected 'qx0_rad'"),
    # a one-joint file written before the penetration channel
    ("t_s,q0_rad,qd0_rad_per_s,qx0_rad,qxd0_rad_per_s,tau0_Nm,tau_star0_Nm,fc_joint0_Nm,"
     "s0,v0,u_s0,fcx_N,fcy_N,saturated0,contact\r\n"
     "0.001,0.1,-0.1,0.3,-0,1e-300,2.5,7,inf,0,-1e+17,1.5,-2,1,0\r\n",
     "column 14 is 'saturated0', expected 'penetration_m'"),
], ids=["other_csv", "json", "renamed", "extra", "missing", "swapped", "no_penetration"])
def test_trace_from_csv_rejects_foreign_header(text, message, tmp_path, capsys):
    """The reader refuses the header, naming the first column that differs,
    and ``plot`` of the file is a configuration error."""
    path = tmp_path / "trace.csv"
    path.write_text(text() if callable(text) else text, newline="")
    with pytest.raises(ValueError, match=re.escape(message)):
        trace_from_csv(str(path))
    assert main(["plot", "--scenario", str(path), "--out", str(tmp_path / "panels")]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "panels")


def test_trace_from_csv_rejects_short_rows(tmp_path):
    text = trace_to_csv(run_scenario(short(presets()["fig3_one_dof"], 0.01)))
    path = tmp_path / "trace.csv"
    path.write_text(text + "1,2\r\n", newline="")
    with pytest.raises(ValueError):
        trace_from_csv(str(path))


@pytest.mark.parametrize("rows", ["", "\r\n", "\r\n\r\n"], ids=["none", "blank", "blanks"])
def test_trace_from_csv_refuses_a_header_without_rows(rows, tmp_path):
    """A header with no data row after it is not a trace: the reader names
    the file instead of passing numpy's empty table on."""
    path = tmp_path / "header_only.csv"
    path.write_text(",".join(sim._trace_columns(1)) + "\r\n" + rows, newline="")
    with pytest.raises(ValueError, match=re.escape(f"no row follows the header of trace "
                                                   f"file {str(path)!r}")):
        trace_from_csv(str(path))


def test_trace_from_csv_reads_a_comment_line_as_a_bad_row(tmp_path):
    """The writer writes no comments, so a '#' line is a row that does not
    parse, not a line to skip past to an empty table."""
    path = tmp_path / "commented.csv"
    path.write_text(",".join(sim._trace_columns(1)) + "\r\n# note\r\n", newline="")
    with pytest.raises(ValueError, match="could not convert"):
        trace_from_csv(str(path))


def test_trace_to_csv_returns_the_text_and_takes_no_path(tmp_path):
    """Only ``write_trace_csv`` writes trace files."""
    tr = run_scenario(short(presets()["fig3_one_dof"], 0.01))
    with pytest.raises(TypeError):
        trace_to_csv(tr, str(tmp_path / "trace.csv"))
    assert not os.listdir(tmp_path)


def test_trace_from_csv_of_a_missing_path_names_it(tmp_path):
    """The reader takes a path and only a path: a mistyped one is not read
    as CSV text."""
    path = str(tmp_path / "missing_trace.csv")
    with pytest.raises(FileNotFoundError, match=re.escape(path)):
        trace_from_csv(path)


def _one_shot_csv(trace):
    """The one-shot writer that the block writer replaced, kept as its
    reference: the whole table as Python floats, one string per row, then
    those rows with their line ends."""
    layout = list(sim._trace_layout(trace.dof))
    table = np.column_stack([getattr(trace, attr) for attr, *_ in layout]).tolist()
    row = ",".join("%d" if is_bool else "%.17g" for _, cols, is_bool, _ in layout for _ in cols)
    lines = [",".join(trace.column_names())] + [row % tuple(r) for r in table]
    return "".join(line + "\r\n" for line in lines)


def _synthetic_trace(dof, rows, rng):
    """A trace of random floats over 600 decades, with -0.0 and +-inf mixed
    in, and random bool channels."""
    def floats(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        specials = np.array([-0.0, np.inf, -np.inf, 0.0, 1.0])
        pick = rng.random(shape) < 0.05
        x[pick] = rng.choice(specials, int(pick.sum()))
        return x

    return Trace(t=np.arange(rows) * 1e-3, q=floats(rows, dof), qd=floats(rows, dof),
                 qx=floats(rows, dof), qxd=floats(rows, dof), tau=floats(rows, dof),
                 tau_star=floats(rows, dof), fc_joint=floats(rows, dof), fc_cart=floats(rows, 2),
                 penetration=floats(rows), s=floats(rows, dof), v=floats(rows, dof), u_s=floats(rows, dof),
                 saturated=rng.random((rows, dof)) < 0.5, contact=rng.random(rows) < 0.5)


_BLOCK = sim._CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("dof", [1, 2])
def test_block_writer_matches_the_one_shot_writer(dof, rows, rng, tmp_path):
    tr = _synthetic_trace(dof, rows, rng)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(tr, path)
    text = trace_to_csv(tr)
    assert text == _one_shot_csv(tr)
    with open(path, "rb") as f:
        assert f.read() == text.encode("ascii")
    back = trace_from_csv(path)
    for f in fields(Trace):
        a, b = getattr(tr, f.name), getattr(back, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert a.tobytes() == b.tobytes(), f.name


def test_trace_file_holds_exactly_the_text_where_lines_end_in_crlf(tmp_path, monkeypatch):
    """Where the platform's line separator is CRLF, a file opened in text mode
    without newline="" turns each written \\r\\n into \\r\\r\\n.  The pure-Python
    io module writes os.linesep, so with that set to CRLF it stands in for
    such a platform."""
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(sim, "open", _pyio.open, raising=False)
    path = str(tmp_path / "trace.csv")
    tr = run_scenario(short(presets()["fig3_one_dof"], 0.01))
    write_trace_csv(tr, path)
    text = trace_to_csv(tr)
    with open(path, "rb") as f:
        assert f.read() == text.encode("ascii")


def _peak_bytes(fn, *args):
    """Peak of the memory that tracemalloc sees allocated while fn runs."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_trace_io_memory_is_bounded(rng, tmp_path):
    """On a two-joint trace the writer peaks under 1 MB, about one block of
    rows, at 5000 rows (a 2.6 MB file) as at 20000 (10.5 MB); when it returned
    the joined text it took twice the file, and the one-shot writer 5.1x.
    The reader from a path stays within 1x the file (3.0x when it read the
    file as one text)."""
    for rows in (5000, 20000):
        tr = _synthetic_trace(2, rows, rng)
        path = str(tmp_path / f"trace{rows}.csv")
        assert _peak_bytes(write_trace_csv, tr, path) < 1_000_000, rows
        assert _peak_bytes(trace_from_csv, path) <= os.path.getsize(path), rows


def test_scenario_json_round_trip(tmp_path):
    for name, sc in presets().items():
        d = scenario_to_dict(sc)
        json.dumps(d)                      # must be serializable as-is
        back = scenario_from_dict(d)
        assert scenario_to_dict(back) == d, name
    path = os.path.join(tmp_path, "sc.json")
    save_scenario(presets()["fig3_one_dof"], path)
    sc = load_scenario(path)
    assert sc.name == "fig3_one_dof"
    assert sc.env.k_s == 2e3


def test_scenario_round_trip_every_preset():
    for sc in list(presets().values()) + [naive_variant(s) for s in presets().values()]:
        back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
        assert back == sc, sc.name


def _random_scenario_dict(rng: random.Random, sc) -> dict:
    """``scenario_to_dict(sc)`` with a random value under every key but
    ``plant``, inside what ``Scenario`` validates: positive floats (also for
    an optional number that is None), ints, lists of the same length, fresh
    strings; timing, force schedule and approach mode drawn valid."""
    def value(v):
        if isinstance(v, dict):
            return {k: value(x) for k, x in v.items()}
        if isinstance(v, list):
            return [value(x) for x in v]
        if isinstance(v, str):
            return "".join(rng.choice(string.ascii_lowercase + "_-")
                           for _ in range(rng.randint(1, 12)))
        if isinstance(v, int):
            return rng.randint(1, 10**6)
        return math.ldexp(rng.random(), rng.randint(-20, 20))

    d = scenario_to_dict(sc)
    out = {key: x if key == "plant" or x is None else value(x) for key, x in d.items()}
    out["qd0_rad_per_s"] = value(d["q0_rad"])
    out["dt_sub_s"] = 10 ** rng.uniform(-6, -4)
    out["h_s"] = out["dt_sub_s"] * rng.randint(1, 400)
    out["duration_s"] = out["h_s"] * rng.uniform(1.0, 1e4)
    out["fd_schedule_N"] = sorted(value([0.0] * 3) for _ in range(rng.randint(1, 4)))
    out["approach"]["mode"] = rng.choice(("none", "velocity"))
    if rng.random() < 0.5:
        out["controller"]["k1"] = "structured"
    return out


def test_scenario_round_trip_randomized():
    rng = random.Random(20240817)
    scenarios = list(presets().values()) + [naive_variant(s) for s in presets().values()]
    for _ in range(20):
        for sc in scenarios:
            d = _random_scenario_dict(rng, sc)
            back = scenario_from_dict(json.loads(json.dumps(d)))
            assert scenario_to_dict(back) == d, sc.name
            assert scenario_from_dict(scenario_to_dict(back)) == back, sc.name


def test_scenario_from_dict_names_the_json_key_of_a_bad_value():
    d = scenario_to_dict(presets()["fig3_one_dof"])
    d["env"]["ks_N_per_m"] = math.nan
    with pytest.raises(ValueError, match=r"env\.ks_N_per_m must be finite"):
        scenario_from_dict(d)


def test_scenario_from_dict_names_a_bad_plant_parameter():
    d = scenario_to_dict(presets()["linmotor_steps"])
    d["plant_params"]["kappa"] = 0.0
    with pytest.raises(ValueError, match=r"^plant_params\.kappa must be positive"):
        scenario_from_dict(d)
    d["plant_params"]["kappa"] = math.inf
    with pytest.raises(ValueError, match=r"^plant_params\.kappa must be finite"):
        scenario_from_dict(d)


@pytest.mark.parametrize("section,key", [(None, "bogus"), (None, "seed"), ("env", "ks"),
                                         ("disturbance", "amp"),
                                         ("controller", "torque_limit_Nm"),
                                         ("estimate", "mass_diag"), ("approach", "vref"),
                                         ("plant_params", "mass1")])
def test_scenario_from_dict_rejects_unknown_keys(section, key):
    d = scenario_to_dict(presets()["fig3_one_dof"])
    (d if section is None else d[section])[key] = 1.0
    dotted = key if section is None else f"{section}.{key}"
    with pytest.raises(ValueError, match=re.escape(repr(dotted))):
        scenario_from_dict(d)


def test_unsorted_fd_schedule_rejected():
    d = scenario_to_dict(presets()["fig3_one_dof"])
    d["fd_schedule_N"] = [[1.0, 0.0, -3.0], [0.0, 0.0, -2.0]]
    with pytest.raises(ValueError, match="fd_schedule_N"):
        scenario_from_dict(d)
    # an override bypasses construction; the run checks again before stepping
    sc = short(presets()["fig3_one_dof"])
    apply_override(sc, "fd_schedule", [[1.0, 0.0, -3.0], [0.0, 0.0, -2.0]])
    with pytest.raises(ScenarioError, match="fd_schedule_N"):
        run_scenario(sc)
    d["fd_schedule_N"] = [[0.0, 0.0, -2.0], [1.0, 0.0, -3.0]]
    assert scenario_from_dict(d).fd_schedule == ((0.0, 0.0, -2.0), (1.0, 0.0, -3.0))


@pytest.mark.parametrize("duration", [0.0004, 0.0005, 0.0, math.nan, math.inf])
def test_duration_must_give_a_controller_step(duration):
    d = scenario_to_dict(presets()["fig3_one_dof"])
    d["duration_s"] = duration
    with pytest.raises(ValueError, match="duration_s"):
        scenario_from_dict(d)
    # an override bypasses construction; the run checks again before stepping
    sc = short(presets()["fig3_one_dof"])
    sc.duration = duration
    with pytest.raises(ScenarioError, match="duration_s"):
        run_scenario(sc)
    sc.duration = 0.0006
    assert run_scenario(sc).t.size == 1


def test_settle_time_is_python_float(fig3_run):
    assert type(fig3_run[2].settle_time) is float


def _json_leaves(doc, prefix=""):
    """(dotted JSON key, value) of every field a scenario dict holds."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _json_leaves(value, f"{prefix}{key}.")
        elif not (key == "plant_params" and value is None):
            yield prefix + key, value


def _bumped(value):
    if isinstance(value, list):
        return [_bumped(v) for v in value]
    if isinstance(value, str):
        return value + "_x"
    return 1.0 if value is None else value + 1


@pytest.mark.parametrize("name", sorted(presets()))
def test_every_json_key_resolves_through_apply_override(name):
    for sc in (presets()[name], naive_variant(presets()[name])):
        doc = dict(_json_leaves(scenario_to_dict(sc)))
        for key, value in doc.items():
            assert not isinstance(value, bool), key
            if key == "qd0_rad_per_s" and value is None:
                value = doc["q0_rad"]   # unset, it takes a list like q0_rad
            changed = copy.deepcopy(sc)
            apply_override(changed, key, _bumped(value))
            # the override lands on exactly the field the file writes under key
            assert dict(_json_leaves(scenario_to_dict(changed))) == {**doc, key: _bumped(value)}, key


def test_apply_override_paths():
    sc = presets()["fig3_one_dof"]
    apply_override(sc, "h_s", "0.0005")
    assert sc.h == 5e-4
    apply_override(sc, "env.ks_N_per_m", 1e4)
    assert sc.env.k_s == 1e4
    apply_override(sc, "controller.k2", "20.0")
    assert sc.controller.k2 == 20.0
    apply_override(sc, "fd_y", -1.5)
    assert sc.fd_schedule == ((0.0, 0.0, -1.5),)
    apply_override(sc, "q0_rad", "[0.01]")
    assert sc.q0 == (0.01,)
    apply_override(sc, "controller.lambda_per_s", "12")
    assert sc.controller.lam == 12.0
    apply_override(sc, "controller.mx_diag", "[0.4]")
    assert sc.controller.mx == (0.4,)
    with pytest.raises(KeyError):
        apply_override(sc, "no.such.path", 1.0)


def test_sweep_rows_and_reproducibility():
    sc = short(presets()["linmotor_steps"], 3.0)
    rows = sweep(sc, "env.ks_N_per_m", list(LINMOTOR_STIFFNESS_LEVELS))
    assert [v for v, _ in rows] == list(LINMOTOR_STIFFNESS_LEVELS)
    assert all(isinstance(m, Metrics) for _, m in rows)
    assert all(m.torque_violations == 0 for _, m in rows)
    again = sweep(sc, "env.ks_N_per_m", list(LINMOTOR_STIFFNESS_LEVELS))
    assert [metrics_to_dict(m) for _, m in rows] == [metrics_to_dict(m) for _, m in again]


@pytest.mark.parametrize("path,values,message", [
    ("controller.k2", [11.6, 11.7, -1.0], "controller.k2 and controller.k3 must be positive"),
    ("controller.kind", ["proposed", "bogus"], "unknown controller.kind: 'bogus'"),
    ("controller.us_mode", ["bogus"], "controller.us_mode must be one of"),
    ("estimate.kind", ["diag", "bogus"], "unknown estimate.kind: 'bogus'"),
    ("dt_sub_s", [1e-5, 3e-5], "must be an integer multiple of dt_sub_s = 3e-05 s"),
    ("q0_rad", [[0.1], [0.1, 0.2]], "q0_rad needs 1 finite entries"),
])
def test_sweep_refuses_a_value_the_build_rejects_before_any_run(monkeypatch, path, values,
                                                               message):
    """A value that its field accepts but the scenario's build rejects is
    named, with its field, before the first run."""
    runs = []
    monkeypatch.setattr(sim, "run_scenario", lambda sc: runs.append(sc))
    with pytest.raises(ScenarioError) as got:
        sweep(presets()["fig3_one_dof"], path, values)
    assert runs == []
    assert str(got.value).startswith(f"bad sweep value {values[-1]!r} for {path}: ")
    assert message in str(got.value)


def test_naive_variant_switches_controller():
    sc = presets()["fig3_one_dof"]
    nv = naive_variant(sc)
    assert nv.controller.kind == "naive"
    assert sc.controller.kind == "proposed"


def test_fig3_steady_penetration(fig3_run):
    sc, tr, m, _ = fig3_run
    # steady normal force 2 N against 2 kN/m gives 1.0 mm of penetration
    model_pen = 2.0 / sc.env.k_s
    window = tr.last_window(0.5)
    y = np.array([0.5 * math.sin(q) for q in tr.q[window, 0]])
    pen = sc.env.y_s - y
    assert np.mean(pen) == pytest.approx(model_pen, rel=0.02)


def test_fig3_gravity_term_balance():
    # exact-model contact equilibrium: applied torque balances the contact
    # torque (gravity-free horizontal arm), consistent with s -> 0
    sc = copy.deepcopy(presets()["fig3_one_dof"])
    sc.estimate.kind = "exact"
    tr = run_scenario(sc)
    w = tr.last_window(0.5)
    assert np.mean(tr.tau[w, 0]) == pytest.approx(-np.mean(tr.fc_joint[w, 0]), abs=0.02)
    assert np.abs(tr.s[w]).max() < 1e-3


def test_fig3_halved_step_consistency(fig3_run):
    sc, tr, m, _ = fig3_run
    half = copy.deepcopy(sc)
    # both halved, so the period keeps its substep count
    apply_override(half, "h_s", sc.h / 2)
    apply_override(half, "dt_sub_s", sc.dt_sub / 2)
    tr2 = run_scenario(half)
    m2 = compute_metrics(tr2, half)
    assert abs(m2.steady_force_mean - m.steady_force_mean) / 2.0 < 0.01


def test_fig3_substep_refinement():
    sc = short(presets()["fig3_one_dof"], 1.5)
    tr = run_scenario(sc)
    fine = copy.deepcopy(sc)
    fine.dt_sub = sc.dt_sub / 10.0
    tr2 = run_scenario(fine)
    assert abs(tr.q[-1, 0] - tr2.q[-1, 0]) < 1e-3


def test_two_link_ee_above_surface_initially(ee_kinematics):
    sc = presets()["fig5_two_dof"]
    y0 = ee_kinematics(_plant_params(sc), np.array(sc.q0))[0][1]
    assert y0 > sc.env.y_s


def test_approach_phase_switches_on_contact():
    sc = presets()["linmotor_steps"]
    tr = run_scenario(sc)
    k_contact = int(np.flatnonzero(tr.contact)[0])
    # during the approach the robust-loop columns stay zeroed
    assert np.all(tr.u_s[:k_contact] == 0.0)
    assert np.any(tr.u_s[k_contact + 10:] != 0.0)
    # velocity servo tracks the commanded approach speed before contact
    mid = slice(k_contact // 2, k_contact)
    assert np.allclose(tr.qd[mid, 0], sc.approach.v_ref, atol=0.02)


@pytest.mark.parametrize("attr,value,key", [("q0", (math.nan,), "q0_rad"),
                                            ("qd0", (math.inf,), "qd0_rad_per_s"),
                                            ("q0", (0.0, 0.0), "q0_rad")])
def test_initial_state_checked_before_the_run(attr, value, key):
    sc = short(presets()["fig3_one_dof"])
    setattr(sc, attr, value)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(sc)


def test_two_link_disturbance_rejected():
    sc = short(presets()["fig5_two_dof"])
    sc.disturbance = DisturbanceSpec(kind="sine", amplitude=1.0, freq_hz=5.0)
    with pytest.raises(ValueError, match=r"disturbance\.kind"):
        run_scenario(sc)


@pytest.mark.parametrize("name,limits", [("fig3_one_dof", (3.0, 4.0)),
                                         ("fig5_two_dof", (3.0,)),
                                         ("linmotor_steps", (12.5, 12.5))])
def test_torque_limit_count_must_match_plant(name, limits):
    sc = copy.deepcopy(presets()[name])
    sc.controller.torque_limits = limits
    with pytest.raises(ValueError, match=r"controller\.torque_limits_Nm"):
        build_model(sc)


@pytest.mark.parametrize("k1,gamma1", [pytest.param(30.0, 0.0, id="implicit-vector"),
                                       # G = (1 + h*gamma1) I: the radial closed form
                                       pytest.param("structured", 150.0,
                                                    id="implicit-vector-structured")])
def test_two_dof_implicit_inner_loops_closed_loop(k1, gamma1):
    sc = short(presets()["fig5_two_dof"], 1.0)
    sc.controller.us_mode = "implicit-vector"
    sc.controller.k1 = k1
    sc.controller.gamma1 = gamma1
    tr = run_scenario(sc)
    m = compute_metrics(tr, sc)
    assert m.torque_violations == 0
    assert np.all(np.abs(tr.tau) <= np.asarray(sc.controller.torque_limits))
    assert np.all(np.isfinite(tr.q)) and np.all(np.isfinite(tr.u_s))
    assert tr.contact.any()


@pytest.mark.parametrize("estimate", ["exact", "unequal-diag", "structured-k4"])
def test_two_dof_general_iteration_matrix_closed_loop(monkeypatch, estimate):
    """fig5 with implicit-vector and an inclusion that is not the radial
    quadratic: an iteration matrix G that is not a multiple of I, from the
    arm's own model (G non-symmetric, evaluated every period) or a diagonal
    estimate of unequal entries (G = diag(1.25, 1.2)), or the structured k1
    (G = (1 + h*gamma1) I) with k4 = 1, whose alpha2 > 0 makes the radial
    equation a cubic.  Every solve outside the dead band takes the scalar
    root; the run settles without a rebound, and the root converges in a
    few iterations."""
    sc = copy.deepcopy(presets()["fig5_two_dof"])
    sc.controller.us_mode = "implicit-vector"
    if estimate == "exact":
        sc.estimate.kind = "exact"
    elif estimate == "unequal-diag":
        sc.estimate.mass_diag = (0.2, 0.3)
        sc.estimate.coriolis_diag = (20.0, 30.0)
    else:
        sc.controller.k1 = "structured"
        sc.controller.gamma1 = 150.0
        sc.controller.k4 = 1.0
    solves = []

    def recording(*args, _fn=admittance._solve_inclusion):
        out = _fn(*args)
        solves.append((out[2].iterations, out[2].converged))
        return out

    monkeypatch.setattr(admittance, "_solve_inclusion", recording)
    tr = run_scenario(sc)
    m = compute_metrics(tr, sc)
    assert m.torque_violations == 0 and m.rebound_count == 0
    assert m.steady_force_err <= 0.01
    iterations = [it for it, _ in solves]
    assert all(converged for _, converged in solves)
    assert len(solves) > tr.t.size // 2 and max(iterations) <= 8
    assert sum(it > 1 for it in iterations) > tr.t.size // 2


# The layer boundaries an outside profiler wraps, as (module, name): each
# must stay a call through that module's namespace, made once per controller
# step, or a wrapper placed there silently times nothing.  Within a period
# they are the stages' float bodies; the public stage functions are array
# wrappers over the same bodies, which a period does not call.
_LAYER_BOUNDARIES = (
    (sim, "integrate_substep"), (sim, "contact_wrench"),
    (sim, "admittance_step"), (sim, "baseline_naive_step"),
    (admittance, "_proxy"), (admittance, "_sliding"), (admittance, "_robust"),
    (admittance, "_candidate"), (admittance, "_naive_pd"),
    (admittance, "_project"), (admittance, "_certificate"),
)
_WRAPPERS = (
    (admittance, "proxy_predict"), (admittance, "inner_loop_candidate"), (admittance, "project_box"),
    (admittance, "variational_residual"), (admittance, "sta_scalar_implicit_step"),
)


@pytest.mark.parametrize("kind", ["proposed", "naive"])
def test_layer_boundaries_are_called_once_per_step(monkeypatch, kind):
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in _LAYER_BOUNDARIES + _WRAPPERS:
        calls[name] = 0
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    sc = short(presets()["fig3_one_dof"], 0.05)
    sc.controller.kind = kind
    steps = run_scenario(sc).t.size
    assert steps == 50
    skipped = {"proposed": ("baseline_naive_step", "_naive_pd"),
               "naive": ("admittance_step", "_sliding", "_robust", "_candidate")}[kind]
    skipped += tuple(name for _, name in _WRAPPERS)
    assert calls == {name: 0 if name in skipped else steps
                     for _, name in _LAYER_BOUNDARIES + _WRAPPERS}


@pytest.mark.parametrize("kind", ["proposed", "naive"])
def test_applied_torque_is_the_candidate_itself_exactly_when_unsaturated(monkeypatch, kind):
    """On every controller step of 1 s of each preset, the step hands back
    its candidate as the applied torque (``tau is diag.tau_star``) exactly
    when no joint saturated, and a new array when one did; both occur."""
    step_name = "admittance_step" if kind == "proposed" else "baseline_naive_step"
    original = getattr(sim, step_name)
    seen = []

    def recording(*args):
        tau, state, diag = original(*args)
        seen.append((tau is diag.tau_star, bool(diag.saturated.any())))
        return tau, state, diag

    monkeypatch.setattr(sim, step_name, recording)
    for sc in presets().values():
        run_scenario(short(sc if kind == "proposed" else naive_variant(sc), 1.0))
    assert all(same is not saturated for same, saturated in seen)
    assert {saturated for _, saturated in seen} == {True, False}


# --------------------------------------------------------------------------- runner oracle

def _plant_params(sc):
    """The parameters of the scenario's plant: its own, or its kind's defaults."""
    return sc.plant_params if sc.plant_params is not None else sim._plant_kind(sc.plant)[1]()


def _run_scenario_rows(sc, ee_kinematics):
    """The runner as it was before its per-step bookkeeping moved to floats,
    kept as the oracle of ``run_scenario``: kinematics as arrays (closed
    form, ``ee_kinematics``), both joint-space forces from one numpy
    product, the force schedule looked up every step, and each channel's
    row stored on its own."""
    model, disturbance, estimate, gains, q0, state = sim._build_run(sc)
    n = model.dof
    env = sc.env
    params = _plant_params(sc)
    controller_step = (admittance.admittance_step if sc.controller.kind == "proposed"
                       else admittance.baseline_naive_step)
    steps = int(round(sc.duration / sc.h))
    n_sub = int(round(sc.h / sc.dt_sub))
    in_force_phase = sc.approach.mode == "none"
    ctrl_state = admittance.initial_state(q0) if in_force_phase else None
    tr = Trace(**{attr: np.zeros(steps if per_step else (steps, len(cols)),
                                 dtype=bool if is_bool else float)
                  for attr, cols, is_bool, per_step in sim._trace_layout(n)})
    for k in range(steps):
        t = k * sc.h
        ee, jac = ee_kinematics(params, state.q)
        fx, fy = plant.contact_wrench(ee, jac.dot(state.qd).tolist(), env)
        fdx, fdy = sim._fd_lookup(sc.fd_schedule, t)
        forces = jac.T.dot(np.array([[fx, fdx], [fy, fdy]])).T
        fc_joint, fd_joint = forces[0], forces[1]
        if not in_force_phase and fy != 0.0:
            in_force_phase = True
            ctrl_state = admittance.initial_state(state.q)
        if in_force_phase:
            meas = admittance.Measurement(q=state.q, fc=fc_joint, fd=fd_joint)
            tau, ctrl_state, diag = controller_step(ctrl_state, meas, estimate, gains)
            tr.qx[k] = ctrl_state.qx_prev
            tr.qxd[k] = ctrl_state.qxd_prev
            tr.tau_star[k] = diag.tau_star
            tr.s[k] = diag.s
            tr.v[k] = ctrl_state.v_prev
            tr.u_s[k] = diag.u_s
            tr.saturated[k] = diag.saturated
        else:
            ap = sc.approach
            cmd = ap.kv * (ap.v_ref - state.qd[-1]) + ap.hold_force
            tau = np.zeros(n)
            tau[-1] = max(-gains.box.limits[-1], min(gains.box.limits[-1], cmd))
            tr.qx[k] = state.q
            tr.tau_star[k] = tau
        tr.t[k] = t
        tr.q[k] = state.q
        tr.qd[k] = state.qd
        tr.tau[k] = tau
        tr.fc_joint[k] = fc_joint
        tr.fc_cart[k, 0] = fx
        tr.fc_cart[k, 1] = fy
        tr.penetration[k] = env.y_s - ee[1]
        tr.contact[k] = fy > 0.0
        state = plant.integrate_substep(model, state, tau, env, disturbance, t, sc.dt_sub, n_sub)
    return tr


def _metrics_rows(trace, sc, ee_kinematics) -> tuple:
    """(settle_time, rebound_count, max_penetration) as ``compute_metrics``
    computed them before its loops read lists: numpy scalars in the loops
    and the pose of each row in closed form (``ee_kinematics``)."""
    fd_mag = abs(sim._fd_lookup(sc.fd_schedule, trace.t[-1])[1])
    fcy = trace.fc_cart[:, 1]
    settle = math.nan
    contact_idx = np.flatnonzero(trace.contact)
    if fd_mag > 0.0 and contact_idx.size:
        ok = np.abs(fcy - fd_mag) <= 0.05 * fd_mag
        need = max(1, int(round(0.5 / sc.h)))
        start = contact_idx[0]
        run = 0
        for k in range(start, trace.t.size):
            run = run + 1 if ok[k] else 0
            if run >= need:
                settle = float(trace.t[k - need + 1] - trace.t[start])
                break
    rebounds = 0
    run = 0
    sustain = int(round(0.2 / sc.h))
    for k in range(trace.t.size):
        if trace.contact[k]:
            run += 1
        else:
            if run >= sustain:
                rebounds += 1
            run = 0
    params = _plant_params(sc)
    pen = max([0.0, *(sc.env.y_s - ee_kinematics(params, q)[0][1] for q in trace.q)])
    return settle, rebounds, pen


def _oracle_cases():
    """(name, scenario) of the 1 s runs checked against the oracle runner:
    every preset, proposed and naive, plus the linear stage under a sine
    disturbance and under a schedule of several breakpoints (two at one
    instant), and the two-link arm with the approach servo."""
    cases = []
    for name, sc in presets().items():
        cases += [(name, short(sc, 1.0)), (name + "_naive", short(naive_variant(sc), 1.0))]
    sc = short(presets()["linmotor_steps"], 1.0)
    sc.disturbance = DisturbanceSpec(kind="sine", amplitude=0.5, freq_hz=2.0)
    cases.append(("linmotor_steps:sine", sc))
    sc = short(presets()["linmotor_steps"], 1.0)
    sc.fd_schedule = ((0.0, 0.0, -1.5), (0.8, 0.5, -2.0), (0.9, 0.0, -1.0),
                      (0.9, 0.0, -2.5), (0.96, 0.0, -1.0))
    cases.append(("linmotor_steps:schedule", sc))
    sc = short(presets()["fig5_two_dof"], 1.0)
    sc.approach = sim.ApproachSpec(mode="velocity", v_ref=-0.3, kv=5.0, hold_force=0.5)
    cases.append(("fig5_two_dof:approach", sc))
    return cases


@pytest.mark.parametrize("sc", [pytest.param(sc, id=name) for name, sc in _oracle_cases()])
def test_runner_matches_the_per_row_numpy_runner(sc, ee_kinematics):
    """Every channel of ``run_scenario`` is the oracle's bit for bit, except
    where the oracle's BLAS product and the float force map round apart:
    fig3/fig5 ``fc_joint`` (proposed) within one rounding, 2^-52 of
    |jx_i fx| + |jy_i fy|, and every channel of the naive fig3/fig5 runs,
    whose controller carries such a rounding into the state, within 1e-10.
    The metrics of the run are those of the pre-list metric loops, by repr."""
    new, old = run_scenario(sc), _run_scenario_rows(sc, ee_kinematics)
    naive_arm = sc.plant != "linear_motor" and sc.controller.kind == "naive"
    for f in fields(Trace):
        a, b = getattr(new, f.name), getattr(old, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        if naive_arm:
            assert np.max(np.abs(a.astype(float) - b.astype(float))) <= 1e-10, f.name
        elif f.name == "fc_joint" and sc.plant != "linear_motor":
            jac = np.array([ee_kinematics(_plant_params(sc), q)[1] for q in old.q])
            fx, fy = old.fc_cart[:, :1], old.fc_cart[:, 1:]
            magnitude = np.abs(jac[:, 0] * fx) + np.abs(jac[:, 1] * fy)
            assert np.all(np.abs(a - b) <= 2.0 ** -52 * magnitude), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name
    m = compute_metrics(new, sc)
    assert repr((m.settle_time, m.rebound_count, m.max_penetration)) == \
        repr(_metrics_rows(new, sc, ee_kinematics))
