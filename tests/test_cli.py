import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nonsmooth_adm import cli, sim, verify
from nonsmooth_adm.cli import main
from nonsmooth_adm.sim import presets, save_scenario, scenario_to_dict, trace_from_csv


def test_run_preset_writes_outputs(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["run", "--scenario", "fig3_one_dof", "--out", out,
                 "--set", "duration_s=0.5", "--plot"])
    assert code == 0
    trace = trace_from_csv(os.path.join(out, "trace.csv"))
    assert trace.t.size == 500
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["torque_violations"] == 0
    for panel in ("position.svg", "force.svg", "torque.svg"):
        assert os.path.exists(os.path.join(out, panel))
    assert "ran fig3_one_dof" in capsys.readouterr().out


def test_run_override_changes_row_count(tmp_path):
    out = str(tmp_path / "run2")
    code = main(["run", "--scenario", "fig3_one_dof", "--out", out,
                 "--set", "duration_s=0.5", "--set", "h_s=0.00025", "--set", "dt_sub_s=2.5e-5"])
    assert code == 0
    trace = trace_from_csv(os.path.join(out, "trace.csv"))
    assert trace.t.size == 2000


def test_run_unknown_preset_lists_available(tmp_path, capsys):
    code = main(["run", "--scenario", "no_such_preset", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "fig3_one_dof" in err and "linmotor_steps" in err


def test_run_bad_override_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(tmp_path),
                 "--set", "bogus.path=3"])
    assert code == 2


def test_run_scenario_file(tmp_path):
    sc = presets()["msta_bench"]
    sc.duration = 0.5
    path = str(tmp_path / "bench.json")
    save_scenario(sc, path)
    out = str(tmp_path / "file_run")
    assert main(["run", "--scenario", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "trace.csv"))


def test_simulation_failure_exit_code(tmp_path, capsys):
    code = main(["run", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "x"),
                 "--set", "duration_s=1.0",
                 "--set", "controller.kind=naive",
                 "--set", "controller.kp=-5e6",
                 "--set", "controller.kd=-5e4",
                 "--set", "controller.torque_limits=[1e300,1e300]"])
    assert code == 3
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("override,field", [
    ("disturbance.kind=sine", "disturbance.kind"),
    ("controller.torque_limits=[3.0]", "controller.torque_limits_Nm"),
    ("duration_s=0.0004", "duration_s"),
    ("controller.us_mode=scalar-implicit", "controller.us_mode"),
    ("controller.us_mode=implicit-decoupled", "controller.us_mode"),
    ("controller.us_coupling=inertia-scaled", "controller.us_coupling"),
    ("estimate.mass_diag_kgm2=[0.2,0.2,0.2]", "estimate.mass_diag_kgm2"),
    ("estimate.mass_diag_kgm2=[NaN]", "estimate.mass_diag_kgm2"),
    ("controller.us_mode=implicit-vector estimate.mass_diag_kgm2=[0,0.2]",
     "estimate.mass_diag_kgm2"),
    ("fig3_one_dof estimate.mass_diag_kgm2=[0]", "estimate.mass_diag_kgm2"),
    ("controller.k2=NaN", "controller.k2"),
    ("controller.k1=NaN", "controller.k1"),
    ("controller.kind=naive controller.kp=NaN", "controller.kp"),
    ("controller.kind=naive controller.mx_diag=[-0.5,0.5]", "controller.mx_diag"),
    ("controller.kind=naive controller.bx_diag=[-1.0,1.0]", "controller.bx_diag"),
    ("controller.kind=naive controller.k1=bogus", "controller.k1"),
    # --set values that do not convert to the field's type
    ("disturbance.amplitude=null", "disturbance.amplitude"),
    ("controller.fp_max_iter=abc", "controller.fp_max_iter"),
    ("controller.fp_max_iter=2.5", "controller.fp_max_iter"),
    ("duration_s=true", "duration_s"),
    ("approach.mode=bogus", "approach.mode"),
    ("approach.v_ref_m_per_s=NaN", "approach.v_ref_m_per_s"),
    ("fd_schedule_N=[[0.0,0.0,NaN]]", "fd_schedule_N"),
    # plant parameters, on the preset named first
    ("linmotor_steps plant_params.friction_coulomb=NaN", "plant_params.friction_coulomb"),
    ("linmotor_steps plant_params.friction_viscous=-50", "plant_params.friction_viscous"),
    ("linmotor_steps plant_params.kappa=0", "plant_params.kappa"),
    ("fig3_one_dof plant_params.g=Infinity", "plant_params.g"),
    ("fig5_two_dof plant_params.J2=NaN", "plant_params.J2"),
    # a plant kind whose parameter type is not that of the preset's plant_params
    ("fig3_one_dof plant=two_link", "plant_params"),
    ("fig5_two_dof plant=linear_motor", "plant_params"),
    # a retired plant kind
    ("fig3_one_dof plant=double_integrator", "plant double_integrator"),
    ("fig3_one_dof dt_sub_s=1e-300", "dt_sub_s"),
    ("fig3_one_dof dt_sub_s=3e-5", "dt_sub_s"),
    # fewer than one plant substep per period
    ("fig3_one_dof dt_sub_s=1e6", "dt_sub_s"),
    ("fig3_one_dof dt_sub_s=2e-3", "dt_sub_s"),
    # the dead band h^2*k3 underflows to 0; the period is the scenario's h_s
    ("fig3_one_dof h_s=1e-200 dt_sub_s=1e-200 duration_s=1e-200", "controller.k3 h_s"),
])
def test_unbuildable_scenario_is_config_error(tmp_path, capsys, override, field):
    """``override`` holds one or more space-separated ``--set`` values, led by
    the preset to run when it is not fig5_two_dof; ``field`` holds each name
    the error must give, space-separated."""
    words = override.split()
    scenario = words.pop(0) if "=" not in words[0] else "fig5_two_dof"
    sets = [arg for value in words for arg in ("--set", value)]
    code = main(["run", "--scenario", scenario, "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.1", *sets])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in field.split())
    assert "Traceback" not in err


@pytest.mark.parametrize("dt_sub", ["1e-300", "5e-324", "9.999e-8"])
def test_too_many_substeps_is_config_error_before_the_run(tmp_path, capsys, monkeypatch, dt_sub):
    """More than MAX_SUBSTEPS plant substeps per controller period (h_s =
    1 ms here) is refused, naming dt_sub_s, before any substep runs."""
    calls = []
    monkeypatch.setattr(sim, "integrate_substep", lambda *args: calls.append(args))
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", f"dt_sub_s={dt_sub}", "--set", "duration_s=0.05"])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dt_sub_s" in err and str(sim.MAX_SUBSTEPS) in err


def test_ill_posed_implicit_step_is_config_error_before_the_run(tmp_path, capsys, monkeypatch):
    """A constant estimate whose implicit-vector iteration matrix G has
    G + G^T not positive definite is refused before the first step, naming
    the fields G comes from; the explicit inner loop runs with it."""
    bad = ["--set", "estimate.coriolis_diag_Nms=[-1000,20]", "--set", "duration_s=0.05"]
    calls = []
    monkeypatch.setattr(sim, "integrate_substep", lambda *args: calls.append(args))
    code = main(["run", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "x"),
                 "--set", "controller.us_mode=implicit-vector", *bad])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "G + G^T not positive definite" in err
    for key in ("estimate.mass_diag_kgm2", "estimate.coriolis_diag_Nms", "controller.k1"):
        assert key in err
    monkeypatch.undo()
    assert main(["run", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "y"),
                 "--set", "controller.us_mode=explicit", *bad]) == 0


def test_substep_bound_admits_its_own_count():
    """Both ends of the bound admit their own count, one substep and
    MAX_SUBSTEPS, and refuse a count beyond it.  A ratio h_s / dt_sub_s below
    one rounds to 0 substeps, a plant that never moves; at dt_sub_s = 1e6 s
    the ratio 1e-9 would pass the integer-multiple check."""
    sc = presets()["fig3_one_dof"]
    sc.dt_sub = sc.h / sim.MAX_SUBSTEPS
    sc.validate()
    sc.dt_sub = sc.h / (sim.MAX_SUBSTEPS + 1)
    with pytest.raises(ValueError, match="dt_sub_s"):
        sc.validate()
    sc.dt_sub = sc.h
    sc.validate()
    for dt_sub in (2.0 * sc.h, 1e6):
        sc.dt_sub = dt_sub
        with pytest.raises(ValueError, match=rf"^dt_sub_s = {dt_sub} s makes .* plant substeps "
                                             rf"per controller period h_s = 0.001 s; at least 1 "
                                             rf"and at most {sim.MAX_SUBSTEPS} are allowed$"):
            sc.validate()


def test_compare_too_short_duration_is_config_error(tmp_path, capsys):
    code = main(["compare", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.0004"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duration_s" in err


def test_scenario_file_with_unknown_key_is_config_error(tmp_path, capsys):
    doc = scenario_to_dict(presets()["fig3_one_dof"])
    doc["controller"]["torque_limit_Nm"] = doc["controller"].pop("torque_limits_Nm")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "controller.torque_limit_Nm" in capsys.readouterr().err


def test_scenario_file_with_the_retired_plant_kind_is_config_error(tmp_path, capsys):
    """msta_bench's double integrator is now the frictionless linear stage;
    a file that names the kind ``double_integrator`` is refused while it is
    read, before its plant_params are built."""
    doc = scenario_to_dict(presets()["msta_bench"])
    doc["plant"] = "double_integrator"
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "plant" in err and "'double_integrator'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,bad", [("controller.k2", "11.6"),
                                     ("controller.lambda_per_s", [10.0]),
                                     ("q0_rad", "0"), ("duration_s", True),
                                     ("controller.fp_max_iter", 2.5), ("h_s", "0.001"),
                                     ("env.ks_N_per_m", "2000"), ("controller.mx_diag", 0.3),
                                     ("fd_schedule_N", [[0.0, 0.0, "-2"]]),
                                     ("fd_schedule_N", [0.0])])
def test_scenario_file_value_of_the_wrong_type_is_config_error(tmp_path, capsys, key, bad):
    doc = scenario_to_dict(presets()["fig3_one_dof"])
    section, _, leaf = key.rpartition(".")
    (doc[section] if section else doc)[leaf] = bad
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} " in err
    assert "Traceback" not in err


def test_compare_outputs(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code = main(["compare", "--scenario", "fig3_one_dof", "--out", out, "--plot"])
    assert code == 0
    table = json.load(open(os.path.join(out, "metrics_compare.json")))
    assert table["proposed"]["torque_violations"] == 0
    naive = table["naive"]
    assert naive["rebound_count"] >= 1 or naive["steady_force_err"] > 0.2
    assert os.path.exists(os.path.join(out, "compare_force.svg"))


def test_compare_free_space_no_contact(tmp_path):
    out = str(tmp_path / "cmp_free")
    code = main(["compare", "--scenario", "msta_bench", "--out", out,
                 "--set", "duration_s=0.5"])
    assert code == 0
    table = json.load(open(os.path.join(out, "metrics_compare.json")))
    assert table["proposed"]["steady_force_err"] is None
    assert table["naive"]["steady_force_err"] is None


def test_sweep_command(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    code = main(["sweep", "--scenario", "linmotor_steps", "--out", out,
                 "--set", "duration_s=3.0",
                 "--param", "fd_y", "--values=-1.5,-2.0"])
    assert code == 0
    table = json.load(open(os.path.join(out, "sweep.json")))
    assert table["param"] == "fd_y"
    assert [row["value"] for row in table["rows"]] == [-1.5, -2.0]
    assert all(row["torque_violations"] == 0 for row in table["rows"])


def test_sweep_over_a_list_field(tmp_path):
    """A list value is one item of ``--values``, brackets and all."""
    out = str(tmp_path / "sweep")
    code = main(["sweep", "--scenario", "fig5_two_dof", "--out", out,
                 "--set", "duration_s=0.05", "--param", "controller.torque_limits_Nm",
                 "--values", "[3,4],[5.5,6]"])
    assert code == 0
    table = json.load(open(os.path.join(out, "sweep.json")))
    assert [row["value"] for row in table["rows"]] == [[3, 4], [5.5, 6]]


@pytest.mark.parametrize("values,expected", [
    ("-1.5,-2.0", [-1.5, -2.0]),
    ("[3,4]", [[3, 4]]),
])
def test_sweep_values_are_the_items_of_one_json_array(tmp_path, monkeypatch, values, expected):
    swept = []
    monkeypatch.setattr(cli, "sweep", lambda sc, param, vals: swept.append(vals) or [])
    code = main(["sweep", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "x"),
                 "--param", "controller.k1", f"--values={values}"])
    assert code == 0 and swept == [expected]


@pytest.mark.parametrize("values", ["[3,4", "1,,2", ""])
def test_unparsable_sweep_values_are_config_error(tmp_path, capsys, monkeypatch, values):
    monkeypatch.setattr(sim, "run_scenario", lambda sc: pytest.fail("a run started"))
    code = main(["sweep", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "x"),
                 "--param", "controller.torque_limits_Nm", f"--values={values}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: could not parse sweep values {values!r}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("values", ["-5", '"a"', "200,-5"])
def test_sweep_value_its_field_rejects_is_config_error(tmp_path, capsys, monkeypatch, values):
    """Every sweep value is checked against its field before the first run."""
    runs = []
    monkeypatch.setattr(sim, "run_scenario", lambda sc: runs.append(sc))
    code = main(["sweep", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.02", "--param", "env.k_s", "--values", values])
    assert code == 2 and runs == []
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep value ") and "env.k_s" in err
    assert repr(json.loads(values.split(",")[-1])) in err and "Traceback" not in err


def test_verify_single_group(capsys):
    code = main(["verify", "--group", "projection"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS projection:variational-inequality" in out
    assert "sta-scalar:" not in out


def test_verify_unknown_group(capsys):
    assert main(["verify", "--group", "bogus"]) == 2


def test_verify_fault_injection(monkeypatch, capsys):
    # a failing check must fail the command and name its group
    monkeypatch.setitem(verify.GROUPS, "projection",
                        lambda: [verify.CheckResult("projection", "injected", False,
                                                    "injected fault")])
    code = main(["verify", "--group", "projection"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL projection:injected" in out


def test_verify_needs_only_numpy():
    # every check runs in an interpreter where importing scipy fails
    code = ("import sys; sys.modules['scipy'] = None; "
            "from nonsmooth_adm import cli; sys.exit(cli.main(['verify']))")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "all 20 checks passed" in done.stdout


def test_plot_from_trace(tmp_path):
    out = str(tmp_path / "p")
    assert main(["run", "--scenario", "msta_bench", "--out", out,
                 "--set", "duration_s=0.5"]) == 0
    out2 = str(tmp_path / "panels")
    code = main(["plot", "--scenario", os.path.join(out, "trace.csv"),
                 "--out", out2, "--limits", "50"])
    assert code == 0
    assert os.path.exists(os.path.join(out2, "position.svg"))


def test_a_one_row_trace_plots(tmp_path):
    """A run of one period writes a one-row trace, whose panels span no
    time: ``run --plot``, ``plot`` of its trace and ``compare --plot`` all
    draw them."""
    out = str(tmp_path / "one")
    assert main(["run", "--scenario", "fig3_one_dof", "--out", out,
                 "--set", "duration_s=0.001", "--plot"]) == 0
    assert trace_from_csv(os.path.join(out, "trace.csv")).t.size == 1
    panels = ("position.svg", "force.svg", "torque.svg")
    assert sorted(n for n in os.listdir(out) if n.endswith(".svg")) == sorted(panels)
    out2 = str(tmp_path / "panels")
    assert main(["plot", "--scenario", os.path.join(out, "trace.csv"), "--out", out2]) == 0
    assert all(os.path.exists(os.path.join(out2, n)) for n in panels)
    out3 = str(tmp_path / "cmp")
    assert main(["compare", "--scenario", "fig3_one_dof", "--out", out3,
                 "--set", "duration_s=0.001", "--plot"]) == 0
    assert os.path.exists(os.path.join(out3, "compare_force.svg"))


@pytest.mark.parametrize("limits", ["3,x", "3,4", "nan", "-3"])
def test_plot_limits_need_one_finite_positive_value_per_joint(tmp_path, capsys, limits):
    out = str(tmp_path / "p")
    assert main(["run", "--scenario", "fig3_one_dof", "--out", out,
                 "--set", "duration_s=0.05"]) == 0
    capsys.readouterr()
    code = main(["plot", "--scenario", os.path.join(out, "trace.csv"),
                 "--out", str(tmp_path / "panels"), "--limits", limits])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --limits") and "Traceback" not in err
    assert not os.path.exists(tmp_path / "panels")


@pytest.mark.parametrize("content", ["a,b\n1,2\n", "{}"])
def test_plot_malformed_trace_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    assert main(["plot", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column 1" in err
    assert "Traceback" not in err


def test_plot_of_a_trace_header_without_rows_is_config_error(tmp_path, capsys, recwarn):
    path = tmp_path / "h.csv"
    path.write_text(",".join(sim._trace_columns(1)) + "\r\n", newline="")
    assert main(["plot", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: could not parse trace file {str(path)!r}")
    assert "no row follows the header" in err and "Traceback" not in err
    assert not [w for w in recwarn if "loadtxt" in str(w.message)]
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("command,preset,files", [
    ("run", "fig3_one_dof", {"trace.csv": False}),
    ("compare", "fig5_two_dof", {"proposed_trace.csv": False, "naive_trace.csv": True}),
])
def test_written_trace_files_hold_the_trace_text(tmp_path, command, preset, files):
    """Each trace file the CLI writes holds exactly the text of the run's
    trace, byte for byte."""
    out = str(tmp_path / command)
    assert main([command, "--scenario", preset, "--out", out, "--set", "duration_s=0.2"]) == 0
    sc = presets()[preset]
    sc.duration = 0.2
    for name, naive in files.items():
        text = sim.trace_to_csv(sim.run_scenario(sim.naive_variant(sc) if naive else sc))
        with open(os.path.join(out, name), "rb") as f:
            assert f.read() == text.encode("ascii"), name


@pytest.mark.parametrize("override,field", [("q0=[NaN]", "q0_rad"),
                                            ("qd0=[Infinity]", "qd0_rad_per_s")])
def test_non_finite_initial_state_is_config_error(tmp_path, capsys, override, field):
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("key", ["amplitude", "freq_hz", "rate", "level", "t_start"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_disturbance_is_config_error(tmp_path, capsys, key, bad):
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.1", "--set", "disturbance.kind=sine",
                 "--set", f"disturbance.{key}={bad}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: disturbance.{key} must be finite")


@pytest.mark.parametrize("override,field", [("controller.k1=NaN", "controller.k1"),
                                            ("controller.k1=structured "
                                             "controller.gamma1_per_s=NaN",
                                             "controller.gamma1_per_s")])
def test_naive_gain_source_is_named(tmp_path, capsys, override, field):
    """kp and kd derive from k1 (gamma1 for a structured k1): a non-finite
    source is reported under its own key, not under the derived kp."""
    sets = [arg for value in override.split() for arg in ("--set", value)]
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.1", "--set", "controller.kind=naive", *sets])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err and "controller.kp" not in err


@pytest.mark.parametrize("first,second,stored", [("structured", "30", 30.0),
                                                 ("30", "structured", "structured"),
                                                 ("structured", '"structured"', "structured"),
                                                 ("structured", "2.5e1", 25.0)])
def test_set_on_a_str_or_number_field_reads_json_first(tmp_path, first, second, stored):
    """controller.k1 takes a number or the word "structured": a later --set
    is read as JSON whatever k1 holds, so a number replaces the word."""
    out = tmp_path / "x"
    code = main(["run", "--scenario", "fig3_one_dof", "--out", str(out),
                 "--set", "duration_s=0.05", "--set", f"controller.k1={first}",
                 "--set", f"controller.k1={second}"])
    assert code == 0
    k1 = json.load(open(out / "scenario.json"))["controller"]["k1"]
    assert k1 == stored and type(k1) is type(stored)


def test_gains_error_names_json_key(tmp_path, capsys):
    code = main(["run", "--scenario", "fig5_two_dof", "--out", str(tmp_path / "x"),
                 "--set", "controller.lam=5000"])
    assert code == 2
    err = capsys.readouterr().err
    assert "controller.lambda_per_s" in err and not re.search(r"\blam\b", err)


def test_plot_missing_file(tmp_path):
    assert main(["plot", "--scenario", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 2
