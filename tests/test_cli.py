import json
import os
import re

import pytest

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
                 "--set", "duration_s=0.5", "--set", "h_s=0.00025"])
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
    ("estimate.mass_diag_kgm2=[0.2,0.2,0.2]", "estimate.mass_diag_kgm2"),
    ("estimate.mass_diag_kgm2=[NaN]", "estimate.mass_diag_kgm2"),
    ("controller.k2=NaN", "controller.k2"),
    ("controller.k1=NaN", "controller.k1"),
    ("controller.kind=naive controller.kp=NaN", "controller.kp"),
    ("controller.kind=naive controller.mx_diag=[-0.5,0.5]", "controller.mx_diag"),
    ("controller.kind=naive controller.bx_diag=[-1.0,1.0]", "controller.bx_diag"),
    ("controller.kind=naive controller.k1=bogus", "controller.k1"),
    # --set values that do not convert to the field's type
    ("disturbance.amplitude=null", "disturbance.amplitude"),
    ("controller.fp_max_iter=abc", "controller.fp_max_iter"),
    ("approach.mode=bogus", "approach.mode"),
    ("approach.v_ref_m_per_s=NaN", "approach.v_ref_m_per_s"),
    ("fd_schedule_N=[[0.0,0.0,NaN]]", "fd_schedule_N"),
    # plant parameters, on the preset named first
    ("linmotor_steps plant_params.friction_coulomb=NaN", "plant_params.friction_coulomb"),
    ("linmotor_steps plant_params.friction_viscous=-50", "plant_params.friction_viscous"),
    ("linmotor_steps plant_params.kappa=0", "plant_params.kappa"),
    ("fig3_one_dof plant_params.g=Infinity", "plant_params.g"),
    ("fig5_two_dof plant_params.J2=NaN", "plant_params.J2"),
])
def test_unbuildable_scenario_is_config_error(tmp_path, capsys, override, field):
    """``override`` holds one or more space-separated ``--set`` values, led by
    the preset to run when it is not fig5_two_dof."""
    words = override.split()
    scenario = words.pop(0) if "=" not in words[0] else "fig5_two_dof"
    sets = [arg for value in words for arg in ("--set", value)]
    code = main(["run", "--scenario", scenario, "--out", str(tmp_path / "x"),
                 "--set", "duration_s=0.1", *sets])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


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


def test_verify_single_group(capsys):
    code = main(["verify", "--group", "prox"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS prox:closed-form-vs-minimizer" in out
    assert "projection:" not in out


def test_verify_unknown_group(capsys):
    assert main(["verify", "--group", "bogus"]) == 2


def test_verify_fault_injection(capsys):
    # forcing every tolerance to zero must fail and name the group
    code = main(["verify", "--group", "prox", "--tol-scale", "0"])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL prox:" in out


def test_plot_from_trace(tmp_path):
    out = str(tmp_path / "p")
    assert main(["run", "--scenario", "msta_bench", "--out", out,
                 "--set", "duration_s=0.5"]) == 0
    out2 = str(tmp_path / "panels")
    code = main(["plot", "--scenario", os.path.join(out, "trace.csv"),
                 "--out", out2, "--limits", "50"])
    assert code == 0
    assert os.path.exists(os.path.join(out2, "position.svg"))


@pytest.mark.parametrize("content", ["a,b\n1,2\n", "{}"])
def test_plot_malformed_trace_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    assert main(["plot", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "column 1" in err
    assert "Traceback" not in err


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
