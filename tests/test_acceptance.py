"""Acceptance gate: one test per shipping criterion, each printing a PASS/FAIL
line with the measured quantity next to its bound."""

import copy
import math

import numpy as np

from nonsmooth_adm.admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    admittance_step,
)
from nonsmooth_adm.msta import (
    MstaGains,
    msta_error_recursion_step,
    msta_implicit_step,
    norm_quad_value,
    sta_scalar_implicit_step,
)
from nonsmooth_adm.setvalued import BoxConstraint, project_box, variational_residual
from nonsmooth_adm.sim import (
    LINMOTOR_STIFFNESS_LEVELS,
    apply_override,
    compute_metrics,
    double_integrator_bench,
    presets,
    run_scenario,
)
from nonsmooth_adm.plant import two_link_model
from nonsmooth_adm.verify import sta_bisection_reference


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_one_dof_impact(fig3_run):
    sc, trace, metrics, elapsed = fig3_run
    window = trace.last_window(1.0)
    mean_fy = float(np.mean(trace.fc_cart[window, 1]))
    torque_ok = bool(np.all(np.abs(trace.tau) <= 3.0))
    late = trace.t > 1.5
    losses = int(np.sum(~trace.contact[late]))
    ok = (abs(mean_fy - 2.0) <= 0.10 and torque_ok and losses == 0 and elapsed < 10.0)
    report("criterion-1 one-joint impact", ok,
           f"mean fy {mean_fy:.4f} N (2 +/- 0.1), |tau|<=3 {torque_ok}, "
           f"contact losses after 1.5 s {losses}, runtime {elapsed:.2f} s < 10 s")


def test_criterion_2_two_link_impact(fig5_run):
    sc, trace, metrics, = fig5_run
    window = trace.last_window(1.0)
    mean_fy = float(np.mean(trace.fc_cart[window, 1]))
    t1_ok = bool(np.all(np.abs(trace.tau[:, 0]) <= 3.0))
    t2_ok = bool(np.all(np.abs(trace.tau[:, 1]) <= 4.0))
    ok = abs(mean_fy - 2.0) <= 0.20 and t1_ok and t2_ok
    report("criterion-2 two-link impact", ok,
           f"mean fy {mean_fy:.4f} N (2 +/- 0.2), |tau1|<=3 {t1_ok}, |tau2|<=4 {t2_ok}")


def test_criterion_3_baseline_contrast(fig3_run, fig3_naive_run):
    _, trace, _, _ = fig3_run
    _, _, naive_metrics = fig3_naive_run
    window = trace.last_window(1.0)
    proposed_ok = abs(float(np.mean(trace.fc_cart[window, 1])) - 2.0) <= 0.10
    fails = naive_metrics.rebound_count >= 1 or naive_metrics.steady_force_err > 0.20
    ok = proposed_ok and fails
    report("criterion-3 naive baseline fails where proposed passes", ok,
           f"naive rebounds {naive_metrics.rebound_count}, naive steady error "
           f"{naive_metrics.steady_force_err:.3f} (need >=1 rebound or >0.2); proposed passes {proposed_ok}")


def test_criterion_4_chattering_suppression():
    g = MstaGains(k2=11.6, k3=66.0)
    h, delta3 = 1e-3, 10.0
    implicit = double_integrator_bench("scalar-implicit", g, h, 5.0, delta3)
    explicit = double_integrator_bench("explicit", g, h, 5.0, delta3)
    tail = implicit["t"] >= 4.0
    std_i = float(np.std(implicit["u"][tail]))
    std_e = float(np.std(explicit["u"][tail]))
    post = implicit["t"] >= 0.5
    band = float(np.abs(implicit["s"][post]).max())
    bound = 2.0 * h * h * delta3
    ok = std_i <= 0.10 * std_e and band <= bound
    report("criterion-4 chattering suppression", ok,
           f"std(u) implicit {std_i:.2e} vs explicit {std_e:.2e} "
           f"(ratio {std_i / std_e if std_e else math.inf:.4f} <= 0.10), "
           f"|s| band {band:.2e} <= {bound:.2e}")


def test_criterion_5b_scalar_sta_oracle(rng):
    worst = 0.0
    for _ in range(1000):
        k2 = rng.uniform(0.5, 30.0)
        k3 = rng.uniform(1.0, 300.0)
        h = 10.0 ** rng.uniform(-4, -2)
        s = float(rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5))
        v = float(rng.uniform(-5, 5))
        got = sta_scalar_implicit_step(s, MstaGains(k2=k2, k3=k3), 1.0, h, v)
        ref = sta_bisection_reference(s, k2, k3, h, v)
        worst = max(worst, max(abs(x - y) for x, y in zip(got, ref)))
    ok = worst <= 1e-10
    report("criterion-5b scalar implicit step vs bisection", ok,
           f"worst deviation {worst:.2e} <= 1e-10 over 1000 instances")


def test_criterion_5c_vector_vs_scalar(rng):
    worst = 0.0
    for _ in range(1000):
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200), gamma1=0.0)
        h = 10.0 ** rng.uniform(-3.5, -2)
        m = rng.uniform(0.1, 5.0)
        s = np.array([rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5)])
        v = np.array([rng.uniform(-3, 3)])
        u_vec, v_vec, _ = msta_implicit_step(s, np.array([[m]]), np.array([[0.0]]), g, h, v)
        u_sc, v_sc, _, _ = sta_scalar_implicit_step(float(s[0]), g, 1.0, h, float(v[0]))
        worst = max(worst, abs(float(u_vec[0]) - u_sc), abs(float(v_vec[0]) - v_sc))
    ok = worst <= 1e-8
    report("criterion-5c vector implicit solver at n=1 vs scalar path", ok,
           f"worst deviation {worst:.2e} <= 1e-8 over 1000 instances")


def test_criterion_5d_controller_oracle(rng, straight_line_deviation):
    worst = 0.0
    for _ in range(100):
        h = 1e-3
        mhat = np.array([[rng.uniform(0.05, 0.5)]])
        chat = np.array([[rng.uniform(0.0, 2.0)]])
        g = AdmittanceGains(mx=np.array([[rng.uniform(0.1, 1.0)]]),
                            bx=np.array([[rng.uniform(0.5, 5.0)]]),
                            lam=rng.uniform(1.0, 50.0), k1=rng.uniform(5.0, 80.0),
                            msta=MstaGains(k2=rng.uniform(2, 20), k3=rng.uniform(10, 200)),
                            box=BoxConstraint([rng.uniform(1.0, 6.0)]), h=h,
                            us_mode="scalar-implicit")
        est = ModelEstimate(lambda q, M=mhat: M, lambda q, qd, C=chat: C,
                            lambda q: np.zeros(1))
        st = AdmittanceState(rng.normal(size=1) * 0.3, rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1) * 0.3,
                             rng.normal(size=1) * 0.01, rng.normal(size=1))
        meas = Measurement(rng.normal(size=1) * 0.3, rng.normal(size=1) * 4,
                           rng.normal(size=1) * 2)
        worst = max(worst, straight_line_deviation(g, est, mhat, chat, st, meas,
                                                   "scalar-implicit"))
    ok = worst <= 1.0
    report("criterion-5d controller step vs straight-line evaluation", ok,
           f"worst deviation {worst:.2f} <= 1 allowance (1e-12 relative; tau also "
           "8 |W| eps cond(W) position units) over 100 states")


def test_criterion_6_command_and_environment_robustness():
    base = presets()["linmotor_steps"]
    assert base.h == 4e-3 and tuple(base.controller.mx) == (0.2,)
    worst = 0.0
    violations = 0
    cells = []
    for ks in LINMOTOR_STIFFNESS_LEVELS:
        for fd in (-1.5, -2.0, -2.5):
            sc = copy.deepcopy(base)
            apply_override(sc, "env.k_s", ks)
            apply_override(sc, "fd_y", fd)
            m = compute_metrics(run_scenario(sc), sc)
            cells.append((ks, fd, m.steady_force_err))
            worst = max(worst, m.steady_force_err)
            violations += m.torque_violations
    ok = worst <= 0.05 and violations == 0
    report("criterion-6 fixed-gain robustness over 9 cells", ok,
           f"worst steady error {worst:.4f} <= 0.05, torque violations {violations}")


def test_criterion_7_lyapunov_monotonicity(rng):
    worst = -math.inf
    h = 1e-3
    for _ in range(100):
        n = int(rng.choice([1, 2]))
        g = MstaGains(k2=rng.uniform(1, 15), k3=rng.uniform(5, 100),
                      k4=rng.uniform(0, 2), gamma1=rng.uniform(0, 20))
        s1 = rng.normal(scale=2.0, size=n)
        s2 = rng.normal(scale=2.0, size=n)
        previous = None
        for _ in range(1000):
            s1, s2, shat, _, _ = msta_error_recursion_step(s1, s2, g, h)
            value = g.k3 * norm_quad_value(shat, g.alpha2) + 0.5 * float(s2 @ s2)
            if previous is not None:
                worst = max(worst, value - previous)
            previous = value
    ok = worst <= 1e-12
    report("criterion-7 discrete Lyapunov decrease", ok,
           f"worst increase {worst:.2e} <= 1e-12 over 100 runs x 1000 steps")


def test_criterion_8_structural_invariants(rng, fig3_run, fig5_run):
    _, trace3, _, _ = fig3_run
    _, trace5, _ = fig5_run

    worst_idem = worst_nonexp = 0.0
    for _ in range(300):
        n = int(rng.choice([1, 2]))
        box = BoxConstraint(rng.uniform(0.3, 5.0, size=n))
        a, b = rng.normal(scale=5, size=n), rng.normal(scale=5, size=n)
        pa, pb = project_box(a, box), project_box(b, box)
        worst_idem = max(worst_idem, float(np.abs(project_box(pa, box) - pa).max()))
        worst_nonexp = max(worst_nonexp,
                           float(np.linalg.norm(pa - pb) - np.linalg.norm(a - b)))

    # saturated-step optimality straight off the logged traces
    worst_vi = -math.inf
    saturated_steps = 0
    for trace, limits in ((trace3, (3.0,)), (trace5, (3.0, 4.0))):
        box = BoxConstraint(list(limits))
        for k in range(trace.t.size):
            if trace.saturated[k].any():
                saturated_steps += 1
                worst_vi = max(worst_vi, variational_residual(trace.tau_star[k],
                                                              trace.tau[k], box))

    # unsaturated transparency on random controller steps with a wide box
    worst_trans = 0.0
    g = AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([1e6]),
                        h=1e-3, us_mode="scalar-implicit")
    est = ModelEstimate.constant((0.1,), (0.0,))
    for _ in range(100):
        st = AdmittanceState(rng.normal(size=1) * 0.2, rng.normal(size=1),
                             rng.normal(size=1), rng.normal(size=1) * 0.2,
                             rng.normal(size=1) * 0.01, rng.normal(size=1))
        meas = Measurement(rng.normal(size=1) * 0.2, rng.normal(size=1) * 3,
                           rng.normal(size=1) * 2)
        tau, st2, diag = admittance_step(st, meas, est, g)
        assert not diag.saturated.any()
        worst_trans = max(worst_trans, float(np.abs(st2.qx_prev - diag.qx_star).max()))

    # two-link skew symmetry
    model = two_link_model()
    eps = 1e-6
    worst_skew = 0.0
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, size=2)
        qd = rng.normal(size=2)
        x = rng.normal(size=2)
        mdot = (model.mass_fn(q + eps * qd) - model.mass_fn(q - eps * qd)) / (2 * eps)
        worst_skew = max(worst_skew,
                         abs(float(x @ (mdot - 2 * model.coriolis_fn(q, qd)) @ x)) / float(x @ x))

    # bit-identical rerun of a full preset
    sc = presets()["fig3_one_dof"]
    rerun = run_scenario(sc)
    identical = all(np.array_equal(getattr(trace3, f), getattr(rerun, f))
                    for f in ("t", "q", "qx", "tau", "u_s", "s", "v"))

    ok = (worst_idem <= 1e-15 and worst_nonexp <= 1e-12
          and worst_vi <= 1e-10 and saturated_steps > 0 and worst_trans <= 1e-10
          and worst_skew <= 1e-6 and identical)
    report("criterion-8 structural invariants", ok,
           f"idempotence {worst_idem:.1e}, non-expansive slack {worst_nonexp:.1e}, "
           f"VI residual {worst_vi:.1e} over "
           f"{saturated_steps} saturated steps, transparency {worst_trans:.1e}, "
           f"skew-symmetry {worst_skew:.1e}, bit-identical rerun {identical}")
