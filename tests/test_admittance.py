import dataclasses
import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from nonsmooth_adm.admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    _diagonal,
    _solve,
    admittance_step,
    baseline_naive_step,
    initial_state,
    inner_loop_candidate,
    proxy_predict,
    sliding_variable,
)
from nonsmooth_adm.msta import MstaGains, MstaState, SolverConvergenceError
from nonsmooth_adm.plant import two_link_model
from nonsmooth_adm.setvalued import BoxConstraint, project_box
from nonsmooth_adm.verify import admittance_reference


def fig3_gains(h=1e-3, limit=3.0, us_mode="scalar-implicit"):
    return AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=30.0,
                           msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([limit]),
                           h=h, us_mode=us_mode)


def estimate_1dof(m=0.1, c=0.0):
    return ModelEstimate.constant((m,), (c,))


def _step_bits(out) -> bytes:
    """Every number one step returns, as bytes, for a bitwise comparison."""
    tau, st, d = out
    arrays = [tau, st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev, st.msta_state.v,
              d.tau_star, d.tau, d.qx_star, d.q1_star, d.s, d.qe, d.u_s, d.saturated,
              d.lambda_vi_residual]
    if d.solver is not None:
        arrays += [d.solver.shat, d.solver.m2, d.solver.residual, d.solver.iterations]
    return b"".join(np.asarray(a).tobytes() for a in arrays)



def test_gains_validation():
    with pytest.raises(ValueError):
        fig3_gains(h=0.2)             # lam >= 1/h
    with pytest.raises(ValueError, match="underflows to 0"):
        fig3_gains(h=1e-200)          # the dead band h^2*k3 underflows to 0
    with pytest.raises(ValueError):
        AdmittanceGains(mx=np.array([[-0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=1.0, k3=1.0), box=BoxConstraint([3.0]), h=1e-3)
    with pytest.raises(ValueError):
        AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[-2.0]]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=1.0, k3=1.0), box=BoxConstraint([3.0]), h=1e-3)


def test_proxy_predict_rest():
    g = fig3_gains()
    st = initial_state(np.array([0.4]))
    ux, qx = proxy_predict(st, np.zeros(1), np.zeros(1), g)
    assert np.array_equal(ux, np.zeros(1))
    assert np.array_equal(qx, np.array([0.4]))


def test_proxy_predict_value():
    g = fig3_gains()
    st = initial_state(np.zeros(1))
    ux, qx = proxy_predict(st, np.array([-2.0]), np.zeros(1), g)
    assert ux[0] == pytest.approx(-0.002 / 0.302, rel=1e-12)
    assert qx[0] == pytest.approx(g.h * ux[0], rel=1e-12)


def test_proxy_steady_state_fixed_point():
    g = fig3_gains()
    f = np.array([-1.3])
    ux = np.linalg.solve(g.bx, f)
    st = AdmittanceState(np.zeros(1), ux, ux, np.zeros(1), np.zeros(1), MstaState.zero(1))
    ux2, _ = proxy_predict(st, f, np.zeros(1), g)
    assert np.allclose(ux2, ux, atol=1e-14)


def test_sliding_variable_values():
    g = fig3_gains()
    st = initial_state(np.zeros(1))
    qe, s = sliding_variable(np.array([0.01]), np.zeros(1), st, g)
    assert qe[0] == pytest.approx(0.01)
    assert s[0] - g.lam * qe[0] == pytest.approx(10.0)     # the rate qed
    assert s[0] == pytest.approx(10.1)


def test_sliding_variable_zero_and_steady():
    g = fig3_gains()
    st = initial_state(np.array([0.2]))
    qe, s = sliding_variable(np.array([0.2]), np.array([0.2]), st, g)
    assert qe[0] == 0.0 and s[0] == 0.0
    st2 = AdmittanceState(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([0.03]), MstaState.zero(1))
    qe, s = sliding_variable(np.array([0.03]), np.zeros(1), st2, g)
    assert s[0] == g.lam * qe[0]        # qed = 0 exactly
    assert s[0] == pytest.approx(g.lam * 0.03)


def test_inner_loop_zero_chain():
    g = fig3_gains()
    st = initial_state(np.zeros(1))
    q1, tau = inner_loop_candidate(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                                   st, estimate_1dof(), g)
    assert np.allclose(tau, 0.0, atol=1e-12)
    assert np.allclose(q1, 0.0, atol=1e-15)


def test_inner_loop_affine_in_proxy_gap(rng):
    g = fig3_gains()
    st = AdmittanceState(rng.normal(size=1) * 0.1, rng.normal(size=1), rng.normal(size=1),
                         rng.normal(size=1) * 0.1, rng.normal(size=1) * 0.01,
                         MstaState.zero(1))
    q = rng.normal(size=1) * 0.1
    u_s = rng.normal(size=1)
    step = np.array([0.05])
    q1_0, t0 = inner_loop_candidate(q, q, np.zeros(1), u_s, st, estimate_1dof(), g)
    q1_1, t1 = inner_loop_candidate(q + step, q, np.zeros(1), u_s, st, estimate_1dof(), g)
    q1_2, t2 = inner_loop_candidate(q + 2 * step, q, np.zeros(1), u_s, st, estimate_1dof(), g)
    assert np.array_equal(q1_0, q1_1) and np.array_equal(q1_1, q1_2)
    assert (t2 - t1)[0] == pytest.approx((t1 - t0)[0], rel=1e-9)


def test_step_zero_fixed_point():
    g = fig3_gains()
    st = initial_state(np.zeros(1))
    tau, st2, diag = admittance_step(st, Measurement([0.0], [0.0], [0.0]),
                                     estimate_1dof(), g)
    assert np.array_equal(tau, np.zeros(1))
    assert np.array_equal(st2.qx_prev, np.zeros(1))
    # away from the origin the cancellation is exact only to roundoff of the
    # internal 1/h^2 scale
    st = initial_state(np.array([0.2]))
    tau, st2, diag = admittance_step(st, Measurement([0.2], [0.0], [0.0]),
                                     estimate_1dof(), g)
    assert np.allclose(tau, 0.0, atol=1e-9)
    assert np.allclose(st2.qx_prev, [0.2], atol=1e-12)
    assert np.allclose(st2.qxd_prev, 0.0, atol=1e-10)
    assert not diag.saturated.any()


def test_step_unsaturated_transparency(rng):
    g = fig3_gains(limit=1e6)      # huge box: never saturates
    for _ in range(50):
        st = AdmittanceState(rng.normal(size=1) * 0.1, rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1) * 0.1, rng.normal(size=1) * 0.01,
                             MstaState(rng.normal(size=1)))
        meas = Measurement(rng.normal(size=1) * 0.1, rng.normal(size=1), rng.normal(size=1))
        tau, st2, diag = admittance_step(st, meas, estimate_1dof(), g)
        assert not diag.saturated.any()
        assert np.array_equal(tau, diag.tau_star)
        assert np.abs(st2.qx_prev - diag.qx_star).max() <= 1e-10


def test_step_saturated_pullback():
    g = fig3_gains()
    est = estimate_1dof()
    st = AdmittanceState(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                         np.zeros(1), MstaState.zero(1))
    # large contact force drives tau_star beyond the box
    meas = Measurement(np.zeros(1), np.array([40.0]), np.zeros(1))
    tau, st2, diag = admittance_step(st, meas, est, g)
    assert diag.saturated.all()
    assert abs(tau[0]) == 3.0
    gap_full = diag.qx_star - diag.q1_star
    gap_applied = st2.qx_prev - diag.q1_star
    assert gap_applied[0] == pytest.approx(gap_full[0] * tau[0] / diag.tau_star[0], rel=1e-9)
    assert diag.lambda_vi_residual <= 1e-10


def test_step_hard_bound_and_vi(rng):
    g = fig3_gains()
    est = estimate_1dof()
    for _ in range(200):
        st = AdmittanceState(rng.normal(size=1) * 0.3, rng.normal(size=1) * 2,
                             rng.normal(size=1), rng.normal(size=1) * 0.3,
                             rng.normal(size=1) * 0.02, MstaState(rng.normal(size=1) * 3))
        meas = Measurement(rng.normal(size=1) * 0.3, rng.normal(size=1) * 8,
                           rng.normal(size=1) * 3)
        tau, _, diag = admittance_step(st, meas, est, g)
        assert np.all(np.abs(tau) <= g.box.limits)        # exact, no tolerance
        assert diag.lambda_vi_residual <= 1e-10
        assert np.array_equal(diag.saturated, np.abs(diag.tau_star) > g.box.limits)


def _random_state(gen, n):
    return AdmittanceState(gen.normal(size=n) * 0.3, gen.normal(size=n), gen.normal(size=n),
                           gen.normal(size=n) * 0.3, gen.normal(size=n) * 0.01,
                           MstaState(gen.normal(size=n)))


def _reference_error(g, est, mhat, chat, st, meas, us_mode):
    """Largest scaled deviation of one admittance_step from admittance_reference."""
    tau, st2, diag = admittance_step(st, meas, est, g)
    ref = admittance_reference(st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev,
                               st.qe_prev, st.msta_state.v, meas.q, meas.fc, meas.fd,
                               g.mx, g.bx, g.lam, g.k1, mhat, chat, np.zeros(len(meas.q)),
                               g.box.limits, g.h, us_mode, g.msta.k2, g.msta.k3,
                               gamma1=g.msta.gamma1, us_coupling=g.us_coupling)
    scale = 1.0 + float(np.abs(ref["tau_star"]).max())
    return max(float(np.abs(tau - ref["tau"]).max()) / scale,
               float(np.abs(diag.tau_star - ref["tau_star"]).max()) / scale,
               float(np.abs(st2.qx_prev - ref["qx"]).max()),
               float(np.abs(diag.u_s - ref["u_s"]).max()) / (1 + float(np.abs(ref["u_s"]).max())))


def test_step_matches_straight_line_reference(rng):
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
        st = AdmittanceState(rng.normal(size=1) * 0.3, rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1) * 0.3, rng.normal(size=1) * 0.01,
                             MstaState(rng.normal(size=1)))
        meas = Measurement(rng.normal(size=1) * 0.3, rng.normal(size=1) * 4,
                           rng.normal(size=1) * 2)
        worst = max(worst, _reference_error(g, est, mhat, chat, st, meas, "scalar-implicit"))
    # the structured gain -C + gamma1*M and the inertia-scaled coupling, drawn
    # from their own stream so the shared rng sequence is unchanged
    gen = np.random.default_rng(11)
    for k1, coupling in (("structured", "direct"), (30.0, "inertia-scaled"),
                         ("structured", "inertia-scaled")):
        for _ in range(50):
            mhat = np.array([[gen.uniform(0.05, 0.5)]])
            chat = np.array([[gen.uniform(0.0, 2.0)]])
            g = AdmittanceGains(mx=np.array([[gen.uniform(0.1, 1.0)]]),
                                bx=np.array([[gen.uniform(0.5, 5.0)]]),
                                lam=gen.uniform(1.0, 50.0), k1=k1,
                                msta=MstaGains(k2=gen.uniform(2, 20), k3=gen.uniform(10, 200),
                                               gamma1=gen.uniform(0.0, 100.0)),
                                box=BoxConstraint([gen.uniform(1.0, 6.0)]), h=1e-3,
                                us_mode="scalar-implicit", us_coupling=coupling)
            est = ModelEstimate(lambda q, M=mhat: M, lambda q, qd, C=chat: C,
                                lambda q: np.zeros(1))
            meas = Measurement(gen.normal(size=1) * 0.3, gen.normal(size=1) * 4,
                               gen.normal(size=1) * 2)
            worst = max(worst, _reference_error(g, est, mhat, chat, _random_state(gen, 1),
                                                meas, "scalar-implicit"))
    assert worst <= 1e-12


def test_step_explicit_mode_two_dof(rng):
    g = AdmittanceGains(mx=np.diag([0.5, 0.5]), bx=np.diag([1.0, 1.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="explicit")
    est = ModelEstimate.constant((0.2, 0.2), (20.0, 20.0))
    for _ in range(50):
        st = AdmittanceState(rng.normal(size=2) * 0.2, rng.normal(size=2), rng.normal(size=2),
                             rng.normal(size=2) * 0.2, rng.normal(size=2) * 0.01,
                             MstaState(rng.normal(size=2)))
        meas = Measurement(rng.normal(size=2) * 0.2, rng.normal(size=2) * 5,
                           rng.normal(size=2) * 2)
        tau, st2, diag = admittance_step(st, meas, est, g)
        ref = admittance_reference(st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev,
                                   st.qe_prev, st.msta_state.v, meas.q, meas.fc, meas.fd,
                                   g.mx, g.bx, g.lam, g.k1, np.diag([0.2, 0.2]),
                                   np.diag([20.0, 20.0]), np.zeros(2), g.box.limits,
                                   1e-3, "explicit", 11.6, 66.0)
        assert np.abs(tau - ref["tau"]).max() <= 1e-12 * (1 + np.abs(ref["tau"]).max())
        assert np.all(np.abs(tau) <= g.box.limits)
    # a constant, non-diagonal SPD inertia estimate (with a full Coriolis
    # matrix), for the scalar and the structured gain, on its own stream
    gen = np.random.default_rng(12)
    worst = 0.0
    for k1 in (30.0, "structured"):
        for _ in range(50):
            a = gen.normal(size=(2, 2))
            mhat = a @ a.T + 0.1 * np.eye(2)
            chat = gen.normal(size=(2, 2)) * 5.0
            g = AdmittanceGains(mx=np.diag([0.5, 0.5]), bx=np.diag([1.0, 1.0]), lam=10.0,
                                k1=k1, msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0),
                                box=BoxConstraint([3.0, 4.0]), h=1e-3, us_mode="explicit")
            est = ModelEstimate(lambda q, M=mhat: M, lambda q, qd, C=chat: C,
                                lambda q: np.zeros(2))
            meas = Measurement(gen.normal(size=2) * 0.2, gen.normal(size=2) * 5,
                               gen.normal(size=2) * 2)
            worst = max(worst, _reference_error(g, est, mhat, chat, _random_state(gen, 2),
                                                meas, "explicit"))
    assert worst <= 1e-12


def test_gains_constants_are_private_read_only_copies():
    mx, bx, lim = np.diag([0.5, 0.4]), np.diag([1.0, 2.0]), np.array([3.0, 4.0])
    g = AdmittanceGains(mx=mx, bx=bx, lam=10.0, k1=30.0, msta=MstaGains(k2=11.6, k3=66.0),
                        box=BoxConstraint(lim), h=1e-3)
    ng = NaiveGains(mx=mx, bx=bx, kp=300.0, kd=31.0, box=BoxConstraint(lim), h=1e-3)
    # the caller's arrays stay writable, and writing them does not reach the gains
    mx[0, 0] = 9.0
    lim[0] = 9.0
    assert g.mx[0, 0] == 0.5 and ng.mx[0, 0] == 0.5 and g.box.limits[0] == 3.0
    for arr in (g.mx, g.bx, ng.mx, ng.bx, g.box.limits, ng.box.limits, g._proxy_diag,
                ng._proxy_diag):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # derived constants follow dataclasses.replace
    st = AdmittanceState(np.zeros(2), np.array([0.3, -0.2]), np.zeros(2), np.zeros(2),
                         np.zeros(2), MstaState.zero(2))
    fc, fd = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    for h in (2e-3, 5e-4):
        g2 = dataclasses.replace(g, h=h)
        ux, _ = proxy_predict(st, fc, fd, g2)
        expected = np.linalg.solve(g.mx + g.bx * h, g.mx @ st.qxd_prev + h * (fc + fd))
        assert np.array_equal(ux, expected)
        ng2 = dataclasses.replace(ng, h=h)
        assert np.array_equal(ng2._proxy_matrix, ng.mx + ng.bx * h)
        assert np.array_equal(ng2._proxy_diag, np.diagonal(ng.mx + ng.bx * h))
    # the loop kept for a constant estimate: set by a step, not carried over
    # by dataclasses.replace, not pickled
    est = ModelEstimate.constant((0.2, 0.3), (20.0, 5.0))
    meas = Measurement(np.array([0.01, -0.02]), fc, fd)
    admittance_step(st, meas, est, g)
    assert g._cached_loop[0] is est
    assert pickle.loads(pickle.dumps(g))._cached_loop == (None, None)
    g3 = dataclasses.replace(g, lam=20.0)
    assert g3._cached_loop == (None, None)
    evaluated = ModelEstimate(est.mass_fn, est.coriolis_fn, est.gravity_fn)
    assert _step_bits(admittance_step(st, meas, est, g3)) == \
        _step_bits(admittance_step(st, meas, evaluated, g3))
    assert g.resolved_us_mode() == "explicit"
    assert dataclasses.replace(g, us_mode="implicit-vector").resolved_us_mode() == "implicit-vector"
    assert np.array_equal(dataclasses.replace(g, k1=50.0)._k1m, 50.0 * np.eye(2))
    assert dataclasses.replace(g, k1="structured")._k1m is None
    box2 = dataclasses.replace(g.box, limits=[1.0, 2.0])
    assert np.array_equal(project_box(np.array([-5.0, 5.0]), box2), [-1.0, 2.0])


def test_scalar_mode_requires_one_joint():
    with pytest.raises(ValueError, match="us_mode"):
        AdmittanceGains(mx=np.diag([0.5, 0.5]), bx=np.diag([1.0, 1.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="scalar-implicit")


def test_naive_baseline_step():
    ng = NaiveGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), kp=300.0, kd=31.0,
                    box=BoxConstraint([3.0]), h=1e-3)
    est = estimate_1dof()
    st = initial_state(np.zeros(1))
    tau, st2, diag = baseline_naive_step(st, Measurement([0.0], [0.0], [0.0]), est, ng)
    assert tau[0] == 0.0
    # linear region: tau = kp*qe + kd*qed when the clamp is inactive
    st3 = AdmittanceState(np.array([0.002]), np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([0.002]), MstaState.zero(1))
    tau, _, diag = baseline_naive_step(st3, Measurement([0.0], [0.0], [0.0]), est, ng)
    qe = 0.002  # proxy coasts: qx stays, qe unchanged, qed = 0
    assert tau[0] == pytest.approx(300.0 * qe, rel=1e-12)
    # clamp engages for large errors
    st4 = AdmittanceState(np.array([0.5]), np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([0.5]), MstaState.zero(1))
    tau, _, diag = baseline_naive_step(st4, Measurement([0.0], [0.0], [0.0]), est, ng)
    assert tau[0] == 3.0 and diag.saturated.all()


def test_certificate_equals_corner_enumeration(rng):
    """The single sign(d) probe gives the maximum over every corner of the box."""
    two_dof = AdmittanceGains(mx=np.diag([0.5, 0.5]), bx=np.diag([1.0, 1.0]), lam=10.0, k1=30.0,
                              msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                              h=1e-3, us_mode="explicit")
    naive = NaiveGains(mx=np.diag([0.5, 0.5]), bx=np.diag([1.0, 1.0]), kp=300.0, kd=31.0,
                       box=BoxConstraint([3.0, 4.0]), h=1e-3)
    cases = [(1, admittance_step, fig3_gains()), (2, admittance_step, two_dof),
             (2, baseline_naive_step, naive)]
    for n, step, g in cases:
        est = ModelEstimate.constant((0.2,) * n, (20.0,) * n)
        corners = [np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n)]
        saturated = 0
        for _ in range(200):
            st = AdmittanceState(rng.normal(size=n) * 0.3, rng.normal(size=n) * 2,
                                 rng.normal(size=n), rng.normal(size=n) * 0.3,
                                 rng.normal(size=n) * 0.02, MstaState(rng.normal(size=n) * 3))
            meas = Measurement(rng.normal(size=n) * 0.3, rng.normal(size=n) * 8,
                               rng.normal(size=n) * 3)
            tau, _, diag = step(st, meas, est, g)
            if not diag.saturated.any():
                continue
            saturated += 1
            d = diag.tau_star - tau
            best = max(float(d @ (p - tau / g.box.limits)) for p in corners)
            assert abs(diag.lambda_vi_residual - best) <= 1e-12 * (1.0 + np.abs(d).sum())
        assert saturated >= 20


def test_diagonal_solve_is_division_bitwise(monkeypatch):
    """Against a diagonal 1 x 1 or 2 x 2 matrix ``_solve`` is ``b / d`` bit for
    bit and agrees with np.linalg.solve to roundoff; a 2 x 2 right-hand side
    holding an exact zero goes to np.linalg.solve."""
    gen = np.random.default_rng(14)
    for i in range(4000):
        n = 1 + i % 2
        d = gen.lognormal(0.0, 3.0, n) * gen.choice([-1.0, 1.0], n)
        b = gen.normal(size=n) * 10.0 ** gen.integers(-6, 6, n)
        A = np.diag(d)
        x = _solve(A, _diagonal(A), b)
        assert x.tobytes() == (b / d).tobytes()
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-15, atol=0.0)
    solved = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(b) or real_solve(a, b))
    for zero in (0.0, -0.0):
        one = _solve(np.array([[4.0]]), np.array([4.0]), np.array([zero]))
        assert one.tobytes() == np.array([zero / 4.0]).tobytes() and solved == []
        A = np.diag([2.0, 4.0])
        for b in (np.array([zero, 1.0]), np.array([3.0, zero])):
            assert _solve(A, _diagonal(A), b).tobytes() == real_solve(A, b).tobytes()
            assert solved.pop() is b


def test_non_diagonal_matrices_keep_the_solve(monkeypatch):
    assert np.array_equal(_diagonal(np.diag([2.0, -3.0])), [2.0, -3.0])
    assert _diagonal(np.array([[1.0, 1e-300], [0.0, 2.0]])) is None
    assert _diagonal(np.array([[1.0, 0.0], [-1e-300, 2.0]])) is None
    assert _diagonal(np.diag([1.0, 0.0])) is None      # singular: the solve raises
    assert _diagonal(np.eye(3)) is None                # division checked for n <= 2 only
    solved = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        solved.append(np.array(a))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    g = AdmittanceGains(mx=np.diag([0.5, 0.4]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="explicit")
    ng = NaiveGains(mx=np.array([[0.5, 0.1], [0.1, 0.4]]), bx=np.diag([1.0, 2.0]), kp=300.0,
                    kd=31.0, box=BoxConstraint([3.0, 4.0]), h=1e-3)
    mhat = np.array([[0.2, 0.05], [0.05, 0.3]])
    full = ModelEstimate(lambda q: mhat, lambda q, qd: np.zeros((2, 2)), lambda q: np.zeros(2))
    diagonal = ModelEstimate.constant((0.2, 0.3), (20.0, 5.0))
    st = initial_state(np.zeros(2))
    meas = Measurement(np.array([0.01, -0.02]), np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    admittance_step(st, meas, diagonal, g)
    assert solved == []
    admittance_step(st, meas, full, g)    # the inner-loop solve and the correction, against W
    assert len(solved) == 2 and all(a[0, 1] != 0.0 for a in solved)
    solved.clear()
    baseline_naive_step(st, meas, diagonal, ng)    # the proxy solve, against mx + bx*h
    assert len(solved) == 1 and np.array_equal(solved[0], ng._proxy_matrix)


@pytest.mark.parametrize("n,us_mode,k1", [(1, "scalar-implicit", 30.0),
                                          (2, "explicit", 30.0),
                                          (2, "implicit-vector", 30.0),
                                          (2, "implicit-vector", "structured")])
def test_cached_loop_matches_a_fresh_gains_object_bitwise(n, us_mode, k1):
    """One gains object alternating between two constant estimates gives, at
    every step, the bits of a fresh gains object and of the same matrices
    evaluated every period."""
    g = AdmittanceGains(mx=np.diag([0.5, 0.4][:n]), bx=np.diag([1.0, 2.0][:n]), lam=10.0, k1=k1,
                        msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0),
                        box=BoxConstraint([3.0, 4.0][:n]), h=1e-3, us_mode=us_mode)
    estimates = (ModelEstimate.constant((0.2, 0.3)[:n], (20.0, 5.0)[:n]),
                 ModelEstimate.constant((0.05,), (1.0,), dof=n))
    gen = np.random.default_rng(15)
    st = initial_state(np.zeros(n))
    for k in range(60):
        est = estimates[(k // 4) % 2]
        meas = Measurement(gen.normal(size=n) * 0.02, gen.normal(size=n) * 5,
                           gen.normal(size=n) * 2)
        fresh = _step_bits(admittance_step(st, meas, est, dataclasses.replace(g)))
        evaluated = ModelEstimate(est.mass_fn, est.coriolis_fn, est.gravity_fn)
        assert _step_bits(admittance_step(st, meas, evaluated, g)) == fresh
        out = admittance_step(st, meas, est, g)
        assert _step_bits(out) == fresh
        assert g._cached_loop[0] is est
        st = out[1]


def test_cached_loop_shared_between_threads():
    """Threads stepping one gains object with different constant estimates
    each get the bits of a fresh gains object: the cached pair is replaced
    whole and checked by estimate identity, so a lost update only costs a
    rebuild."""
    g = AdmittanceGains(mx=np.diag([0.5, 0.4]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="implicit-vector")
    st = initial_state(np.zeros(2))
    meas = Measurement(np.array([0.01, -0.02]), np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    estimates = [ModelEstimate.constant((m, 0.3), (20.0, 5.0)) for m in (0.05, 0.1, 0.2, 0.4)]
    expected = [_step_bits(admittance_step(st, meas, est, dataclasses.replace(g)))
                for est in estimates]
    wrong = []

    def work(k):
        for _ in range(300):
            if _step_bits(admittance_step(st, meas, estimates[k], g)) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(estimates))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_other_estimates_are_evaluated_every_period():
    st = initial_state(np.zeros(1))
    meas = Measurement([0.01], [-2.0], [1.0])
    g = fig3_gains()

    def step_with_mass(m):
        return _step_bits(admittance_step(st, meas, estimate_1dof(m), fig3_gains()))

    # callables that return the same array, changed in place, or a new array
    M = np.array([[0.1]])
    in_place = ModelEstimate(lambda q: M, lambda q, qd: np.zeros((1, 1)), lambda q: np.zeros(1))
    cell = [0.1]
    new_array = ModelEstimate(lambda q: np.array([[cell[0]]]), lambda q, qd: np.zeros((1, 1)),
                              lambda q: np.zeros(1))
    for est in (in_place, new_array):
        M[0, 0] = cell[0] = 0.1
        assert _step_bits(admittance_step(st, meas, est, g)) == step_with_mass(0.1)
        M[0, 0] = cell[0] = 0.3
        assert _step_bits(admittance_step(st, meas, est, g)) == step_with_mass(0.3)
        assert step_with_mass(0.3) != step_with_mass(0.1)
    # the exact two-link estimate follows the measured position
    model = two_link_model()
    exact = ModelEstimate(model.mass_fn, model.coriolis_fn, model.gravity_fn)
    g2 = AdmittanceGains(mx=np.diag([0.5, 0.4]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=30.0,
                         msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                         h=1e-3, us_mode="implicit-vector")
    st2 = initial_state(np.array([0.3, 0.9]))
    q_a, q_b = np.array([0.3, 0.9]), np.array([0.35, 1.4])
    fc, fd = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    admittance_step(st2, Measurement(q_a, fc, fd), exact, g2)
    meas_b = Measurement(q_b, fc, fd)
    at_b = _step_bits(admittance_step(st2, meas_b, exact, g2))
    assert at_b == _step_bits(admittance_step(st2, meas_b, exact, dataclasses.replace(g2)))
    stale = ModelEstimate(lambda q: model.mass_fn(q_a), model.coriolis_fn, model.gravity_fn)
    assert at_b != _step_bits(admittance_step(st2, meas_b, stale, g2))


def test_constant_loop_checks_its_iteration_matrix_once(monkeypatch):
    """The implicit-vector loop of a constant estimate checks that G + G^T is
    positive definite once, when it is built; an estimate evaluated every
    period checks it on every period, inside the sliding band too."""
    g = AdmittanceGains(mx=np.diag([0.5, 0.4]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="implicit-vector")
    est = ModelEstimate.constant((0.2, 0.3), (20.0, 5.0))
    evaluated = ModelEstimate(est.mass_fn, est.coriolis_fn, est.gravity_fn)
    st = initial_state(np.zeros(2))
    at_rest = Measurement(np.zeros(2), np.zeros(2), np.zeros(2))
    moved = Measurement(np.array([0.01, -0.02]), np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    checks = []
    real_cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: checks.append(1) or real_cholesky(a))
    for _ in range(3):
        _, _, diag = admittance_step(st, at_rest, est, g)
        assert np.array_equal(diag.solver.shat, np.zeros(2))
        _, _, diag = admittance_step(st, moved, est, g)
        assert diag.solver.converged and diag.solver.iterations > 1
    assert len(checks) == 1
    admittance_step(st, at_rest, evaluated, g)
    admittance_step(st, moved, evaluated, g)
    assert len(checks) == 3


def test_state_dependent_ill_posed_estimate_raises_at_its_period():
    """An estimate evaluated every period whose iteration matrix loses
    G + G^T > 0 raises SolverConvergenceError at that period, naming the
    condition; the periods before it run."""
    g = AdmittanceGains(mx=np.diag([0.5, 0.4]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=30.0,
                        msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 4.0]),
                        h=1e-3, us_mode="implicit-vector")
    # the Coriolis estimate of joint 0 turns strongly negative for q_0 > 0.5
    est = ModelEstimate(lambda q: np.diag([0.2, 0.3]),
                        lambda q, qd: np.diag([20.0 if q[0] <= 0.5 else -1000.0, 5.0]),
                        lambda q: np.zeros(2))
    st = initial_state(np.zeros(2))
    fc, fd = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    _, st, _ = admittance_step(st, Measurement(np.array([0.4, 0.0]), fc, fd), est, g)
    with pytest.raises(SolverConvergenceError, match=r"G \+ G\^T not positive definite"):
        admittance_step(st, Measurement(np.array([0.6, 0.0]), fc, fd), est, g)


def test_constant_estimate_is_read_only_and_checks_entry_counts():
    est = ModelEstimate.constant((0.2,), (20.0,), dof=2)
    q = np.zeros(2)
    M, C, G = est.mass_fn(q), est.coriolis_fn(q, q), est.gravity_fn(q)
    assert np.array_equal(M, np.diag([0.2, 0.2])) and np.array_equal(C, np.diag([20.0, 20.0]))
    assert np.array_equal(G, np.zeros(2))
    for arr in (M, C, G):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert np.array_equal(ModelEstimate.constant((0.2, 0.3)).coriolis_fn(q, q), np.zeros((2, 2)))
    for args, kwargs, name in ((((0.1, 0.2, 0.3), (1.0,)), {"dof": 2}, "mass_diag"),
                               (((0.1, 0.2), (1.0, 2.0, 3.0)), {}, "coriolis_diag"),
                               (((0.1,), (1.0, 2.0)), {}, "coriolis_diag"),
                               (((),), {}, "mass_diag"),
                               # a mass entry that is not positive
                               (((0.0, 0.2),), {}, "mass_diag"),
                               (((-0.1,),), {}, "mass_diag"),
                               (([[0.1, 0.2]],), {}, "mass_diag")):
        with pytest.raises(ValueError, match=name):
            ModelEstimate.constant(*args, **kwargs)


_STATE_VECTORS = ("qx_prev", "qxd_prev", "ux_prev", "q_prev", "qe_prev")


def _is_float_vector(x, n) -> bool:
    return type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_caller_built_states_are_converted_and_checked(bad):
    """The public constructors turn lists into float vectors and reject a
    non-finite entry, naming the field."""
    meas = Measurement([1], (0.5,), [2.0])
    assert all(_is_float_vector(getattr(meas, f), 1) for f in ("q", "fc", "fd"))
    for name in ("q", "fc", "fd"):
        values = {"q": [0.0], "fc": [0.0], "fd": [0.0], name: [0.0, bad]}
        with pytest.raises(ValueError, match=f"measurement {name} must be finite"):
            Measurement(**values)
    st = AdmittanceState([0], [0.0], (0.0,), [1], [0.0], MstaState([0]))
    assert all(_is_float_vector(getattr(st, f), 1) for f in _STATE_VECTORS)
    assert _is_float_vector(st.msta_state.v, 1)
    for name in _STATE_VECTORS:
        values = {f: [0.0] for f in _STATE_VECTORS}
        values[name] = [bad]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            AdmittanceState(**values, msta_state=MstaState.zero(1))
    with pytest.raises(ValueError, match="integrator state v must be finite"):
        MstaState([0.0, bad])
    # the robust term indexes v entry by entry, so every vector has n entries
    for v, qe_prev in (([0.0, 0.0], [0.0]), ([0.0], [0.0, 0.0])):
        with pytest.raises(ValueError, match="different numbers of entries"):
            AdmittanceState([0.0], [0.0], [0.0], [0.0], qe_prev, MstaState(v))


def _rebuilt(st: AdmittanceState) -> AdmittanceState:
    """The same state through the public constructors, from plain lists."""
    return AdmittanceState(*(getattr(st, f).tolist() for f in _STATE_VECTORS),
                           MstaState(st.msta_state.v.tolist()))


@pytest.mark.parametrize("n,mode,k1", [(1, "auto", 30.0),
                                          (1, "scalar-implicit", 30.0),
                                          (1, "explicit", 30.0),
                                          (2, "auto", 30.0),
                                          (2, "explicit", 30.0),
                                          (2, "implicit-vector", 30.0),
                                          (2, "implicit-vector", "structured"),
                                          (2, "naive", None)])
def test_step_states_are_float_vectors_that_feed_back_bitwise(n, mode, k1):
    """The states a step returns skip the constructors' checks; they have the
    same types and float vectors, so stepping on from them gives the bits of
    stepping on from the same state built by the caller."""
    mx, bx, box = np.diag([0.5, 0.4][:n]), np.diag([1.0, 2.0][:n]), BoxConstraint([3.0, 4.0][:n])
    if mode == "naive":
        g = NaiveGains(mx=mx, bx=bx, kp=300.0, kd=31.0, box=box, h=1e-3)
        step = baseline_naive_step
    else:
        g = AdmittanceGains(mx=mx, bx=bx, lam=10.0, k1=k1,
                            msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0), box=box, h=1e-3,
                            us_mode=mode)
        step = admittance_step
    est = ModelEstimate.constant((0.2, 0.3)[:n], (20.0, 5.0)[:n])
    gen = np.random.default_rng(31)
    st = initial_state(np.zeros(n))
    for _ in range(40):
        meas = Measurement(gen.normal(size=n) * 0.02, gen.normal(size=n) * 5,
                           gen.normal(size=n) * 2)
        nxt = step(st, meas, est, g)[1]
        assert type(nxt) is AdmittanceState and type(nxt.msta_state) is MstaState
        assert all(_is_float_vector(getattr(nxt, f), n) for f in _STATE_VECTORS)
        assert _is_float_vector(nxt.msta_state.v, n)
        assert _step_bits(step(st, meas, est, g)) == _step_bits(step(_rebuilt(st), meas, est, g))
        st = nxt
