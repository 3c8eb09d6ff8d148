import math

import numpy as np
import pytest

from nonsmooth_adm.msta import (
    MstaGains,
    MstaState,
    SolverConvergenceError,
    _choose_mu,
    msta_error_recursion_step,
    msta_explicit_step,
    msta_implicit_decoupled_step,
    msta_implicit_step,
    norm_quad_value,
    solve_shat_vector,
    sta_scalar_implicit_step,
)
from nonsmooth_adm.verify import sta_bisection_reference


def test_gains_validation():
    with pytest.raises(ValueError):
        MstaGains(k2=0.0, k3=1.0)
    with pytest.raises(ValueError):
        MstaGains(k2=1.0, k3=1.0, mu=1.0)
    with pytest.raises(ValueError):
        MstaGains(k2=1.0, k3=1.0, k4=-0.1)
    g = MstaGains(k2=1.0, k3=2.0, k4=1.0)
    assert g.alpha2 == 0.5


def test_explicit_step_zero_input():
    g = MstaGains(k2=2.0, k3=1.0)
    u, st = msta_explicit_step(np.zeros(2), MstaState.zero(2), g, 0.1)
    assert np.array_equal(u, np.zeros(2))
    assert np.array_equal(st.v, np.zeros(2))


def test_explicit_step_values():
    g = MstaGains(k2=2.0, k3=1.0, k4=0.0)
    u, st = msta_explicit_step(np.array([1.0, 0.0]), MstaState.zero(2), g, 0.1)
    assert np.allclose(u, [2.0, 0.0])
    assert np.allclose(st.v, [0.1, 0.0])


def test_explicit_step_sqrt_gain():
    g = MstaGains(k2=11.6, k3=66.0)
    v0 = np.array([0.5])
    u, _ = msta_explicit_step(np.array([0.04]), MstaState(v0), g, 1e-3)
    assert u[0] == pytest.approx(11.6 * 0.2 + 0.5, abs=1e-12)   # k2*|s|^(1/2) + v


def test_scalar_step_zero():
    g = MstaGains(k2=1.0, k3=1.0)
    u, v, p1, p2 = sta_scalar_implicit_step(0.0, g, 1.0, 0.01, 0.7)
    assert (u, v, p1, p2) == (0.7, 0.7, 0.0, 0.0)


def test_scalar_step_sliding_branch():
    g = MstaGains(k2=1.0, k3=1.0)
    u, v, p1, p2 = sta_scalar_implicit_step(5e-5, g, 1.0, 0.01, 0.0)
    assert p2 == pytest.approx(0.5, abs=1e-15)
    assert p1 == pytest.approx(0.005, abs=1e-15)


def test_scalar_step_reaching_branch():
    g = MstaGains(k2=1.0, k3=1.0)
    u, v, p1, p2 = sta_scalar_implicit_step(1.0, g, 1.0, 0.01, 0.0)
    assert p2 == 1.0
    assert p1 == pytest.approx(1.00496249929, abs=1e-9)


def test_scalar_step_validates_beta_and_h():
    g = MstaGains(k2=1.0, k3=1.0)
    with pytest.raises(ValueError):
        sta_scalar_implicit_step(1.0, g, 0.9, 0.01, 0.0)
    with pytest.raises(ValueError):
        sta_scalar_implicit_step(1.0, g, 1.0, 0.0, 0.0)


def test_scalar_step_matches_bisection_oracle(rng):
    worst = 0.0
    for _ in range(400):
        k2 = rng.uniform(0.5, 30.0)
        k3 = rng.uniform(1.0, 300.0)
        h = 10.0 ** rng.uniform(-4, -2)
        s = float(rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5))
        v = float(rng.uniform(-5, 5))
        got = sta_scalar_implicit_step(s, MstaGains(k2=k2, k3=k3), 1.0, h, v)
        ref = sta_bisection_reference(s, k2, k3, h, v)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)))
    assert worst <= 1e-10


def test_scalar_selection_properties(rng):
    g = MstaGains(k2=3.0, k3=50.0)
    for _ in range(300):
        s = float(rng.normal() * 10.0 ** rng.uniform(-7, 1))
        beta = float(rng.uniform(1.0, 3.0))
        h = 10.0 ** rng.uniform(-4, -2)
        _, _, p1, p2 = sta_scalar_implicit_step(s, g, beta, h, 0.0)
        assert abs(p2) <= 1.0
        assert np.sign(p1) * np.sign(s) >= 0.0


def test_scalar_selection_continuous_in_sliding_band():
    # inside the band the selections vary linearly with s: no sign alternation
    g = MstaGains(k2=11.6, k3=66.0)
    h = 1e-3
    band = h * h * g.k3
    ss = np.linspace(-band, band, 41)
    p2s = [sta_scalar_implicit_step(float(s), g, 1.0, h, 0.0)[3] for s in ss]
    assert np.allclose(p2s, ss / band, atol=1e-15)


def test_solver_zero_input():
    g = MstaGains(k2=2.0, k3=10.0, gamma1=5.0)
    diag = solve_shat_vector(np.zeros(2), np.eye(2), np.eye(2), g, 1e-3)
    assert diag.converged and diag.iterations == 1
    assert np.array_equal(diag.shat, np.zeros(2))
    assert np.array_equal(diag.m2, np.zeros(2))


def test_solver_sliding_band_exact_zero(rng):
    g = MstaGains(k2=5.0, k3=40.0)
    h = 1e-3
    for _ in range(100):
        s = rng.normal(size=3)
        s *= rng.uniform(0.0, 0.999) * h * h * g.k3 / np.linalg.norm(s)
        diag = solve_shat_vector(s, np.eye(3), np.eye(3), g, h)
        assert np.array_equal(diag.shat, np.zeros(3))
        assert np.linalg.norm(diag.m2) <= 1.0 + 1e-12


def test_solver_selection_in_subdifferential(rng):
    for _ in range(200):
        n = int(rng.choice([1, 2, 3]))
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200),
                      k4=rng.uniform(0, 5), gamma1=rng.uniform(0, 50))
        h = 10.0 ** rng.uniform(-3.5, -2)
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 0.5)
        diag = msta_implicit_decoupled_step(s, g, h, MstaState.zero(n))[2]
        ball_part = diag.m2 - g.alpha2 * diag.shat
        assert np.linalg.norm(ball_part) <= 1.0 + 1e-9
        nshat = np.linalg.norm(diag.shat)
        if nshat > 0:
            assert np.linalg.norm(ball_part - diag.shat / nshat) <= 1e-9


def test_vector_n1_matches_scalar_closed_form(rng):
    worst = 0.0
    for _ in range(400):
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200), gamma1=0.0)
        h = 10.0 ** rng.uniform(-3.5, -2)
        m = rng.uniform(0.1, 5.0)
        s = np.array([rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5)])
        v = np.array([rng.uniform(-3, 3)])
        u_vec, st, _ = msta_implicit_step(s, np.array([[m]]), np.array([[0.0]]),
                                          g, h, MstaState(v))
        u_sc, v_sc, _, _ = sta_scalar_implicit_step(float(s[0]), g, 1.0, h, float(v[0]))
        worst = max(worst, abs(float(u_vec[0]) - u_sc), abs(float(st.v[0]) - v_sc))
    assert worst <= 1e-8


def test_decoupled_matches_vector_solver(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([1, 2, 3]))
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200),
                      k4=rng.uniform(0, 5), gamma1=rng.uniform(0, 50))
        h = 10.0 ** rng.uniform(-3.5, -2)
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 0.5)
        v = rng.normal(size=n)
        u_a, _, d_a = msta_implicit_step(s, np.eye(n), np.zeros((n, n)), g, h, MstaState(v))
        u_b, _, d_b = msta_implicit_decoupled_step(s, g, h, MstaState(v))
        worst = max(worst, float(np.linalg.norm(u_a - u_b)),
                    float(np.linalg.norm(d_a.shat - d_b.shat)))
    assert worst <= 1e-8


def test_solver_general_matrix_residual(rng):
    # non-scalar iteration matrix exercises the damped fixed-point path
    for _ in range(50):
        n = 3
        g = MstaGains(k2=5.0, k3=60.0, k4=rng.uniform(0, 3), mu=0.5)
        h = 1e-3
        M = np.diag(rng.uniform(0.5, 2.0, size=n))
        A = M + h * rng.normal(scale=2.0, size=(n, n)) + 0.2 * h * np.eye(n)
        s = rng.normal(size=n)
        diag = solve_shat_vector(s, A, M, g, h)
        assert diag.converged
        # verify the defining inclusion directly
        G = np.linalg.solve(M, A)
        gam = g.k2 * math.sqrt(np.linalg.norm(diag.shat)) + h * g.k3
        residual = G @ diag.shat + h * gam * diag.m2 - s
        assert np.linalg.norm(residual) <= 1e-9 * (1 + np.linalg.norm(s))


def test_solver_reports_nonconvergence():
    g = MstaGains(k2=5.0, k3=60.0, fp_max_iter=2)
    h = 1e-3
    A = np.array([[1.0, 0.9], [-0.9, 1.0]])
    with pytest.raises(SolverConvergenceError):
        solve_shat_vector(np.array([5.0, -3.0]), A, np.eye(2), g, h)
    # an indefinite iteration matrix admits no relaxation parameter; only a
    # solve outside the sliding band needs one
    indefinite = np.diag([-1.0, 1.0])
    inside = solve_shat_vector(np.array([1e-5, 0.0]), indefinite, np.eye(2), g, h)
    assert inside.converged and np.array_equal(inside.shat, np.zeros(2))
    with pytest.raises(SolverConvergenceError, match="relaxation"):
        solve_shat_vector(np.array([5.0, -3.0]), indefinite, np.eye(2), g, h)


def test_relaxation_parameter_is_chosen_only_outside_the_sliding_band(monkeypatch):
    """A solve with ||s|| <= h^2*k3 returns shat = 0 before the iteration
    matrix is classified or its relaxation parameter chosen."""
    g = MstaGains(k2=5.0, k3=60.0)
    h = 1e-3
    A = np.array([[1.0, 0.2], [0.1, 1.5]])
    M = np.array([[1.0, 0.1], [0.1, 2.0]])
    inside = np.array([3e-5, -4e-5])    # norm 5e-5 <= h^2*k3 = 6e-5
    eigvals = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvals.append(1) or real_eigvalsh(a))
    assert np.array_equal(solve_shat_vector(inside, A, M, g, h).shat, np.zeros(2))
    _, _, diag = msta_implicit_step(inside, M, np.diag([2.0, 3.0]), g, h, MstaState.zero(2))
    assert np.array_equal(diag.shat, np.zeros(2))
    assert eigvals == []
    solve_shat_vector(np.array([5.0, -3.0]), A, M, g, h)
    assert len(eigvals) > 0


def test_implicit_step_preserves_state_at_zero():
    g = MstaGains(k2=2.0, k3=10.0, gamma1=3.0)
    v = np.array([0.3, -0.2])
    u, st, diag = msta_implicit_step(np.zeros(2), np.eye(2), np.zeros((2, 2)), g, 1e-3,
                                     MstaState(v))
    assert np.array_equal(st.v, v)
    assert np.array_equal(u, v)


def test_error_recursion_lyapunov_decrease(rng):
    h = 1e-3
    for _ in range(30):
        n = int(rng.choice([1, 2]))
        g = MstaGains(k2=rng.uniform(1, 15), k3=rng.uniform(5, 100),
                      k4=rng.uniform(0, 2), gamma1=rng.uniform(0, 20))
        s1 = rng.normal(scale=2.0, size=n)
        s2 = rng.normal(scale=2.0, size=n)
        v_prev = None
        for _ in range(500):
            s1, s2, shat, _, _ = msta_error_recursion_step(s1, s2, g, h)
            value = g.k3 * norm_quad_value(shat, g.alpha2) + 0.5 * float(s2 @ s2)
            if v_prev is not None:
                assert value <= v_prev + 1e-12
            v_prev = value


def test_error_recursion_disturbance_band():
    g = MstaGains(k2=11.6, k3=66.0)
    h, delta3 = 1e-3, 10.0
    s1, s2 = np.array([0.5]), np.array([0.0])
    worst = 0.0
    for k in range(5000):
        delta = delta3 * math.sin(2 * math.pi * k * h)
        s1, s2, _, _, _ = msta_error_recursion_step(s1, s2, g, h, delta)
        if k * h > 1.0:
            worst = max(worst, float(np.abs(s1).max()))
    assert worst <= 2 * h * h * delta3


def test_error_recursion_consistency():
    # the returned selections reproduce the nominal state identity
    g = MstaGains(k2=4.0, k3=30.0, k4=1.0, gamma1=8.0)
    h = 1e-3
    s1, s2 = np.array([0.7, -0.2]), np.array([0.1, 0.3])
    s1n, s2n, shat, m1, m2 = msta_error_recursion_step(s1, s2, g, h)
    assert np.allclose(shat, s1 - h * g.k2 * m1 - h * h * g.k3 * m2, atol=1e-14)
    assert np.allclose(s1n, shat + h * s2n, atol=1e-14)


def test_choose_mu_scalar_matches_eigenvalue_route():
    """The closed-form 1 x 1 case picks the same mu as the eigenvalue test."""
    def by_eigenvalues(G, mu):
        for _ in range(80):
            m = G + G.T - mu * (G.T @ G)
            if float(np.linalg.eigvalsh(0.5 * (m + m.T)).min()) > 0.0:
                return mu
            mu *= 0.5
        return None

    gen = np.random.default_rng(9)
    values = list(gen.uniform(-2.0, 2.0, 100)) + list(gen.uniform(0.0, 1e4, 100)) + [0.0, 4.0]
    for gval in values:
        for mu0 in (0.5, 0.99):
            expected = by_eigenvalues(np.array([[gval]]), mu0)
            if expected is None:
                with pytest.raises(SolverConvergenceError):
                    _choose_mu(float(gval), mu0)
            else:
                assert _choose_mu(float(gval), mu0) == expected
                assert _choose_mu(np.array([[gval]]), mu0) == expected
