import math

import numpy as np
import pytest

from nonsmooth_adm.msta import (
    MstaGains,
    MstaState,
    SolverConvergenceError,
    _Iteration,
    _solve_inclusion,
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


def _general_iteration_matrix(rng, n):
    """A non-symmetric G = S + K with S symmetric positive definite and K
    skew: G + G^T = 2S is positive definite, and G is not symmetric."""
    R = rng.normal(size=(n, n))
    S = R @ R.T + rng.uniform(0.05, 2.0) * np.eye(n)
    K = rng.normal(scale=rng.uniform(0.0, 3.0), size=(n, n))
    return S + (K - K.T)


def test_solver_general_matrix_residual(rng):
    """A non-scalar iteration matrix takes the scalar root in ||shat||: the
    solution meets the defining inclusion and its selection lies in the
    subdifferential, for near-identity G = M^-1 A and for non-symmetric G
    far from I (G + G^T positive definite in both), from just outside the
    dead band to far outside it."""
    h = 1e-3
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200), k4=rng.uniform(0, 3))
        if rng.uniform() < 0.5:
            M = np.diag(rng.uniform(0.5, 2.0, size=n))
            A = M + h * rng.normal(scale=2.0, size=(n, n)) + 0.2 * h * np.eye(n)
        else:
            M = np.eye(n)
            A = _general_iteration_matrix(rng, n)
        G = np.linalg.solve(M, A)
        assert not np.allclose(G, G.T)
        s = rng.normal(size=n)
        s *= h * h * g.k3 * (1.0 + 10.0 ** rng.uniform(-9, 5)) / np.linalg.norm(s)
        diag = solve_shat_vector(s, A, M, g, h)
        assert diag.converged and 1 <= diag.iterations <= 8
        nshat = np.linalg.norm(diag.shat)
        assert nshat > 0.0
        gam = g.k2 * math.sqrt(nshat) + h * g.k3
        residual = G @ diag.shat + h * gam * diag.m2 - s
        assert np.linalg.norm(residual) <= 1e-12 * (1 + np.linalg.norm(s))
        # m2 - alpha2*shat is the unit vector along shat, the subdifferential of ||.||
        member = np.linalg.norm(diag.m2 - g.alpha2 * diag.shat - diag.shat / nshat)
        assert member <= 1e-11
        assert diag.residual == pytest.approx(member, rel=1e-6, abs=1e-15)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _step_inputs(rng, n):
    """(s, v) pairs: s = 0, then ||s|| from inside the dead band h^2 k3 to
    10^3 times it in random directions, some with a +-0.0 entry."""
    band = 1e-6 * 66.0
    out = [(np.zeros(n), rng.normal(size=n)), (np.full(n, -0.0), np.zeros(n))]
    for ratio in [0.3, 0.999, 1.001] + (10.0 ** rng.uniform(-1.0, 3.0, 60)).tolist():
        s = rng.normal(size=n)
        if n > 1 and rng.uniform() < 0.3:
            s[rng.integers(n)] = rng.choice([0.0, -0.0])
        out.append((s * (ratio * band / np.linalg.norm(s)), rng.normal(scale=2.0, size=n)))
    return out


_STEP_CASES = [("explicit", n, None) for n in (1, 2, 3)] + [
    ("implicit-vector", n, kind) for n, kind in
    ((1, "scalar"), (2, "scalar"), (2, "diagonal"), (2, "general"), (3, "scalar"),
     (3, "diagonal"), (3, "general"))]


@pytest.mark.parametrize("k4", [0.0, 5.0])
@pytest.mark.parametrize("mode,n,kind", _STEP_CASES)
def test_step_meets_its_definition(mode, n, kind, k4):
    """The robust term's step against its definition, at h = 1 ms and the
    preset gains (dead band h^2 k3 = 6.6e-5).  The implicit step, for G =
    beta*I (radial closed form), diag(1.25, 1.2[, 1.3]) and a non-symmetric
    G with G + G^T positive definite (scalar root): shat and m2 solve
    G shat + h*gamma(shat)*m2 = s with m2 - alpha2*shat in the subdifferential
    of ||.|| at shat, and v+ = v + h*k3*m2, u = gamma(shat)*m2 + v+ bit for
    bit, evaluated here with numpy.  The explicit step: u = v + k2*s/||s||^(1/2)
    and v+ = v + h*k3*s/||s|| + k4*s bit for bit, and u = v+ = v at s = 0."""
    rng = np.random.default_rng([n, int(k4), _STEP_CASES.index((mode, n, kind))])
    g = MstaGains(k2=11.6, k3=66.0, k4=k4)
    h = 1e-3
    hk3 = h * g.k3
    if kind == "scalar":
        G = rng.uniform(1.0, 3.0) * np.eye(n)
    elif kind == "diagonal":
        G = np.diag([1.25, 1.2, 1.3][:n])
    elif kind == "general":
        G = _general_iteration_matrix(rng, n)
    if kind is not None:
        iteration = _Iteration(G)
        assert (iteration.scale is None) == (kind != "scalar")
    for s, v in _step_inputs(rng, n):
        if mode == "explicit":
            u, st = msta_explicit_step(s, MstaState(v), g, h)
            ns = np.linalg.norm(s)
            u_def, v_def = v, v
            if ns > 0.0:
                u_def = v + g.k2 * s / math.sqrt(ns)
                v_def = v + hk3 * s / ns + g.k4 * s
            assert _same_bits(u, u_def) and _same_bits(st.v, v_def)
            continue
        u, st, d = _solve_inclusion(s, iteration, v, g, h)
        nshat = np.linalg.norm(d.shat)
        gam = g.k2 * math.sqrt(nshat) + hk3
        inclusion = np.linalg.norm(G @ d.shat + h * gam * d.m2 - s) / (1.0 + np.linalg.norm(s))
        ball = d.m2 - g.alpha2 * d.shat
        gap = np.linalg.norm(ball - d.shat / nshat) if nshat > 0.0 else \
            max(0.0, np.linalg.norm(ball) - 1.0)
        assert inclusion <= 1e-9 and gap <= 1e-9 and d.converged
        v_next = v + hk3 * d.m2
        assert _same_bits(st.v, v_next) and _same_bits(u, gam * d.m2 + v_next)


def test_steps_reject_a_state_of_another_length_and_an_underflowing_band():
    """The steps index v entry by entry, so s and v need as many entries; and
    the implicit step divides by the dead band h^2 k3, which must not
    underflow to 0 (it does at h = 1e-200)."""
    g = MstaGains(k2=11.6, k3=66.0)
    s = np.array([0.02, -0.01])
    steps = (lambda s, st, h: msta_explicit_step(s, st, g, h),
             lambda s, st, h: msta_implicit_step(s, np.eye(2), np.zeros((2, 2)), g, h, st),
             lambda s, st, h: msta_implicit_decoupled_step(s, g, h, st))
    for step in steps:
        for v in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError, match="s has 2 entries but the integrator state v"):
                step(s, MstaState(v), 1e-3)
        for s_in in (s, np.zeros(2)):
            with pytest.raises(ValueError, match="h\\^2\\*k3 underflows to 0"):
                step(s_in, MstaState.zero(2), 1e-200)
    with pytest.raises(ValueError, match="underflows to 0"):
        solve_shat_vector(np.zeros(2), np.eye(2), np.eye(2), g, 1e-200)


def test_solver_reports_nonconvergence_and_an_ill_posed_step():
    g = MstaGains(k2=5.0, k3=60.0, fp_max_iter=1)
    h = 1e-3
    A = np.array([[1.0, 0.9], [-0.9, 1.0]])
    with pytest.raises(SolverConvergenceError, match="in 1 iterations"):
        solve_shat_vector(np.array([5.0, -3.0]), A, np.eye(2), g, h)
    # G + G^T must be positive definite; an iteration matrix that violates
    # it is rejected whatever s is, inside the sliding band or outside it
    for bad in (np.diag([-1.0, 1.0]), np.array([[1.0, 3.0], [-0.5, 1.0]]), np.zeros((2, 2))):
        for s in (np.array([1e-5, 0.0]), np.array([5.0, -3.0])):
            with pytest.raises(SolverConvergenceError, match=r"G \+ G\^T not positive definite"):
                solve_shat_vector(s, bad, np.eye(2), g, h)


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
