import functools
import math
import re

import numpy as np
import pytest

from nonsmooth_adm.msta import (
    MstaGains,
    SolverConvergenceError,
    _Iteration,
    _iteration_matrix,
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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None, np.float64(4.0)])
def test_gains_refuse_a_non_integer_iteration_cap(bad):
    """fp_max_iter bounds a ``range``, so a float or a bool is refused where
    the gains are built, not on the first solve by the root; a numpy integer
    is an integer."""
    with pytest.raises(ValueError, match="^fp_max_iter must be an integer"):
        MstaGains(k2=1.0, k3=1.0, fp_max_iter=bad)
    assert MstaGains(k2=1.0, k3=1.0, fp_max_iter=np.int64(7)).fp_max_iter == 7


def test_explicit_step_zero_input():
    g = MstaGains(k2=2.0, k3=1.0)
    u, v = msta_explicit_step(np.zeros(2), np.zeros(2), g, 0.1)
    assert np.array_equal(u, np.zeros(2))
    assert np.array_equal(v, np.zeros(2))


def test_explicit_step_values():
    g = MstaGains(k2=2.0, k3=1.0, k4=0.0)
    u, v = msta_explicit_step(np.array([1.0, 0.0]), np.zeros(2), g, 0.1)
    assert np.allclose(u, [2.0, 0.0])
    assert np.allclose(v, [0.1, 0.0])


def test_explicit_step_sqrt_gain():
    g = MstaGains(k2=11.6, k3=66.0)
    v0 = np.array([0.5])
    u, _ = msta_explicit_step(np.array([0.04]), v0, g, 1e-3)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_step_refuses_non_finite_input(bad):
    """A non-finite s or v is refused by name, not carried into a NaN
    (u_s, v_next, phi1, phi2) or an infinite v_next; a NaN h or beta fails
    its guard instead of slipping past a negated comparison."""
    g = MstaGains(k2=11.6, k3=66.0)
    with pytest.raises(ValueError, match="^s must be finite"):
        sta_scalar_implicit_step(bad, g, 1.0, 1e-3, 0.0)
    with pytest.raises(ValueError, match="^the integrator state v must be finite"):
        sta_scalar_implicit_step(0.01, g, 1.0, 1e-3, bad)
    with pytest.raises(ValueError, match="^h must be positive and finite$"):
        sta_scalar_implicit_step(0.01, g, 1.0, abs(bad), 0.0)
    with pytest.raises(ValueError, match="^beta must be finite and >= 1$"):
        sta_scalar_implicit_step(0.01, g, abs(bad), 1e-3, 0.0)


_ONE = np.array([0.05])


@pytest.mark.parametrize("step", [
    lambda g, h: msta_explicit_step(_ONE, np.zeros(1), g, h),
    lambda g, h: solve_shat_vector(_ONE, np.eye(1), np.eye(1), g, h),
    lambda g, h: msta_implicit_step(_ONE, np.eye(1), np.zeros((1, 1)), g, h, np.zeros(1)),
    lambda g, h: msta_implicit_decoupled_step(_ONE, g, h, np.zeros(1)),
    lambda g, h: sta_scalar_implicit_step(0.05, g, 1.0, h, 0.0),
], ids=["explicit", "shat_vector", "implicit", "implicit_decoupled", "scalar_implicit"])
@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-3])
def test_every_robust_term_step_refuses_an_h_not_positive_and_finite(step, h):
    """An infinite period is refused by name, not carried into an infinite
    v_next, a zero shat, a NaN solve or NaN selections."""
    with pytest.raises(ValueError, match="^h must be positive and finite$"):
        step(MstaGains(k2=11.6, k3=66.0), h)


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
        s = rng.normal(size=2)
        s *= rng.uniform(0.0, 0.999) * h * h * g.k3 / np.linalg.norm(s)
        diag = solve_shat_vector(s, np.eye(2), np.eye(2), g, h)
        assert np.array_equal(diag.shat, np.zeros(2))
        assert np.linalg.norm(diag.m2) <= 1.0 + 1e-12


def test_solver_selection_in_subdifferential(rng):
    for _ in range(200):
        n = int(rng.choice([1, 2]))
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200),
                      k4=rng.uniform(0, 5), gamma1=rng.uniform(0, 50))
        h = 10.0 ** rng.uniform(-3.5, -2)
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 0.5)
        diag = msta_implicit_decoupled_step(s, g, h, np.zeros(n))[2]
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
        u_vec, v_vec, _ = msta_implicit_step(s, np.array([[m]]), np.array([[0.0]]), g, h, v)
        u_sc, v_sc, _, _ = sta_scalar_implicit_step(float(s[0]), g, 1.0, h, float(v[0]))
        worst = max(worst, abs(float(u_vec[0]) - u_sc), abs(float(v_vec[0]) - v_sc))
    assert worst <= 1e-8


def test_decoupled_matches_vector_solver(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([1, 2]))
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200),
                      k4=rng.uniform(0, 5), gamma1=rng.uniform(0, 50))
        h = 10.0 ** rng.uniform(-3.5, -2)
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 0.5)
        v = rng.normal(size=n)
        u_a, _, d_a = msta_implicit_step(s, np.eye(n), np.zeros((n, n)), g, h, v)
        u_b, _, d_b = msta_implicit_decoupled_step(s, g, h, v)
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
        n = 2
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


def test_solver_root_tail_draw():
    """A draw from the tail of the root's iteration counts (draw 6595 of
    ``default_rng(1)`` through the generator above): an ill-conditioned G
    (eigenvalues 2.54 and 0.06), with ||s|| about 1300 bands.  Newton
    on ||x(w)|| - w^2 from tr(G)/n took 11 iterations; the root converges
    within the bound of the general-matrix test."""
    g = MstaGains(k2=1.3467017997902047, k3=117.20901191848675, k4=0.2073214018272772)
    A = np.array([[2.5393995007384014, 0.06900594836618078],
                  [0.14762049252887632, 0.06414227200308513]])
    s = np.array([0.0014430524756604425, 0.15382666868432346])
    diag = solve_shat_vector(s, A, np.eye(2), g, 1e-3)
    assert diag.converged and 1 <= diag.iterations <= 8


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _row_norm(x: np.ndarray) -> float:
    """||x|| as the square root of the float row 0.0 + x0*x0 [+ x1*x1],
    summed left to right: the norm the steps take, on any build."""
    total = 0.0
    for y in x.tolist():
        total = total + y * y
    return math.sqrt(total)


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
    beta*I (radial closed form at k4 = 0, scalar root at k4 = 5),
    diag(1.25, 1.2) and a non-symmetric G with G + G^T positive definite
    (scalar root): shat and m2 solve G shat + h*gamma(shat)*m2 = s with
    m2 - alpha2*shat in the subdifferential of ||.|| at shat, evaluated here
    with numpy, and v+ = v + h*k3*m2, u = gamma(shat)*m2 + v+ bit for bit,
    with ||shat|| as the float row (``_row_norm``); the solve is its float
    body, called on lists.  The explicit step:
    u = v + k2*s/||s||^(1/2) and v+ = v + h*k3*s/||s|| + k4*s bit for bit, and
    u = v+ = v at s = 0.  The robust term takes one or two entries, as the
    torque box does: for three, its definition is a ValueError that gives
    the count, from every public step."""
    rng = np.random.default_rng([n, int(k4), _STEP_CASES.index((mode, n, kind))])
    g = MstaGains(k2=11.6, k3=66.0, k4=k4)
    h = 1e-3
    hk3 = h * g.k3
    if n == 3:
        s, v = _step_inputs(rng, n)[-1]
        with pytest.raises(ValueError, match="^the robust term takes one or two entries; s has 3$"):
            if mode == "explicit":
                msta_explicit_step(s, v, g, h)
            elif kind == "scalar":
                msta_implicit_decoupled_step(s, g, h, v)
            elif kind == "diagonal":
                msta_implicit_step(s, np.eye(n), np.diag([0.25, 0.2, 0.3]), g, h, v)
            else:
                solve_shat_vector(s, _general_iteration_matrix(rng, n), np.eye(n), g, h)
        return
    if kind == "scalar":
        G = rng.uniform(1.0, 3.0) * np.eye(n)
    elif kind == "diagonal":
        G = np.diag([1.25, 1.2][:n])
    elif kind == "general":
        G = _general_iteration_matrix(rng, n)
    if kind is not None:
        iteration = _Iteration(tuple(G.ravel().tolist()))
        assert (iteration.scale is None) == (kind != "scalar")
    for s, v in _step_inputs(rng, n):
        if mode == "explicit":
            u, v_next = msta_explicit_step(s, v, g, h)
            ns = _row_norm(s)
            u_def, v_def = v, v
            if ns > 0.0:
                u_def = v + g.k2 * s / math.sqrt(ns)
                v_def = v + hk3 * s / ns + g.k4 * s
            assert _same_bits(u, u_def) and _same_bits(v_next, v_def)
            continue
        u, v_plus, d = _solve_inclusion(s.tolist(), iteration, v.tolist(), g, h)
        u, v_plus = np.array(u), np.array(v_plus)
        nshat = _row_norm(d.shat)
        gam = g.k2 * math.sqrt(nshat) + hk3
        inclusion = np.linalg.norm(G @ d.shat + h * gam * d.m2 - s) / (1.0 + np.linalg.norm(s))
        ball = d.m2 - g.alpha2 * d.shat
        gap = np.linalg.norm(ball - d.shat / nshat) if nshat > 0.0 else \
            max(0.0, np.linalg.norm(ball) - 1.0)
        assert inclusion <= 1e-9 and gap <= 1e-9 and d.converged
        v_next = v + hk3 * d.m2
        assert _same_bits(v_plus, v_next) and _same_bits(u, gam * d.m2 + v_next)


def test_steps_reject_a_state_of_another_length_and_an_underflowing_band():
    """The steps index v entry by entry, so s and v need as many entries; and
    the implicit step divides by the dead band h^2 k3, which must not
    underflow to 0 (it does at h = 1e-200)."""
    g = MstaGains(k2=11.6, k3=66.0)
    s = np.array([0.02, -0.01])
    steps = (lambda s, v, h: msta_explicit_step(s, v, g, h),
             lambda s, v, h: msta_implicit_step(s, np.eye(2), np.zeros((2, 2)), g, h, v),
             lambda s, v, h: msta_implicit_decoupled_step(s, g, h, v))
    for step in steps:
        for v in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError, match="s has 2 entries but the integrator state v"):
                step(s, v, 1e-3)
        for s_in in (s, np.zeros(2)):
            with pytest.raises(ValueError, match="h\\^2\\*k3 underflows to 0"):
                step(s_in, np.zeros(2), 1e-200)
    with pytest.raises(ValueError, match="underflows to 0"):
        solve_shat_vector(np.zeros(2), np.eye(2), np.eye(2), g, 1e-200)
    for s_scalar in (0.02, 0.0):
        with pytest.raises(ValueError, match="h\\^2\\*k3 underflows to 0"):
            sta_scalar_implicit_step(s_scalar, g, 1.0, 1e-200, 0.0)


@pytest.mark.parametrize("v,message", [
    (np.array([0.0, math.nan]), "must be finite$"),
    (np.array([math.inf, 0.0]), "must be finite$"),
    (np.array([0.0, -math.inf]), "must be finite$"),
    (np.zeros((2, 1)), r"must be a 1-D vector, got shape \(2, 1\)$"),
    (np.zeros((1, 2)), r"must be a 1-D vector, got shape \(1, 2\)$"),
])
def test_steps_reject_a_non_finite_or_two_dimensional_v(v, message):
    """The integrator state v is an input of every step, checked as s is:
    a non-finite or 2-D v is refused by name, not stepped into a non-finite
    or broadcast v_next."""
    g = MstaGains(k2=11.6, k3=66.0)
    s = np.array([0.02, -0.01])
    steps = (lambda: msta_explicit_step(s, v, g, 1e-3),
             lambda: msta_implicit_step(s, np.eye(2), np.zeros((2, 2)), g, 1e-3, v),
             lambda: msta_implicit_decoupled_step(s, g, 1e-3, v))
    for step in steps:
        with pytest.raises(ValueError, match="^integrator state v " + message):
            step()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_steps_reject_a_non_finite_s(bad):
    """A non-finite s is refused by name, not read as s = 0 (a NaN fails
    |s| > 0) or carried into a NaN nominal state."""
    g = MstaGains(k2=11.6, k3=66.0)
    A = np.array([[1.0, 0.5], [-0.2, 1.0]])     # a non-symmetric G
    steps = (lambda s: msta_explicit_step(s, np.full(s.size, 0.3), g, 1e-3),
             lambda s: msta_implicit_step(s, np.eye(s.size), np.zeros((s.size, s.size)), g,
                                          1e-3, np.zeros(s.size)),
             lambda s: msta_implicit_decoupled_step(s, g, 1e-3, np.zeros(s.size)),
             lambda s: solve_shat_vector(s, A[:s.size, :s.size], np.eye(s.size), g, 1e-3))
    for step in steps:
        for s in (np.array([bad]), np.array([bad, 1.0]), np.array([0.0, bad])):
            with pytest.raises(ValueError, match="^s must be finite"):
                step(s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["Mk", "Ck", "Ak"])
def test_steps_reject_a_non_finite_matrix(name, bad):
    """A non-finite Mk or Ck of ``msta_implicit_step``, or Ak or Mk of
    ``solve_shat_vector``, is refused by name before any arithmetic: not
    read as an ill-posed iteration matrix, and without numpy's warnings."""
    g = MstaGains(k2=11.6, k3=66.0)
    s = np.array([0.3, -0.1])
    mats = {"Mk": np.eye(2), "Ck": np.zeros((2, 2)), "Ak": np.array([[1.0, 0.5], [-0.2, 1.0]])}
    mats[name] = mats[name].copy()
    mats[name][1, 0] = bad
    steps = []
    if name != "Ck":
        steps.append(lambda: solve_shat_vector(s, mats["Ak"], mats["Mk"], g, 1e-3))
    if name != "Ak":
        steps.append(lambda: msta_implicit_step(s, mats["Mk"], mats["Ck"], g, 1e-3, np.zeros(2)))
    for step in steps:
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            step()


def test_steps_refuse_an_s_of_another_entry_count_and_a_matrix_of_another_shape():
    """An s of no entry or of three or more is refused with its count by
    every public step of the robust term, and a matrix that is not n x n for
    the n entries of s by its name."""
    g = MstaGains(k2=11.6, k3=66.0)
    for n in (0, 3, 4):
        s = np.full(n, 0.1)
        steps = (lambda: msta_explicit_step(s, np.zeros(n), g, 1e-3),
                 lambda: msta_implicit_step(s, np.eye(n), np.zeros((n, n)), g, 1e-3, np.zeros(n)),
                 lambda: msta_implicit_decoupled_step(s, g, 1e-3, np.zeros(n)),
                 lambda: solve_shat_vector(s, np.eye(n), np.eye(n), g, 1e-3))
        for step in steps:
            with pytest.raises(ValueError, match=f"^the robust term takes one or two entries; "
                                                 f"s has {n}$"):
                step()
    s, v = np.array([0.3, -0.1]), np.zeros(2)
    for name, step in (
            ("Mk", lambda: msta_implicit_step(s, np.eye(1), np.zeros((2, 2)), g, 1e-3, v)),
            ("Ck", lambda: msta_implicit_step(s, np.eye(2), np.zeros((3, 3)), g, 1e-3, v)),
            ("Ak", lambda: solve_shat_vector(s, np.eye(3), np.eye(2), g, 1e-3)),
            ("Mk", lambda: solve_shat_vector(s, np.eye(2), np.ones(2), g, 1e-3))):
        with pytest.raises(ValueError, match=rf"^{name} has shape \(\d, \d\); s has 2 entries"):
            step()


def _closed_form_accepts(G: np.ndarray) -> bool:
    try:
        _Iteration(tuple(G.ravel().tolist()))
    except SolverConvergenceError:
        return False
    return True


def _cholesky_accepts(G: np.ndarray) -> bool:
    with np.errstate(all="ignore"):
        try:
            return bool(np.isfinite(np.linalg.cholesky(G + G.T)).all())
        except np.linalg.LinAlgError:
            return False


def test_well_posedness_check_agrees_with_cholesky(rng):
    """``_Iteration`` decides that G + G^T is positive definite in closed
    form (S = G + G^T finite, S00 > 0 and det S > 0), as numpy's Cholesky of
    S does: on random 1 x 1 and 2 x 2 G over many scales, on multiples of I,
    on near-singular S whose det is 1e-8 to 1e-4 of S00*S11 on either side
    of 0 (with a skew part), and on G with a non-finite entry.  On an exactly
    singular S the closed form says no, where the Cholesky may accept by
    rounding: S = [[2, 2], [2, 2]] gets a last pivot of 2.1e-8."""
    cases = [np.array([[x]]) for x in (2.0, 1e-300, 1e308, 0.0, -0.0, -1.0, math.inf, math.nan)]
    cases += [x * np.eye(2) for x in (2.0, 1e-300, 1e307, 1e308, 0.0, -1.0)]
    for _ in range(3000):
        cases.append(rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-6, 7))
        a, c = rng.uniform(0.1, 10.0, 2) * 10.0 ** rng.integers(-3, 4, 2)
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, -4)
        b = rng.choice([-1.0, 1.0]) * math.sqrt(a * c * (1.0 - gap))
        skew = rng.normal() * math.sqrt(a * c)
        cases.append(np.array([[a, b + skew], [b - skew, c]]) / 2.0)
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            G = np.eye(2)
            G.flat[i] = bad
            cases.append(G)
    accepted = 0
    for G in cases:
        assert _closed_form_accepts(G) == _cholesky_accepts(G), G
        accepted += _closed_form_accepts(G)
    assert 1000 < accepted < len(cases) - 1000
    singular = np.ones((2, 2))
    assert _cholesky_accepts(singular) and not _closed_form_accepts(singular)


def test_iteration_matrix_matches_numpy_solve():
    """``_iteration_matrix`` builds G = M^-1 A a column at a time with
    ``_solve2``: within the condition-scaled bound of the controller's
    2 x 2 solves of np.linalg.solve (4 eps cond(M) max|column|), over many
    scales, with and without row swaps; a diagonal M divides, bit for bit,
    as one joint does; a singular M raises LinAlgError("Singular matrix")."""
    gen = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for k in range(4000):
        M = gen.normal(size=(2, 2)) * 10.0 ** gen.integers(-3, 4)
        if k % 4 == 1:
            M[0, 1] = 0.0
        elif k % 4 == 2:
            M[1, 0] = 0.0
        A = gen.normal(size=(2, 2)) * 10.0 ** gen.integers(-3, 4, (2, 2))
        G = np.reshape(_iteration_matrix(M, A), (2, 2))
        ref = np.linalg.solve(M, A)
        bound = 4.0 * eps * np.linalg.cond(M) * np.abs(ref).max(axis=0)
        assert (np.abs(G - ref) <= bound).all()
        if k % 4 == 3:
            d = M.diagonal().tolist()
            assert _iteration_matrix(np.diag(d), A) == \
                tuple(x / d[i // 2] for i, x in enumerate(A.ravel().tolist()))
            assert _iteration_matrix(M[:1, :1], A[:1, :1]) == (A[0, 0] / M[0, 0],)
    for M in (np.zeros((1, 1)), np.ones((2, 2)), np.array([[0.0, 1.0], [0.0, 2.0]])):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _iteration_matrix(M, np.eye(len(M)))


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
    u, v_next, diag = msta_implicit_step(np.zeros(2), np.eye(2), np.zeros((2, 2)), g, 1e-3, v)
    assert np.array_equal(v_next, v)
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


def test_error_recursion_and_its_norm_take_one_or_two_entries_without_linalg(monkeypatch):
    """``msta_error_recursion_step`` and ``norm_quad_value`` take ||.|| as the
    package's float row, as every step does, and call no np.linalg function;
    an s1 or x of no entry or of three or more is refused with its count."""
    calls = []

    def counting(*args, _fn, _name, **kwargs):
        calls.append(_name)
        return _fn(*args, **kwargs)

    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, functools.partial(counting, _fn=fn, _name=name))
    g = MstaGains(k2=4.0, k3=30.0, k4=1.0, gamma1=8.0)
    for s1 in (np.array([0.7]), np.array([0.7, -0.2]), np.array([1e-6, 0.0]), 0.3):
        _, _, shat, _, _ = msta_error_recursion_step(s1, np.zeros(np.size(s1)), g, 1e-3)
        norm_quad_value(shat, g.alpha2)
    assert calls == []
    assert norm_quad_value(np.array([3.0, -4.0]), 0.5) == 5.0 + 0.25 * 25.0
    for n in (0, 3, 4):
        with pytest.raises(ValueError, match=f"^the robust term takes one or two entries; "
                                             f"s1 has {n}$"):
            msta_error_recursion_step(np.full(n, 0.1), np.zeros(n), g, 1e-3)
        with pytest.raises(ValueError, match=f"^the robust term takes one or two entries; "
                                             f"x has {n}$"):
            norm_quad_value(np.full(n, 0.1), g.alpha2)
    assert calls == []


def test_error_recursion_refuses_what_it_cannot_step():
    """A non-finite s1, s2 or delta, an h not positive and finite, and an s2
    or array delta of another shape than s1 are refused by name, not carried
    into NaN outputs or broadcast into two-entry ones."""
    g = MstaGains(k2=11.6, k3=66.0)
    one, two = np.array([0.1]), np.zeros(2)
    for args, message in [
        ((np.array([math.nan]), one, g, 1e-3), "s1 must be finite"),
        ((one, np.array([math.inf]), g, 1e-3), "s2 must be finite"),
        ((one, one, g, 1e-3, math.nan), "delta must be finite"),
        ((one, one, g, 1e-3, np.array([0.0, math.inf])), "delta has shape (2,) but s1 has (1,)"),
        ((one, one, g, math.nan), "h must be positive and finite"),
        ((one, one, g, math.inf), "h must be positive and finite"),
        ((one, two, g, 1e-3), "s2 has shape (2,) but s1 has (1,)"),
        ((one, one, g, 1e-3, two), "delta has shape (2,) but s1 has (1,)"),
        ((two, one, g, 1e-3), "s2 has shape (1,) but s1 has (2,)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            msta_error_recursion_step(*args)
    # a scalar delta, or one of s1's shape, acts on every entry
    a = msta_error_recursion_step(two + 0.3, two, g, 1e-3, 2.0)
    b = msta_error_recursion_step(two + 0.3, two, g, 1e-3, np.full(2, 2.0))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_error_recursion_consistency():
    # the returned selections reproduce the nominal state identity
    g = MstaGains(k2=4.0, k3=30.0, k4=1.0, gamma1=8.0)
    h = 1e-3
    s1, s2 = np.array([0.7, -0.2]), np.array([0.1, 0.3])
    s1n, s2n, shat, m1, m2 = msta_error_recursion_step(s1, s2, g, h)
    assert np.allclose(shat, s1 - h * g.k2 * m1 - h * h * g.k3 * m2, atol=1e-14)
    assert np.allclose(s1n, shat + h * s2n, atol=1e-14)
