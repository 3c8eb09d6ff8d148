import itertools
import math

import numpy as np
import pytest

from nonsmooth_adm.plant import (
    Disturbance,
    EnvironmentModel,
    LinearMotorParams,
    ManipulatorModel,
    OneDofParams,
    PlantState,
    TwoLinkParams,
    contact_wrench,
    integrate_substep,
    linear_motor_model,
    one_dof_model,
    two_link_model,
)


# The array dynamics the period loops replaced, kept as the tests' reference:
# J^T of the contact wrench, the rail friction of the linear stage and the
# joint accelerations, each from the array views of the kernel.  The oracles
# take the drive gain as ``gain``: kappa for a linear stage, 1 for the arms.

def linear_motor_friction(params: LinearMotorParams) -> tuple[Disturbance, float]:
    """The rail friction: its viscous term as a disturbance, and its Coulomb
    level, which the reference stepper takes as a Coulomb term of row (1,)."""
    viscous = params.friction_viscous

    def fe(t: float, q: float, qd: float) -> float:
        return -viscous * qd

    return fe, params.friction_coulomb


def kernel_kinematics(model: ManipulatorModel, q: np.ndarray
                      ) -> tuple[tuple[float, float], np.ndarray]:
    """The end-effector pose and the 2 x dof Jacobian at q, read from the
    kernel tuple (from ``pose_at`` on) as an array view."""
    t = model.terms(*q.tolist(), *(0.0,) * model.dof)
    e = model.pose_at
    return t[e:e + 2], np.array(t[e + 2:]).reshape(2, model.dof)


def joint_contact_torque(model: ManipulatorModel, q: np.ndarray,
                         wrench: tuple[float, float]) -> np.ndarray:
    """Map a planar end-effector wrench to joint space through J^T."""
    jac = kernel_kinematics(model, q)[1]
    w = np.asarray(wrench, dtype=float)
    if w.shape[0] != jac.shape[0]:
        raise ValueError("wrench dimension does not match the Jacobian rows")
    return jac.T @ w


def forward_dynamics(model: ManipulatorModel, state: PlantState, tau: np.ndarray,
                     fc: np.ndarray, fe: np.ndarray, gain: float = 1.0) -> np.ndarray:
    """Joint accelerations: M^{-1} (gain*tau + fc + fe - C qd - G)."""
    M = model.mass_fn(state.q)
    C = model.coriolis_fn(state.q, state.qd)
    G = model.gravity_fn(state.q)
    return np.linalg.solve(M, gain * tau + fc + fe - C @ state.qd - G)


def frictionless_stage(mass: float = 1.0) -> ManipulatorModel:
    """The double integrator of ``msta_bench``: the linear stage with no
    friction, viscosity or gravity and unit drive gain."""
    return linear_motor_model(LinearMotorParams(mass=mass, viscous=0.0, kappa=1.0,
                                                friction_coulomb=0.0, friction_viscous=0.0,
                                                g=0.0))


def test_contact_wrench_branches():
    env = EnvironmentModel(k_s=2e3, y_s=0.0, mu_fric=0.1)
    assert contact_wrench((0.0, 0.01), (0.0, 0.0), env) == (0.0, 0.0)
    fx, fy = contact_wrench((0.0, -0.001), (0.0, 0.0), env)
    assert (fx, fy) == (0.0, 2.0)
    fx, fy = contact_wrench((0.0, -0.001), (0.5, 0.0), env)
    assert fy == 2.0 and fx == pytest.approx(-0.2)


def test_contact_complementarity(rng):
    env = EnvironmentModel(k_s=2e3, y_s=0.0, mu_fric=0.1)
    for _ in range(300):
        y = rng.uniform(-0.01, 0.01)
        xd = rng.normal()
        fx, fy = contact_wrench((0.0, y), (xd, 0.0), env)
        assert fy >= 0.0
        assert fy * max(0.0, y - env.y_s) == 0.0
        if fy > 0.0 and xd != 0.0:
            assert abs(fx) == pytest.approx(env.mu_fric * fy)
        if fy == 0.0:
            assert fx == 0.0


def test_joint_contact_torque_one_dof():
    model = one_dof_model()
    assert np.array_equal(joint_contact_torque(model, np.zeros(1), (0.0, 0.0)), [0.0])
    fc = joint_contact_torque(model, np.zeros(1), (0.0, 2.0))
    assert fc[0] == pytest.approx(1.0)          # l1 * cos(0) * 2
    fc = joint_contact_torque(model, np.zeros(1), (1.0, 0.0))
    assert fc[0] == pytest.approx(0.0)


def test_one_dof_rest_dynamics():
    model = one_dof_model(OneDofParams())
    st = PlantState(np.zeros(1), np.zeros(1))
    assert model.mass_fn(st.q)[0, 0] == pytest.approx(0.7291666667, abs=1e-9)
    assert model.gravity_fn(st.q)[0] == pytest.approx(12.2625)
    qdd = forward_dynamics(model, st, np.zeros(1), np.zeros(1), np.zeros(1))
    assert qdd[0] == pytest.approx(-16.81714285714286, abs=1e-10)


def test_gravity_hold_is_equilibrium():
    model = one_dof_model(OneDofParams())
    q = np.array([0.3])
    st = PlantState(q, np.zeros(1))
    qdd = forward_dynamics(model, st, model.gravity_fn(q), np.zeros(1), np.zeros(1))
    assert abs(qdd[0]) < 1e-12


def test_two_link_gravity_free_rest():
    model = two_link_model()
    q = np.array([0.4, -0.9])
    qdd = forward_dynamics(model, PlantState(q, np.zeros(2)), model.gravity_fn(q),
                           np.zeros(2), np.zeros(2))
    assert np.allclose(qdd, 0.0, atol=1e-12)


def test_two_link_mass_matrix_spd(rng):
    model = two_link_model()
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, size=2)
        M = model.mass_fn(q)
        assert np.allclose(M, M.T)
        assert np.linalg.eigvalsh(M).min() > 0.0


def test_two_link_skew_symmetry(rng):
    model = two_link_model()
    eps = 1e-6
    for _ in range(200):
        q = rng.uniform(-math.pi, math.pi, size=2)
        qd = rng.normal(size=2)
        x = rng.normal(size=2)
        mdot = (model.mass_fn(q + eps * qd) - model.mass_fn(q - eps * qd)) / (2 * eps)
        c = model.coriolis_fn(q, qd)
        assert abs(x @ (mdot - 2 * c) @ x) <= 1e-6 * (x @ x)


def test_one_dof_inertia_positivity_guard():
    model = one_dof_model(OneDofParams(mass_ripple=5.0))
    with pytest.raises(ValueError):
        model.mass_fn(np.array([-math.pi / 2]))


def test_linear_motor_dynamics():
    p = LinearMotorParams()
    model = linear_motor_model(p)
    st = PlantState(np.zeros(1), np.zeros(1))
    # holding force equals the weight
    qdd = forward_dynamics(model, st, np.array([p.mass * p.g]), np.zeros(1), np.zeros(1),
                           p.kappa)
    assert abs(qdd[0]) < 1e-12
    fric, coulomb = linear_motor_friction(p)
    assert fric(0.0, 0.0, 0.1) == pytest.approx(-0.5) and coulomb == 1.0
    assert fric(0.0, 0.0, 0.0) == 0.0


def test_free_fall_substep_value():
    """One substep from rest is Heun's step, worked by hand: the rate after
    dt is the mean of the slopes at the start and at the predicted state."""
    p = OneDofParams()
    model = one_dof_model(p)
    dt = 1e-5
    st = integrate_substep(model, PlantState(np.zeros(1), np.zeros(1)), np.zeros(1),
                           EnvironmentModel(), None, 0.0, dt, 1)
    m0 = p.m1 * p.l1 ** 2 / 3.0 + p.m1 * p.com ** 2
    a0 = -p.m1 * p.g * p.com / m0
    v1 = dt * a0
    q1 = 0.5 * dt * v1
    a1 = (-p.damping * math.cos(q1) * v1 - p.m1 * p.g * p.com * math.cos(q1)) / (
        m0 + p.mass_ripple * math.sin(q1))
    qd = 0.5 * dt * (a0 + a1)
    assert st.qd[0] == pytest.approx(qd, rel=1e-12)
    assert st.q[0] == pytest.approx(0.5 * dt * qd, rel=1e-12)
    assert st.qd[0] == pytest.approx(-1.68171428571e-4, rel=1e-6)


def test_zero_dynamics_state_unchanged():
    model = two_link_model()
    env = EnvironmentModel()
    q = np.array([0.2, 0.4])
    st = integrate_substep(model, PlantState(q, np.zeros(2)), np.zeros(2), env,
                           None, 0.0, 1e-5, 50)
    assert np.allclose(st.q, q, atol=1e-15)
    assert np.allclose(st.qd, 0.0)


def _reference_forces(model, tau, env, disturbance=None, gain=1.0, rail=0.0):
    """forces(q, qd, t) -> (a, fy, Coulomb terms) from the array views: the
    joint accelerations of every force but the Coulomb terms, the spring
    force k_s (y_s - y) (the normal force where it is positive), and each
    Coulomb term as (M, tangential row j, level F): the surface friction
    mu fy along the Jacobian's x row and, on a linear stage, its rail's
    Coulomb level ``rail`` along (1,)."""
    def forces(q, qd, t):
        pose, jac = kernel_kinematics(model, q)
        fy = env.k_s * (env.y_s - pose[1])      # < 0 off the surface
        normal = max(0.0, fy)
        fc = joint_contact_torque(model, q, (0.0, normal))
        fe = np.zeros(model.dof) if disturbance is None else np.array([disturbance(t, q[0], qd[0])])
        a = forward_dynamics(model, PlantState(q, qd), tau, fc, fe, gain)
        M = model.mass_fn(q)
        terms = [(M, jac[0], env.mu_fric * normal)]
        if rail > 0.0:
            terms.append((M, np.ones(1), rail))
        return a, fy, terms
    return forces


def _coulomb_step(v, terms, dt):
    """The rates after each Coulomb term's implicit Euler impulse dt * fx,
    fx = clamp(-j v / (dt w), -F, F) along M^-1 j^T, w = j M^-1 j^T; a term
    with F = 0 or w = 0 leaves the rates as they are."""
    for M, j, level in terms:
        if level > 0.0:
            b = np.linalg.solve(M, j)
            w = j @ b
            if w > 0.0:
                v = v + dt * b * np.clip(-(j @ v) / (dt * w), -level, level)
    return v


def reference_heun(forces, q, qd, t, dt):
    """One substep of the period loops' scheme, not split: Heun's step of
    the smooth forces with the trapezoid of the Coulomb terms.  The
    predicted rate takes their implicit step at the start state; the
    corrected rate takes half of that impulse as it is, then their implicit
    step of half the level dt / 2 at the predicted end state.  Positions
    advance by the trapezoid of the rates."""
    a0, _, terms = forces(q, qd, t)
    free = qd + dt * a0
    v = _coulomb_step(free, terms, dt)
    q1 = q + dt / 2 * (qd + v)
    a1, _, terms = forces(q1, v, t + dt)
    v = _coulomb_step(qd + dt / 2 * (a0 + a1) + (v - free) / 2, terms, dt / 2)
    return q + dt / 2 * (qd + v), v


def reference_substeps(forces, q, qd, dt, n_sub, t=0.0):
    """``n_sub`` substeps of ``reference_heun``, a substep whose ends straddle
    the surface (fy > 0 at one end only) split at the secant's onset."""
    q, qd = np.asarray(q, dtype=float), np.asarray(qd, dtype=float)
    fy0 = forces(q, qd, t)[1]
    for _ in range(n_sub):
        qn, vn = reference_heun(forces, q, qd, t, dt)
        fy1 = forces(qn, vn, t + dt)[1]
        if (fy0 > 0.0) != (fy1 > 0.0) and 0.0 < fy0 / (fy0 - fy1) < 1.0:
            d = fy0 / (fy0 - fy1) * dt
            qn, vn = reference_heun(forces, q, qd, t, d)
            qn, vn = reference_heun(forces, qn, vn, t + d, dt - d)
            fy1 = forces(qn, vn, t + dt)[1]
        q, qd, fy0 = qn, vn, fy1
        t += dt
    return q, qd


def test_substep_matches_reference_loop(rng):
    env = EnvironmentModel(k_s=2e3, y_s=0.0, mu_fric=0.1)
    # the linear stage applies its own drive gain and rail friction
    stage = LinearMotorParams()
    viscous, coulomb = linear_motor_friction(stage)
    for model, fe, gain, rail in ((one_dof_model(), None, 1.0, 0.0),
                                  (linear_motor_model(stage), viscous, stage.kappa, coulomb),
                                  (two_link_model(), None, 1.0, 0.0)):
        for _ in range(40):
            n = model.dof
            st = PlantState(rng.normal(scale=0.4, size=n), rng.normal(size=n))
            tau = rng.normal(size=n)
            a = integrate_substep(model, st, tau, env, None, 0.0, 1e-4, 25)
            q, qd = reference_substeps(_reference_forces(model, tau, env, fe, gain, rail),
                                       st.q, st.qd, 1e-4, 25)
            assert np.allclose(a.q, q, rtol=1e-12, atol=1e-13)
            assert np.allclose(a.qd, qd, rtol=1e-12, atol=1e-12)


def test_model_rejects_unsupported_shapes():
    terms = one_dof_model().terms
    with pytest.raises(ValueError, match="dof"):
        ManipulatorModel(3, terms)
    with pytest.raises(TypeError, match="_advance"):
        ManipulatorModel(1, terms)


def test_two_link_rejects_disturbance():
    with pytest.raises(ValueError, match="one-joint"):
        integrate_substep(two_link_model(), PlantState(np.zeros(2), np.zeros(2)), np.zeros(2),
                          EnvironmentModel(), lambda t, q, qd: 1.0, 0.0, 1e-5, 1)


@pytest.mark.parametrize("model,entries", [(one_dof_model, 2), (two_link_model, 1)],
                         ids=["one_dof-2", "two_link-1"])
def test_torque_of_another_entry_count_is_refused(model, entries):
    """A torque of another entry count than the plant's joints is named
    before the period loop, not met as an unpacking error inside it."""
    m = model()
    with pytest.raises(ValueError, match=rf"^tau_held has {entries} entries but the plant "
                                         rf"has {m.dof} joint\(s\)$"):
        integrate_substep(m, PlantState(np.zeros(m.dof), np.zeros(m.dof)), np.zeros(entries),
                          EnvironmentModel(), None, 0.0, 1e-5, 1)


@pytest.mark.parametrize("field", ["k_s", "y_s", "mu_fric"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_environment_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        EnvironmentModel(**{field: bad})


@pytest.mark.parametrize("cls,field,bad", [
    *((OneDofParams, f, b) for f in ("m1", "l1", "lc1", "mass_ripple", "damping", "g")
      for b in (math.nan, math.inf)),
    *((TwoLinkParams, f, -math.inf) for f in ("m1", "m2", "l1", "l2", "J1", "J2")),
    *((LinearMotorParams, f, math.nan) for f in ("mass", "viscous", "kappa",
                                                  "friction_coulomb", "friction_viscous", "g")),
])
def test_plant_params_reject_non_finite_fields(cls, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: bad})


@pytest.mark.parametrize("field,bad,message", [("mass", 0.0, "mass must be positive"),
                                               ("mass", -1.0, "mass must be positive"),
                                               ("mass", math.nan, "mass must be finite"),
                                               ("kappa", 0.0, "kappa must be positive"),
                                               ("kappa", -1.0, "kappa must be positive"),
                                               ("friction_coulomb", -1.0, "friction_coulomb"),
                                               ("friction_viscous", -50.0, "friction_viscous")])
def test_linear_motor_params_reject_bad_signs(field, bad, message):
    with pytest.raises(ValueError, match=message):
        LinearMotorParams(**{field: bad})
    LinearMotorParams(**{field: 1e-9 if field in ("mass", "kappa") else 0.0})


def test_pendulum_energy_drift():
    # undamped constant-inertia pendulum: semi-implicit Euler keeps energy
    # bounded; drift over one second stays below 0.5 %
    p = OneDofParams(mass_ripple=0.0, damping=0.0)
    model = one_dof_model(p)
    env = EnvironmentModel()
    inertia = model.mass_fn(np.zeros(1))[0, 0]

    def energy(st):
        pot = p.m1 * p.g * p.com * math.sin(st.q[0])
        return 0.5 * inertia * st.qd[0] ** 2 + pot

    st = PlantState(np.array([0.5]), np.zeros(1))
    e0 = energy(st)
    scale = abs(e0) + p.m1 * p.g * p.com
    worst = 0.0
    for _ in range(100):
        st = integrate_substep(model, st, np.zeros(1), env, None, 0.0, 1e-5, 1000)
        worst = max(worst, abs(energy(st) - e0))
    assert worst / scale < 0.005


# The kernels written out as the dynamics read, every entry from the
# parameters with no constant folded; the models' kernels fold the
# parameter-only parts once and must still give the same bits.

def _one_dof_textbook(p, q, qd):
    lc = p.com
    js = p.m1 * p.l1 * p.l1 / 3.0
    s, c = math.sin(q), math.cos(q)
    return (js + p.m1 * lc * lc + p.mass_ripple * s, p.damping * c, p.m1 * p.g * lc * c,
            p.l1 * c, p.l1 * s, -p.l1 * s, p.l1 * c)


def _two_link_textbook(p, q1, q2, qd1, qd2):
    lc1, lc2 = p.l1 / 2.0, p.l2 / 2.0
    ic1 = p.J1 - p.m1 * lc1 * lc1
    ic2 = p.J2 - p.m2 * lc2 * lc2
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    c2, s2 = math.cos(q2), math.sin(q2)
    m11 = p.m1 * lc1 * lc1 + ic1 + ic2 + p.m2 * (p.l1 * p.l1 + lc2 * lc2 + 2.0 * p.l1 * lc2 * c2)
    m12 = p.m2 * (lc2 * lc2 + p.l1 * lc2 * c2) + ic2
    m22 = p.m2 * lc2 * lc2 + ic2
    hh = -p.m2 * p.l1 * lc2 * s2
    return (m11, m12, m22, hh * qd2, hh * (qd1 + qd2), -hh * qd1, 0.0, 0.0, 0.0,
            p.l1 * c1 + p.l2 * c12, p.l1 * s1 + p.l2 * s12,
            -p.l1 * s1 - p.l2 * s12, -p.l2 * s12,
            p.l1 * c1 + p.l2 * c12, p.l2 * c12)


def _linear_motor_textbook(p, q, qd):
    return p.mass, p.viscous, p.mass * p.g, 0.0, q, 0.0, 1.0


def _bits(values) -> list[str]:
    """Each float's exact value and sign, so -0.0 differs from 0.0."""
    return [float(x).hex() for x in values]


def _kernel_cases(rng):
    """(model, textbook kernel, params, dof) for default and random parameters."""
    u = rng.uniform
    for _ in range(4):
        # m1*l1^2/3 + m1*lc1^2 >= 0.29 keeps the inertia positive for |ripple| <= 0.2
        for p in (OneDofParams(), OneDofParams(m1=u(2.0, 9.0), l1=u(0.5, 1.5),
                                               lc1=u(0.25, 0.75), mass_ripple=u(-0.2, 0.2),
                                               damping=u(0.0, 2.0), g=u(0.0, 9.81))):
            yield one_dof_model(p), _one_dof_textbook, p, 1
        p = TwoLinkParams(m1=u(1.0, 9.0), m2=u(1.0, 12.0), l1=u(0.2, 0.8), l2=u(0.2, 0.8),
                          J1=u(0.5, 2.0), J2=u(1.0, 3.0))
        for p in (TwoLinkParams(), p):
            yield two_link_model(p), _two_link_textbook, p, 2
        for p in (LinearMotorParams(), LinearMotorParams(mass=u(0.05, 2.0), viscous=u(0.0, 3.0),
                                                         kappa=u(0.5, 2.0), g=u(0.0, 9.81))):
            yield linear_motor_model(p), _linear_motor_textbook, p, 1


def test_kernels_equal_the_textbook_formulas_bitwise(rng):
    for model, textbook, p, n in _kernel_cases(rng):
        for _ in range(200 // 24 + 1):
            x = [*rng.normal(scale=1.5, size=n), *rng.normal(scale=4.0, size=n)]
            x[0] = float(rng.choice([x[0], 0.0, -0.0, math.pi / 2]))
            assert _bits(model.terms(*x)) == _bits(textbook(p, *x)), (p, x)


def test_kernel_ends_with_the_pose_and_the_jacobian_rows(rng, ee_kinematics):
    """From ``pose_at`` on, the kernel tuple is the end-effector pose and the
    Jacobian's entries row by row, as floats, bitwise the closed-form
    kinematics; they do not depend on the joint rates."""
    for model, _, p, n in _kernel_cases(rng):
        e = model.pose_at
        for _ in range(12):
            q, qd = rng.normal(scale=1.5, size=n), rng.normal(scale=4.0, size=n)
            t = model.terms(*q.tolist(), *qd.tolist())
            assert _bits(t[e:]) == _bits(model.terms(*q.tolist(), *(0.0,) * n)[e:])
            assert all(type(x) is float for x in t[e:]) and len(t) == e + 2 + 2 * n
            pose, jac = ee_kinematics(p, q)
            assert _bits(t[e:e + 2]) == _bits(pose)
            assert jac.shape == (2, n)
            assert np.array(t[e + 2:]).reshape(2, n).tobytes() == jac.tobytes()


# The period loops against the reference stepper over every plant, default
# and random parameters, the disturbance bases, in and out of contact, and
# all three signs of the tangential rate.

def _sine(t, q, qd):
    return 0.7 * math.sin(2.0 * math.pi * 3.0 * (t - 0.01)) if t >= 0.01 else 0.0


def _ramp(t, q, qd):
    return 0.0 if t <= 0.002 else min(1.5, 400.0 * (t - 0.002))


def _plant_cases(rng):
    """(model, rail friction or None, drive gain) for default and random
    parameters of each of the three plants, and the frictionless linear
    stage."""
    u = rng.uniform
    for _ in range(3):
        # no gravity (as in fig3) leaves the small terms of the sum unabsorbed
        g = float(rng.choice([0.0, u(0.0, 9.81)]))
        for p in (OneDofParams(), OneDofParams(m1=u(2.0, 9.0), l1=u(0.5, 1.5),
                                               lc1=u(0.25, 0.75), mass_ripple=u(-0.2, 0.2),
                                               damping=u(0.0, 2.0), g=g)):
            yield one_dof_model(p), None, 1.0
        for p in (TwoLinkParams(), TwoLinkParams(m1=u(1.0, 9.0), m2=u(1.0, 12.0),
                                                 l1=u(0.2, 0.8), l2=u(0.2, 0.8),
                                                 J1=u(0.5, 2.0), J2=u(1.0, 3.0))):
            yield two_link_model(p), None, 1.0
        for p in (LinearMotorParams(), LinearMotorParams(
                mass=u(0.05, 2.0), viscous=u(0.0, 3.0), kappa=u(0.5, 2.0),
                friction_coulomb=u(0.0, 3.0), friction_viscous=u(0.0, 10.0), g=g)):
            yield linear_motor_model(p), linear_motor_friction(p), p.kappa
        for mass in (1.0, u(0.1, 5.0)):
            yield frictionless_stage(mass), None, 1.0


def _oracle_disturbance(base, friction):
    if friction is None:
        return base
    if base is None:
        return friction
    return lambda t, q, qd: base(t, q, qd) + friction(t, q, qd)


def _loop_and_oracle(model, friction, gain, q, qd, tau, env, base, dt, n_sub):
    """(q, qd) after ``n_sub`` substeps of the model's loop and of the
    reference stepper, from t = 0."""
    st = integrate_substep(model, PlantState(q, qd), tau, env, base, 0.0, dt, n_sub)
    viscous, coulomb = friction if friction is not None else (None, 0.0)
    forces = _reference_forces(model, tau, env, _oracle_disturbance(base, viscous), gain, coulomb)
    return np.array([*st.q, *st.qd]), np.concatenate(reference_substeps(forces, q, qd, dt, n_sub))


def test_period_loops_equal_the_reference_stepper(rng):
    seen = set()
    for model, friction, gain in _plant_cases(rng):
        n = model.dof
        bases = (None, _sine, _ramp) if n == 1 else (None,)
        for _ in range(6):
            q = rng.normal(scale=1.0, size=n)
            ey = kernel_kinematics(model, q)[0][1]
            for contact, qd in itertools.product(
                    (True, False),
                    (np.abs(rng.normal(size=n)), -np.abs(rng.normal(size=n)), np.zeros(n))):
                # the surface a little above or far below the end-effector
                env = EnvironmentModel(k_s=float(rng.uniform(1e2, 5e3)),
                                       y_s=ey + (1e-3 if contact else -1.0),
                                       mu_fric=float(rng.choice([0.0, 0.1, 0.5])))
                # a coarse step makes each force term count in the state
                for tau, (dt, n_sub), base in itertools.product(
                        (rng.normal(size=n), np.zeros(n)), ((1e-4, 1), (1e-4, 10), (0.05, 2)),
                        bases):
                    got, ref = _loop_and_oracle(model, friction, gain, q, qd, tau, env, base, dt,
                                                n_sub)
                    assert np.allclose(got, ref, rtol=1e-11, atol=1e-12), (
                        model, q, qd, tau, env, base, dt, n_sub, got - ref)
                if contact:
                    v = (kernel_kinematics(model, q)[1] @ qd)[0]
                    seen.add((n, "v>0" if v > 0.0 else "v<0" if v < 0.0 else "v=0"))
    # the Coulomb branch saw all three signs of the tangential velocity
    assert seen >= {(n, s) for n in (1, 2) for s in ("v>0", "v<0", "v=0")}


def test_inertia_positivity_error_through_integrate_substep():
    model = one_dof_model(OneDofParams(mass_ripple=5.0))
    st = PlantState(np.array([-math.pi / 2]), np.zeros(1))
    with pytest.raises(ValueError, match="inertia lost positivity") as got:
        integrate_substep(model, st, np.zeros(1), EnvironmentModel(), None, 0.0, 1e-5, 10)
    with pytest.raises(ValueError) as ref:
        reference_substeps(_reference_forces(model, np.zeros(1), EnvironmentModel()),
                           st.q, st.qd, 1e-5, 10)
    assert str(got.value) == str(ref.value)


# The step itself: its order out of contact, the split at the surface, the
# implicit Coulomb step in stick, a vanishing tangential row, and mu = 0.

def _stage_cases():
    """(model, q, qd, tau, rail friction or None, drive gain) off the surface."""
    stage = LinearMotorParams()
    yield one_dof_model(), np.array([0.3]), np.array([2.0]), np.array([0.5]), None, 1.0
    yield two_link_model(), np.array([0.4, -0.9]), np.array([1.5, -2.0]), np.array([0.3, -0.2]), \
        None, 1.0
    # sliding up the rail all period long
    yield linear_motor_model(stage), np.zeros(1), np.array([2.0]), np.array([0.1]), \
        linear_motor_friction(stage), stage.kappa


def test_step_is_second_order_out_of_contact():
    """Off the surface with mu = 0, halving the substep cuts the error of one
    period against a 4096-substep run by at least 3.5 (Heun's step is second
    order; the rail's Coulomb level in slip is a constant force)."""
    env = EnvironmentModel(k_s=2e3, y_s=-10.0, mu_fric=0.0)
    h = 0.02
    for model, q, qd, tau, _, _ in _stage_cases():
        def period(n_sub):
            st = integrate_substep(model, PlantState(q, qd), tau, env, None, 0.0, h / n_sub, n_sub)
            return np.array([*st.q, *st.qd])

        fine = period(4096)
        coarse, half = (np.abs(period(n) - fine).max() for n in (8, 16))
        assert coarse > 1e3 * np.abs(fine).max() * 2.0 ** -52, model   # well above roundoff
        assert coarse / half >= 3.5, (model, coarse, half)


def test_step_is_second_order_in_sliding_contact():
    """Sliding along the surface with mu = 0.3 all period long, going from
    16 to 32 substeps cuts the error of one 10 ms period against a
    4096-substep run by at least 3.5: the Coulomb term's trapezoid is second
    order in slip, on one joint and on two."""
    h = 0.01
    for model, q in ((one_dof_model(OneDofParams(g=0.0)), np.array([-math.pi / 2])),
                     (two_link_model(), np.array([2.5, -1.5]))):
        pose, jac = kernel_kinematics(model, q)
        # a rate with no normal component and 0.5 m/s along the surface
        along = np.ones(1) if model.dof == 1 else np.array([jac[1, 1], -jac[1, 0]])
        qd = 0.5 * along / (jac[0] @ along)
        env = EnvironmentModel(k_s=2e3, y_s=pose[1] + 1e-3, mu_fric=0.3)

        def period(n_sub):
            return integrate_substep(model, PlantState(q, qd), np.zeros(model.dof), env, None,
                                     0.0, h / n_sub, n_sub)

        fine = period(4096)
        pose, jac = kernel_kinematics(model, fine.q)
        assert pose[1] < env.y_s and jac[0] @ fine.qd > 0.4, model   # still in contact, sliding
        fine = np.array([*fine.q, *fine.qd])
        coarse, half = (np.abs(np.array([*st.q, *st.qd]) - fine).max()
                        for st in (period(16), period(32)))
        assert coarse > 1e3 * np.abs(fine).max() * 2.0 ** -52, model   # well above roundoff
        assert coarse / half >= 3.5, (model, coarse, half)


def _straddle_state(model, q, qd, env_kw):
    """The surface a little below the end-effector (above it for qd < 0 on
    a rate that lifts it): one substep of 1e-4 s crosses it."""
    ey = kernel_kinematics(model, q)[0][1]
    vy = (kernel_kinematics(model, q)[1] @ qd)[1]
    return EnvironmentModel(y_s=ey + 0.4e-4 * vy, **env_kw)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["onset", "release"])
def test_straddling_substep_is_two_substeps_split_at_the_onset(sign):
    """A substep whose ends lie on both sides of the surface equals, to
    1e-12, two substeps split where the secant of the spring force over the
    unsplit substep locates the crossing; the split moves the state by much
    more than that."""
    dt = 1e-4
    for model, q, qd, tau, friction, gain in _stage_cases():
        qd = sign * -np.abs(qd) if model.dof == 1 else sign * np.array([-1.5, -2.0])
        env = _straddle_state(model, q, qd, dict(k_s=2e3, mu_fric=0.3))
        viscous, coulomb = friction if friction is not None else (None, 0.0)
        forces = _reference_forces(model, tau, env, viscous, gain, coulomb)
        qn, vn = reference_heun(forces, q, qd, 0.0, dt)
        fy0, fy1 = forces(q, qd, 0.0)[1], forces(qn, vn, dt)[1]
        assert (fy0 > 0.0) != (fy1 > 0.0)
        d = fy0 / (fy0 - fy1) * dt
        assert 0.05 * dt < d < 0.95 * dt
        whole = integrate_substep(model, PlantState(q, qd), tau, env, None, 0.0, dt, 1)
        # the two parts are not split again, though the first, from one
        # secant step, ends near the surface but not on it
        split = reference_heun(forces, *reference_heun(forces, q, qd, 0.0, d), d, dt - d)
        got = np.array([*whole.q, *whole.qd])
        assert np.abs(got - np.concatenate(split)).max() <= 1e-12, model
        assert np.abs(got - np.array([*qn, *vn])).max() > 1e-9, model


def _normal_torque(model, q, k_s, y_s):
    """J^T (0, fy) of the spring force k_s (y_s - y) at q."""
    pose, _ = kernel_kinematics(model, q)
    return joint_contact_torque(model, q, (0.0, k_s * (y_s - pose[1])))


def test_stick_ends_the_substep_at_zero_tangential_rate():
    """Where the rate Heun's step gives has |j v| <= dt F w, the implicit
    Coulomb step leaves the tangential rate j v at 0 to roundoff (exactly 0
    on one joint); j, F and w are those of the predicted state."""
    dt = 1e-4
    stage = LinearMotorParams()
    cases = (  # (model, q, qd, tau, env, rail friction or None, drive gain)
        # the normal force's torque l1 cos q fy is below mu fy l1 |sin q|
        (one_dof_model(OneDofParams(g=0.0)), np.array([-1.2]), np.array([1e-6]), np.zeros(1),
         EnvironmentModel(k_s=2e3, y_s=0.5 * math.sin(-1.2) + 1e-3, mu_fric=0.5), None, 1.0),
        # the drive balances the normal force's torques J_y^T fy
        (two_link_model(), np.array([2.5, -1.5]), np.array([1e-6, -2e-6]),
         -_normal_torque(two_link_model(), np.array([2.5, -1.5]), 2e3, 0.745),
         EnvironmentModel(k_s=2e3, y_s=0.745, mu_fric=0.5), None, 1.0),
        # held on the rail: the drive less the weight is below the Coulomb level
        (linear_motor_model(stage), np.zeros(1), np.array([1e-5]), np.array([2.0]),
         EnvironmentModel(), linear_motor_friction(stage), stage.kappa),
    )
    for model, q, qd, tau, env, friction, gain in cases:
        viscous, coulomb = friction if friction is not None else (None, 0.0)
        forces = _reference_forces(model, tau, env, viscous, gain, coulomb)
        a0, fy, terms = forces(q, qd, 0.0)
        v = _coulomb_step(qd + dt * a0, terms, dt)
        a1, fy1, terms = forces(q + dt / 2 * (qd + v), v, dt)
        free = qd + dt / 2 * (a0 + a1)
        M, j, level = terms[-1]
        assert level > 0.0 and (fy > 0.0) == (fy1 > 0.0)
        assert abs(j @ free) <= dt * level * (j @ np.linalg.solve(M, j)), model
        st = integrate_substep(model, PlantState(q, qd), tau, env, None, 0.0, dt, 1)
        if model.dof == 1:
            assert st.qd[0] == 0.0
        else:
            assert abs(j @ st.qd) <= 1e-15 * np.abs(j) @ np.abs(st.qd)
            assert abs(j @ free) > 1e-3 * np.abs(j) @ np.abs(free)   # it was not 0 before


@pytest.mark.parametrize("qd_scale", [0.0, 1.0])
def test_a_vanishing_tangential_row_divides_nothing(qd_scale):
    """At q = 0 the one-joint arm's tangential row -l1 sin q is 0, and the
    two-link arm's is (0, 0): in contact, w = j M^-1 j^T = 0 and the step
    raises no ZeroDivisionError; it equals the reference stepper."""
    for model in (one_dof_model(), two_link_model()):
        n = model.dof
        q, qd, tau = np.zeros(n), qd_scale * np.full(n, 0.3), np.zeros(n)
        env = EnvironmentModel(k_s=2e3, y_s=1e-3, mu_fric=0.5)
        assert not kernel_kinematics(model, q)[1][0].any()
        st = integrate_substep(model, PlantState(q, qd), tau, env, None, 0.0, 1e-4, 10)
        ref = reference_substeps(_reference_forces(model, tau, env), q, qd, 1e-4, 10)
        assert np.allclose(np.concatenate([st.q, st.qd]), np.concatenate(ref),
                           rtol=1e-12, atol=1e-15)


def test_without_friction_the_rates_are_heuns():
    """With mu = 0 (and no rail Coulomb level) the velocity is left as Heun's
    step gives it, in contact and for either sign of the tangential rate;
    with mu > 0 the same substep ends elsewhere on the arms (on the stage the
    surface friction acts across the rail)."""
    dt = 1e-4
    stage = LinearMotorParams(friction_coulomb=0.0)
    cases = ((one_dof_model(), np.array([0.3]), np.array([2.0]), np.array([0.5]), None, 1.0),
             (two_link_model(), np.array([0.4, -0.9]), np.array([1.5, -2.0]),
              np.array([0.3, -0.2]), None, 1.0),
             (linear_motor_model(stage), np.zeros(1), np.array([2.0]), np.array([0.1]),
              linear_motor_friction(stage)[0], stage.kappa))
    for model, q, qd, tau, viscous, gain in cases:
        ey = kernel_kinematics(model, q)[0][1]
        for v0 in (qd, -qd):
            got = {}
            for mu in (0.0, 0.5):
                env = EnvironmentModel(k_s=2e3, y_s=ey + 1e-3, mu_fric=mu)
                st = integrate_substep(model, PlantState(q, v0), tau, env, None, 0.0, dt, 1)
                got[mu] = np.array([*st.q, *st.qd])
            forces = _reference_forces(model, tau, env, viscous, gain)
            a0 = forces(q, v0, 0.0)[0]
            v = v0 + dt * a0
            a1 = forces(q + dt / 2 * (v0 + v), v, dt)[0]
            v = v0 + dt / 2 * (a0 + a1)
            heun = np.array([*(q + dt / 2 * (v0 + v)), *v])
            assert np.allclose(got[0.0], heun, rtol=1e-13, atol=1e-15), model
            assert (np.abs(got[0.5] - heun).max() > 1e-9) == (viscous is None), model
