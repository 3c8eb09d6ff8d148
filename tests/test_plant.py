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
    forward_dynamics,
    double_integrator_model,
    integrate_substep,
    joint_contact_torque,
    linear_motor_friction,
    linear_motor_model,
    one_dof_model,
    two_link_model,
)


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


def test_joint_contact_torque_dimension_check():
    model = one_dof_model()
    with pytest.raises(ValueError):
        joint_contact_torque(model, np.zeros(1), (1.0, 0.0, 0.0))


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
    qdd = forward_dynamics(model, st, np.array([p.mass * p.g]), np.zeros(1), np.zeros(1))
    assert abs(qdd[0]) < 1e-12
    fric = linear_motor_friction(p)
    assert fric(0.0, 0.0, 0.1) == pytest.approx(-(1.0 + 0.5))
    assert fric(0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
def test_double_integrator_rejects_what_the_linear_stage_rejects(mass):
    with pytest.raises(ValueError, match="mass"):
        double_integrator_model(mass)


def test_free_fall_substep_value():
    model = one_dof_model(OneDofParams())
    env = EnvironmentModel()
    st = integrate_substep(model, PlantState(np.zeros(1), np.zeros(1)), np.zeros(1),
                           env, None, 0.0, 1e-5, 1)
    assert st.qd[0] == pytest.approx(-1.68171428571e-4, rel=1e-9)


def test_zero_dynamics_state_unchanged():
    model = two_link_model()
    env = EnvironmentModel()
    q = np.array([0.2, 0.4])
    st = integrate_substep(model, PlantState(q, np.zeros(2)), np.zeros(2), env,
                           None, 0.0, 1e-5, 50)
    assert np.allclose(st.q, q, atol=1e-15)
    assert np.allclose(st.qd, 0.0)


def reference_substeps(model, st, tau, env, dt, n_sub, disturbance=None):
    """Semi-implicit Euler written from the array views of the kernel."""
    q, qd = st.q.copy(), st.qd.copy()
    t = 0.0
    for _ in range(n_sub):
        ee_vel = model.jacobian_fn(q) @ qd
        wrench = contact_wrench(model.ee_pose_fn(q), (ee_vel[0], ee_vel[1]), env)
        fc = joint_contact_torque(model, q, wrench)
        fe = np.zeros(model.dof) if disturbance is None else np.array([disturbance(t, q[0], qd[0])])
        qd = qd + dt * forward_dynamics(model, PlantState(q, qd), tau, fc, fe)
        q = q + dt * qd
        t += dt
    return q, qd


def test_substep_matches_reference_loop(rng):
    env = EnvironmentModel(k_s=2e3, y_s=0.0, mu_fric=0.1)
    # the linear stage applies its own rail friction
    for model, fe in ((one_dof_model(), None),
                      (linear_motor_model(), linear_motor_friction(LinearMotorParams())),
                      (two_link_model(), None)):
        for _ in range(40):
            n = model.dof
            st = PlantState(rng.normal(scale=0.4, size=n), rng.normal(size=n))
            tau = rng.normal(size=n)
            a = integrate_substep(model, st, tau, env, None, 0.0, 1e-5, 25)
            q, qd = reference_substeps(model, st, tau, env, 1e-5, 25, fe)
            assert np.allclose(a.q, q, atol=1e-13)
            assert np.allclose(a.qd, qd, atol=1e-12)


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


@pytest.mark.parametrize("field,bad,message", [("kappa", 0.0, "kappa must be positive"),
                                               ("kappa", -1.0, "kappa must be positive"),
                                               ("friction_coulomb", -1.0, "friction_coulomb"),
                                               ("friction_viscous", -50.0, "friction_viscous")])
def test_linear_motor_params_reject_bad_signs(field, bad, message):
    with pytest.raises(ValueError, match=message):
        LinearMotorParams(**{field: bad})
    LinearMotorParams(**{field: 0.0 if field != "kappa" else 1e-9})


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


def test_pose_jacobian_matches_the_array_views_bitwise(rng):
    models = [one_dof_model(), two_link_model(), linear_motor_model(), double_integrator_model()]
    for model in models:
        for _ in range(50):
            q = rng.normal(scale=1.5, size=model.dof)
            ee, jac = model._pose_jacobian(q)
            assert _bits(ee) == _bits(model.ee_pose_fn(q))
            ref = model.jacobian_fn(q)
            assert jac.dtype == ref.dtype and jac.shape == ref.shape == (2, model.dof)
            assert jac.tobytes() == ref.tobytes()


# The generic substep loops that ran every plant through its kernel, kept
# verbatim as the oracle of the models' own period loops: a loop over
# ``terms`` is what each model's loop must reproduce bit for bit.

def _integrate_scalar(model: ManipulatorModel, q0: float, qd0: float, tau: float,
                      env: EnvironmentModel, disturbance: Disturbance | None,
                      t: float, dt: float, n_sub: int) -> tuple[float, float]:
    terms = model.terms
    ks, ys, nmu = env.k_s, env.y_s, -env.mu_fric
    gt = model.input_gain * tau
    q, qd = q0, qd0
    for _ in range(n_sub):
        m, c, g, _, ey, jx, jy = terms(q, qd)
        fc = 0.0
        fy = ks * (ys - ey)
        if fy > 0.0:
            v = jx * qd   # Coulomb friction: -mu * fy * sign0(v)
            fx = nmu * fy * (1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0)
            fc = jx * fx + jy * fy
        fe = disturbance(t, q, qd) if disturbance is not None else 0.0
        qd += dt * (gt + fc + fe - c * qd - g) / m
        q += dt * qd
        t += dt
    return q, qd


def _integrate_planar2(model: ManipulatorModel, q1: float, q2: float, qd1: float, qd2: float,
                       tau1: float, tau2: float, env: EnvironmentModel, dt: float,
                       n_sub: int) -> tuple:
    terms = model.terms
    ks, ys, nmu = env.k_s, env.y_s, -env.mu_fric
    g1t, g2t = model.input_gain * tau1, model.input_gain * tau2
    for _ in range(n_sub):
        (m11, m12, m22, c11, c12, c21, c22, g1, g2,
         ex, ey, j11, j12, j21, j22) = terms(q1, q2, qd1, qd2)
        fc1 = fc2 = 0.0
        fy = ks * (ys - ey)
        if fy > 0.0:
            v = j11 * qd1 + j12 * qd2   # Coulomb friction: -mu * fy * sign0(v)
            fx = nmu * fy * (1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0)
            fc1 = j11 * fx + j21 * fy
            fc2 = j12 * fx + j22 * fy
        r1 = g1t + fc1 - c11 * qd1 - c12 * qd2 - g1
        r2 = g2t + fc2 - c21 * qd1 - c22 * qd2 - g2
        det = m11 * m22 - m12 * m12
        qd1 += dt * (m22 * r1 - m12 * r2) / det
        qd2 += dt * (m11 * r2 - m12 * r1) / det
        q1 += dt * qd1
        q2 += dt * qd2
    return q1, q2, qd1, qd2


def _sine(t, q, qd):
    return 0.7 * math.sin(2.0 * math.pi * 3.0 * (t - 0.01)) if t >= 0.01 else 0.0


def _ramp(t, q, qd):
    return 0.0 if t <= 0.002 else min(1.5, 400.0 * (t - 0.002))


def _plant_cases(rng):
    """(model, rail friction or None) for default and random parameters of
    each of the four plants."""
    u = rng.uniform
    for _ in range(3):
        # no gravity (as in fig3) leaves the small terms of the sum unabsorbed
        g = float(rng.choice([0.0, u(0.0, 9.81)]))
        for p in (OneDofParams(), OneDofParams(m1=u(2.0, 9.0), l1=u(0.5, 1.5),
                                               lc1=u(0.25, 0.75), mass_ripple=u(-0.2, 0.2),
                                               damping=u(0.0, 2.0), g=g)):
            yield one_dof_model(p), None
        for p in (TwoLinkParams(), TwoLinkParams(m1=u(1.0, 9.0), m2=u(1.0, 12.0),
                                                 l1=u(0.2, 0.8), l2=u(0.2, 0.8),
                                                 J1=u(0.5, 2.0), J2=u(1.0, 3.0))):
            yield two_link_model(p), None
        for p in (LinearMotorParams(), LinearMotorParams(
                mass=u(0.05, 2.0), viscous=u(0.0, 3.0), kappa=u(0.5, 2.0),
                friction_coulomb=u(0.0, 3.0), friction_viscous=u(0.0, 10.0), g=g)):
            yield linear_motor_model(p), linear_motor_friction(p)
        for mass in (1.0, u(0.1, 5.0)):
            yield double_integrator_model(mass), None


def _oracle_disturbance(base, friction):
    if friction is None:
        return base
    if base is None:
        return friction
    return lambda t, q, qd: base(t, q, qd) + friction(t, q, qd)


def _loop_and_oracle(model, friction, q, qd, tau, env, base, dt, n_sub):
    """(q, qd) bits after ``n_sub`` substeps of the model's loop and of the
    generic loop, from t = 0."""
    st = integrate_substep(model, PlantState(q, qd), tau, env, base, 0.0, dt, n_sub)
    if model.dof == 1:
        ref = _integrate_scalar(model, float(q[0]), float(qd[0]), float(tau[0]), env,
                                _oracle_disturbance(base, friction), 0.0, dt, n_sub)
        return _bits((st.q[0], st.qd[0])), _bits(ref)
    ref = _integrate_planar2(model, *map(float, (*q, *qd, *tau)), env, dt, n_sub)
    return _bits((*st.q, *st.qd)), _bits(ref)


def test_period_loops_equal_the_generic_loops_bitwise(rng):
    seen = set()
    for model, friction in _plant_cases(rng):
        n = model.dof
        bases = (None, _sine, _ramp) if n == 1 else (None,)
        for _ in range(6):
            q = rng.normal(scale=1.0, size=n)
            ey = model.ee_pose_fn(q)[1]
            for contact, qd in itertools.product(
                    (True, False),
                    (np.abs(rng.normal(size=n)), -np.abs(rng.normal(size=n)), np.zeros(n))):
                # the surface a little above or far below the end-effector
                env = EnvironmentModel(k_s=float(rng.uniform(1e2, 5e3)),
                                       y_s=ey + (1e-3 if contact else -1.0),
                                       mu_fric=float(rng.choice([0.0, 0.1, 0.5])))
                # a coarse step keeps the rounding of each force term from
                # being absorbed into the much larger state
                for tau, (dt, n_sub), base in itertools.product(
                        (rng.normal(size=n), np.zeros(n)), ((1e-4, 1), (1e-4, 60), (0.5, 2)),
                        bases):
                    got, ref = _loop_and_oracle(model, friction, q, qd, tau, env, base, dt, n_sub)
                    assert got == ref, (model, q, qd, tau, env, base, dt, n_sub)
                if contact:
                    v = (model.jacobian_fn(q) @ qd)[0]
                    seen.add((n, "v>0" if v > 0.0 else "v<0" if v < 0.0 else "v=0"))
    # the Coulomb branch saw all three signs of the tangential velocity
    assert seen >= {(n, s) for n in (1, 2) for s in ("v>0", "v<0", "v=0")}


def test_inertia_positivity_error_through_integrate_substep():
    model = one_dof_model(OneDofParams(mass_ripple=5.0))
    st = PlantState(np.array([-math.pi / 2]), np.zeros(1))
    with pytest.raises(ValueError, match="inertia lost positivity") as got:
        integrate_substep(model, st, np.zeros(1), EnvironmentModel(), None, 0.0, 1e-5, 10)
    with pytest.raises(ValueError) as ref:
        _integrate_scalar(model, -math.pi / 2, 0.0, 0.0, EnvironmentModel(), None, 0.0, 1e-5, 10)
    assert str(got.value) == str(ref.value)
