"""Simulated plants and contact environments.

Three plants are provided: a one-joint rotary arm with an uncertain inertia
term, a planar two-link arm (horizontal plane, so gravity acts out of plane),
and a vertical linear motor stage (the ``msta_bench`` double integrator is
that stage with no friction, viscosity or gravity).  The environment is a
unilateral linear spring surface with Coulomb friction along the tangential
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .setvalued import _require_finite, sign0

__all__ = [
    "ManipulatorModel",
    "OneDofParams",
    "TwoLinkParams",
    "LinearMotorParams",
    "EnvironmentModel",
    "PlantState",
    "Disturbance",
    "SimulationBlowUp",
    "one_dof_model",
    "two_link_model",
    "linear_motor_model",
    "contact_wrench",
    "integrate_substep",
]


# unmeasured bounded generalized force fe(t, q, qd) on a one-joint plant, floats
Disturbance = Callable[[float, float, float], float]

# offsets of the Coriolis, gravity and end-effector pose entries in the kernel
# tuple, by dof (the mass entries come first, the Jacobian's follow the pose)
_LAYOUT = {1: (1, 2, 3), 2: (3, 7, 9)}


@dataclass(frozen=True)
class ManipulatorModel:
    """Plant interface: one float dynamics kernel and its period loop.

    ``terms`` is the dynamics kernel.  For one joint it maps floats (q, qd)
    to (m, c, g, ee_x, ee_y, jac_x, jac_y); for two joints it maps
    (q1, q2, qd1, qd2) to (m11, m12, m22, c11, c12, c21, c22, g1, g2, ee_x,
    ee_y, j11, j12, j21, j22).  ``mass_fn``, ``coriolis_fn`` and
    ``gravity_fn`` are array views of the same tuple (the exact estimate
    takes them); the runner reads the pose and the Jacobian from the tuple
    itself, from ``pose_at`` on.  The Jacobian maps joint rates to the
    planar end-effector velocity (2 x dof).  The plant integrates whatever
    torque it is given: the torque box belongs to the controller.

    ``_advance`` is the plant's controller period: ``n_sub`` substeps on
    floats, each a Heun (explicit trapezoid) step of the smooth forces with
    the trapezoid of the Coulomb terms (the arms' surface friction, the
    stage's rail level) folded into the velocity updates: the predictor
    takes their implicit Euler step at the start state, a clamp of the
    friction force onto [-F, F], and the corrector half of that impulse and
    the implicit step of the other half at the predicted end state; a
    substep whose ends straddle the surface is split at the onset.  The
    kernel's entries are written out in the loop, not read from ``terms``.
    It is called as ``(q, qd, tau, env, disturbance, t, dt, n_sub) -> (q,
    qd)`` with q, qd and the commanded torque as lists of floats, one entry
    per joint.  Each model constructor builds its kernel and its loop.
    """

    dof: int
    terms: Callable[..., tuple]
    _advance: Callable[..., tuple] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.dof not in _LAYOUT:
            raise ValueError(f"dof must be 1 or 2, got {self.dof}")
        if not callable(self._advance):
            raise TypeError("a plant model needs its period loop, _advance")

    def _at(self, q: np.ndarray, qd: np.ndarray = (0.0, 0.0)) -> tuple:
        if self.dof == 1:
            return self.terms(float(q[0]), float(qd[0]))
        return self.terms(float(q[0]), float(q[1]), float(qd[0]), float(qd[1]))

    def mass_fn(self, q: np.ndarray) -> np.ndarray:
        t = self._at(q)
        if self.dof == 1:
            return np.array([[t[0]]])
        return np.array([[t[0], t[1]], [t[1], t[2]]])

    def coriolis_fn(self, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        n = self.dof
        c = _LAYOUT[n][0]
        return np.array(self._at(q, qd)[c:c + n * n]).reshape(n, n)

    def gravity_fn(self, q: np.ndarray) -> np.ndarray:
        g = _LAYOUT[self.dof][1]
        return np.array(self._at(q)[g:g + self.dof])

    @property
    def pose_at(self) -> int:
        """Index of ee_x in the kernel tuple: ee_y follows it, then the
        Jacobian's entries row by row (the x row, then the y row) to the end
        of the tuple, so one ``terms`` call gives the runner its kinematics
        as floats."""
        return _LAYOUT[self.dof][2]


def _require_finite_fields(params) -> None:
    """Raise ValueError naming the first field of ``params`` that is not
    finite; a field left at None is skipped."""
    _require_finite(params, *(f.name for f in fields(params)
                              if getattr(params, f.name) is not None))


@dataclass(frozen=True)
class OneDofParams:
    """Rotary arm: uniform link plus a sinusoidal inertia perturbation."""

    m1: float = 5.0
    l1: float = 0.5
    lc1: float | None = None          # defaults to l1 / 2
    mass_ripple: float = 0.2          # sin(q) term added to the inertia
    damping: float = 0.1              # cos(q)-modulated velocity coefficient
    g: float = 9.81

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.m1 <= 0.0 or self.l1 <= 0.0:
            raise ValueError("mass and length must be positive")

    @property
    def com(self) -> float:
        return self.l1 / 2.0 if self.lc1 is None else self.lc1


@dataclass(frozen=True)
class TwoLinkParams:
    """Planar two-link arm; J1/J2 are the link inertias about their own joints."""

    m1: float = 6.0
    m2: float = 9.0
    l1: float = 0.4
    l2: float = 0.6
    J1: float = 0.32
    J2: float = 1.08

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        for v in (self.m1, self.m2, self.l1, self.l2, self.J1, self.J2):
            if v <= 0.0:
                raise ValueError("two-link parameters must be positive")


@dataclass(frozen=True)
class LinearMotorParams:
    """Vertical linear stage; rail friction is a bounded disturbance."""

    mass: float = 0.25                # moving stage, kg
    viscous: float = 0.0              # plant-side viscous coefficient, N s/m
    kappa: float = 1.0                # driver gain, command -> force
    friction_coulomb: float = 1.0     # N
    friction_viscous: float = 5.0     # N s/m
    g: float = 9.81

    def __post_init__(self) -> None:
        _require_finite_fields(self)
        if self.mass <= 0.0 or self.viscous < 0.0:
            raise ValueError("mass must be positive and viscous nonnegative")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.friction_coulomb < 0.0 or self.friction_viscous < 0.0:
            raise ValueError("friction_coulomb and friction_viscous must be nonnegative")


@dataclass(frozen=True)
class EnvironmentModel:
    """Unilateral spring surface at height y_s with Coulomb friction."""

    k_s: float = 0.0                  # N/m
    y_s: float = 0.0                  # m
    mu_fric: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "k_s", "y_s", "mu_fric")
        if self.k_s < 0.0 or self.mu_fric < 0.0:
            raise ValueError("stiffness and friction coefficient must be nonnegative")


@dataclass
class PlantState:
    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        self.qd = np.atleast_1d(np.asarray(self.qd, dtype=float))


def _plant_state(q: np.ndarray, qd: np.ndarray) -> PlantState:
    """``PlantState(q, qd)`` without ``__post_init__``, for the float vectors
    a period loop returns: the public constructor would convert them again."""
    obj = object.__new__(PlantState)
    obj.q = q
    obj.qd = qd
    return obj


class SimulationBlowUp(RuntimeError):
    """Non-finite plant state; carries the failing step index and time."""

    def __init__(self, step: int, t: float):
        super().__init__(f"simulation state became non-finite at step {step} (t = {t:.6f} s)")
        self.step = step
        self.t = t


def _scalar_period(accel, q: float, qd: float, t: float, dt: float, n_sub: int) -> tuple:
    """``n_sub`` substeps of a one-joint plant from (q, qd) at t.

    ``accel(q, qd, t)`` gives (a, fy, g): the acceleration of every force but
    the Coulomb term, the normal contact force, and the rate g = F |j| / m at
    which the Coulomb level F, acting through the tangential Jacobian entry
    j on the inertia m, can change the joint rate (0 where no Coulomb term
    acts).  Each substep is a Heun step with the trapezoid of the Coulomb
    term folded into its velocity updates.  The predictor takes its implicit
    Euler step at the start state, the impulse dt * fx with fx = clamp(-j qd
    / (dt w), -F, F) and w = j^2 / m, which on one joint is qd - clamp(qd,
    -dt g, dt g), so w = 0 (j = 0) divides nothing.  The corrector adds half
    of that impulse as it is, then clamps the other half implicitly at the
    predicted end state, with level dt g / 2: in slip the impulse is the
    trapezoid of the start and end levels (second order), and a sticking
    contact still ends the substep at rest.  Positions advance by the
    trapezoid of the clamped rates.  A substep whose two ends straddle the
    surface (fy > 0 at one end only) is split at the onset the secant of fy
    locates, and each part is stepped alone.
    """
    def heun(q, qd, t, dt, a0, g0):
        u = v = qd + dt * a0
        lim = dt * g0
        if lim > 0.0:
            v = u - lim if u > lim else u + lim if u < -lim else 0.0 * u
        half = 0.5 * dt
        a1, _, g1 = accel(q + half * (qd + v), v, t + dt)
        # half the predictor's Coulomb impulse v - u, the other half clamped
        # at the predicted end state
        v = qd + half * (a0 + a1) + 0.5 * (v - u)
        lim = half * g1
        if lim > 0.0:
            v = v - lim if v > lim else v + lim if v < -lim else 0.0 * v
        return q + half * (qd + v), v

    a, fy, g = accel(q, qd, t)
    for _ in range(n_sub):
        qn, vn = heun(q, qd, t, dt, a, g)
        an, fyn, gn = accel(qn, vn, t + dt)
        if (fy > 0.0) != (fyn > 0.0):
            theta = fy / (fy - fyn)
            if 0.0 < theta < 1.0:
                d = theta * dt
                qa, va = heun(q, qd, t, d, a, g)
                aa, _, ga = accel(qa, va, t + d)
                qn, vn = heun(qa, va, t + d, dt - d, aa, ga)
                an, fyn, gn = accel(qn, vn, t + dt)
        q, qd, a, fy, g = qn, vn, an, fyn, gn
        t += dt
    return [q], [qd]


def one_dof_model(params: OneDofParams = OneDofParams()) -> ManipulatorModel:
    p = params
    lc = p.com
    js = p.m1 * p.l1 * p.l1 / 3.0
    # the parameter-only parts of each entry, folded in their evaluation order
    # so that every entry keeps its bits
    sin, cos = math.sin, math.cos
    m0, ripple, damping = js + p.m1 * lc * lc, p.mass_ripple, p.damping
    mgl, l1, nl1 = p.m1 * p.g * lc, p.l1, -p.l1

    def terms(q: float, qd: float) -> tuple:
        s, c = sin(q), cos(q)
        m = m0 + ripple * s
        if m <= 0.0:
            raise ValueError(f"inertia lost positivity at q = {q:.4f}")
        return m, damping * c, mgl * c, l1 * c, l1 * s, nl1 * s, l1 * c

    def advance(q, qd, tau, env, disturbance, t, dt, n_sub):
        (q,), (qd,), (tau,) = q, qd, tau
        ks, ys, mu = env.k_s, env.y_s, env.mu_fric

        def accel(q, qd, t):
            s, c = sin(q), cos(q)
            m = m0 + ripple * s
            if m <= 0.0:
                raise ValueError(f"inertia lost positivity at q = {q:.4f}")
            r = tau - damping * c * qd - mgl * c
            if disturbance is not None:
                r += disturbance(t, q, qd)
            p1 = l1 * s
            fy = ks * (ys - p1)
            if fy > 0.0:
                # J = (-l1 sin q, l1 cos q): the normal force's torque, and
                # the surface friction mu fy through |jx| = |l1 sin q|
                return (r + l1 * c * fy) / m, fy, mu * fy * abs(p1) / m
            return r / m, fy, 0.0

        return _scalar_period(accel, q, qd, t, dt, n_sub)

    return ManipulatorModel(1, terms, _advance=advance)


def _coulomb_impulse(v1: float, v2: float, coulomb: tuple, dt: float) -> tuple:
    """Two joint rates after the implicit Euler step of a Coulomb term over
    dt: the impulse dt * fx along b = M^-1 j^T, fx = clamp(-j v / (dt w), -F,
    F) with w = j b > 0, so the tangential rate j v ends at 0 where |j v| <=
    dt F w (stick) and the force is +-F otherwise (slip).  The two-link
    substep takes it over its whole step at the start state and over half
    of it at the predicted end state, the trapezoid of the friction."""
    j1, j2, b1, b2, w, f = coulomb
    lim = dt * f
    imp = -(j1 * v1 + j2 * v2) / w
    imp = lim if imp > lim else -lim if imp < -lim else imp
    return v1 + b1 * imp, v2 + b2 * imp


def two_link_model(params: TwoLinkParams = TwoLinkParams()) -> ManipulatorModel:
    p = params
    lc1, lc2 = p.l1 / 2.0, p.l2 / 2.0
    ic1 = p.J1 - p.m1 * lc1 * lc1      # inertia about the link's own COM
    ic2 = p.J2 - p.m2 * lc2 * lc2
    # the parameter-only parts of each entry, folded in their evaluation order
    # so that every entry keeps its bits:
    #   m11 = m1 lc1^2 + ic1 + ic2 + m2 (l1^2 + lc2^2 + 2 l1 lc2 cos q2)
    #   m12 = m2 (lc2^2 + l1 lc2 cos q2) + ic2,   m22 = m2 lc2^2 + ic2
    sin, cos = math.sin, math.cos
    m2, l1, l2, nl1, nl2 = p.m2, p.l1, p.l2, -p.l1, -p.l2
    a11, b11, d11 = p.m1 * lc1 * lc1 + ic1 + ic2, p.l1 * p.l1 + lc2 * lc2, 2.0 * p.l1 * lc2
    b12, d12 = lc2 * lc2, p.l1 * lc2
    m22 = p.m2 * lc2 * lc2 + ic2
    hk = -p.m2 * p.l1 * lc2

    def terms(q1: float, q2: float, qd1: float, qd2: float) -> tuple:
        s1, c1 = sin(q1), cos(q1)
        s12, c12 = sin(q1 + q2), cos(q1 + q2)
        c2 = cos(q2)
        # Christoffel form, so dM/dt - 2C stays skew-symmetric; horizontal-plane
        # arm, so gravity acts along the joint axes and drops out
        hh = hk * sin(q2)
        ex = l1 * c1 + l2 * c12
        return (a11 + m2 * (b11 + d11 * c2), m2 * (b12 + d12 * c2) + ic2, m22,
                hh * qd2, hh * (qd1 + qd2), -hh * qd1, 0.0, 0.0, 0.0,
                ex, l1 * s1 + l2 * s12, nl1 * s1 - l2 * s12, nl2 * s12, ex, l2 * c12)

    def advance(q, qd, tau, env, disturbance, t, dt, n_sub):
        if disturbance is not None:
            raise ValueError("disturbance forces act on one-joint plants only")
        (q1, q2), (qd1, qd2), (tau1, tau2) = q, qd, tau
        ks, ys, mu = env.k_s, env.y_s, env.mu_fric

        def accel(q1, q2, qd1, qd2):
            """(a1, a2, fy, Coulomb term or None) at the state: the joint
            accelerations of every force but the surface friction, the
            normal contact force and, in contact with mu > 0, (j11, j12, b1,
            b2, w, mu fy) for the tangential row j, b = M^-1 j^T and w = j b."""
            q12 = q1 + q2
            s1, s12, c2 = sin(q1), sin(q12), cos(q2)
            hh = hk * sin(q2)
            p2 = l2 * s12
            # C qd with C = [[hh qd2, hh (qd1 + qd2)], [-hh qd1, 0]]; G = 0
            r1 = tau1 - hh * qd2 * qd1 - hh * (qd1 + qd2) * qd2
            r2 = tau2 + hh * qd1 * qd1
            m11 = a11 + m2 * (b11 + d11 * c2)
            m12 = m2 * (b12 + d12 * c2) + ic2
            det = m11 * m22 - m12 * m12
            fy = ks * (ys - (l1 * s1 + p2))
            coulomb = None
            if fy > 0.0:
                # the Jacobian, needed only in contact (j21 is ee_x and j22
                # its l2 cos(q1 + q2))
                j22 = l2 * cos(q12)
                r1 += (l1 * cos(q1) + j22) * fy
                r2 += j22 * fy
                if mu > 0.0:
                    j11, j12 = nl1 * s1 - p2, -p2
                    b1 = (m22 * j11 - m12 * j12) / det
                    b2 = (m11 * j12 - m12 * j11) / det
                    w = j11 * b1 + j12 * b2
                    if w > 0.0:     # w = 0: the friction cannot act
                        coulomb = (j11, j12, b1, b2, w, mu * fy)
            return (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det, fy, coulomb

        def heun(q1, q2, qd1, qd2, dt, st):
            # one Heun substep from the state whose accel() is st, the
            # trapezoid of the surface friction folded into its velocity
            # updates
            a1, a2, _, co = st
            u1, u2 = v1, v2 = qd1 + dt * a1, qd2 + dt * a2
            if co is not None:
                v1, v2 = _coulomb_impulse(u1, u2, co, dt)
            half = 0.5 * dt
            e1, e2, _, co = accel(q1 + half * (qd1 + v1), q2 + half * (qd2 + v2), v1, v2)
            # half the predictor's friction impulse v - u as it was, the other
            # half clamped along the predicted end state's row
            v1 = qd1 + half * (a1 + e1) + 0.5 * (v1 - u1)
            v2 = qd2 + half * (a2 + e2) + 0.5 * (v2 - u2)
            if co is not None:
                v1, v2 = _coulomb_impulse(v1, v2, co, half)
            return q1 + half * (qd1 + v1), q2 + half * (qd2 + v2), v1, v2

        st = accel(q1, q2, qd1, qd2)
        for _ in range(n_sub):
            n1, n2, w1, w2 = heun(q1, q2, qd1, qd2, dt, st)
            sn = accel(n1, n2, w1, w2)
            fy, fyn = st[2], sn[2]
            if (fy > 0.0) != (fyn > 0.0):
                theta = fy / (fy - fyn)
                if 0.0 < theta < 1.0:
                    d = theta * dt
                    n1, n2, w1, w2 = heun(q1, q2, qd1, qd2, d, st)
                    n1, n2, w1, w2 = heun(n1, n2, w1, w2, dt - d, accel(n1, n2, w1, w2))
                    sn = accel(n1, n2, w1, w2)
            q1, q2, qd1, qd2, st = n1, n2, w1, w2, sn
        return [q1, q2], [qd1, qd2]

    return ManipulatorModel(2, terms, _advance=advance)


def linear_motor_model(params: LinearMotorParams = LinearMotorParams()) -> ManipulatorModel:
    """Vertical stage; its period loop applies the drive gain kappa to the
    command and the rail friction, a Coulomb level plus a viscous term."""
    p = params
    mass, viscous, weight, kappa = p.mass, p.viscous, p.mass * p.g, p.kappa
    rail_viscous = p.friction_viscous
    # the rate at which the rail's Coulomb level can change the stage's speed
    rail_rate = p.friction_coulomb / p.mass

    def terms(q: float, qd: float) -> tuple:
        return mass, viscous, weight, 0.0, q, 0.0, 1.0

    def advance(q, qd, tau, env, disturbance, t, dt, n_sub):
        (q,), (qd,), (tau,) = q, qd, tau
        gt = kappa * tau
        ks, ys = env.k_s, env.y_s

        def accel(q, qd, t):
            # Jacobian (0, 1): the surface's tangential friction acts across
            # the rail, so the contact force is the normal spring alone
            r = gt - rail_viscous * qd - viscous * qd - weight
            if disturbance is not None:
                r += disturbance(t, q, qd)
            fy = ks * (ys - q)
            if fy > 0.0:
                r += fy
            return r / mass, fy, rail_rate

        return _scalar_period(accel, q, qd, t, dt, n_sub)

    return ManipulatorModel(1, terms, _advance=advance)


def contact_wrench(ee_pos: tuple[float, float], ee_vel: tuple[float, float],
                   env: EnvironmentModel) -> tuple[float, float]:
    """Planar contact force at the end-effector.

    Normal component fy = max(0, k_s*(y_s - y)) is the unilateral spring;
    tangential fx = -mu*fy*sign(xdot) is Coulomb friction, zero out of contact.
    """
    fy = max(0.0, env.k_s * (env.y_s - ee_pos[1]))
    if fy == 0.0:
        return 0.0, 0.0
    fx = -env.mu_fric * fy * sign0(ee_vel[0])
    return fx, fy


def integrate_substep(model: ManipulatorModel, state: PlantState, tau_held: np.ndarray,
                      env: EnvironmentModel, disturbance: Disturbance | None,
                      t: float, dt_sub: float, n_sub: int) -> PlantState:
    """Advance the plant by n_sub substeps of dt_sub under held torque.

    Each substep is a Heun step with the trapezoid of the Coulomb terms,
    each end clamped implicitly, split where it crosses the surface (see
    ``ManipulatorModel``); the contact forces are re-evaluated at each
    stage.  The commanded torque is a zero-order hold over the whole
    controller period.  A ``disturbance`` acts on one-joint plants only.
    The substeps are the model's own period loop.  A ``tau_held`` of another
    entry count than the plant's joints raises ValueError.
    """
    tau = tau_held.tolist()
    if len(tau) != model.dof:
        raise ValueError(f"tau_held has {len(tau)} entries but the plant has {model.dof} joint(s)")
    q, qd = model._advance(state.q.tolist(), state.qd.tolist(), tau, env, disturbance, t,
                           dt_sub, n_sub)
    if not all(map(math.isfinite, q + qd)):
        raise SimulationBlowUp(step=-1, t=t)
    return _plant_state(np.array(q), np.array(qd))
