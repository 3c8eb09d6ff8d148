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
from numbers import Real
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
    """Plant interface: one float dynamics kernel and its substep.

    ``terms`` is the dynamics kernel.  For one joint it maps floats (q, qd)
    to (m, c, g, ee_x, ee_y, jac_x, jac_y); for two joints it maps
    (q1, q2, qd1, qd2) to (m11, m12, m22, c11, c12, c21, c22, g1, g2, ee_x,
    ee_y, j11, j12, j21, j22).  ``mass_fn``, ``coriolis_fn`` and
    ``gravity_fn`` are array views of the same tuple (the exact estimate
    takes them); the runner reads the pose and the Jacobian from the tuple
    itself, from ``pose_at`` on.  The Jacobian maps joint rates to the
    planar end-effector velocity (2 x dof).  The plant integrates whatever
    torque it is given: the torque box belongs to the controller.

    ``_substep(tau, env, disturbance)`` binds the plant's substep to one
    period's torque (a list of floats): it returns ``(forces, heun)``, the
    force evaluation ``forces(q..., qd..., t)`` with the kernel written out
    inline, and the plant's Heun body.  ``_event_located`` runs the two and
    describes the scheme.
    """

    dof: int
    terms: Callable[..., tuple]
    _substep: Callable[..., tuple] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.dof not in _LAYOUT:
            raise ValueError(f"dof must be 1 or 2, got {self.dof}")
        if not callable(self._substep):
            raise TypeError("a plant model needs its substep, _substep")

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
    ``integrate_substep`` builds: the public constructor would convert them
    again."""
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


def _event_located(forces, heun, p: tuple, t: float, dt: float, n_sub: int) -> tuple:
    """``n_sub`` substeps of dt from the plant's evaluation ``p`` at time t,
    the one loop of every plant; returns the last end state's evaluation.

    An evaluation ``forces(q..., qd..., t)`` is a tuple: the normal contact
    force fy, what the plant's ``heun`` reads (the accelerations of every
    force but the Coulomb terms, and those terms), then q and qd.  The call
    ``heun(forces, p, dt, tp, te)`` steps dt from p's state, evaluates the
    predicted end state at time tp and returns the corrected one's
    evaluation at te, which the next substep starts from.

    Each substep is a Heun (explicit trapezoid) step of the smooth forces,
    with the trapezoid of the Coulomb terms (the arms' surface friction, the
    stage's rail level) folded into its velocity updates.  The predictor
    takes their implicit Euler step at the start state: the impulse dt * fx
    along b = M^-1 j^T of the tangential row j, fx = clamp(-j qd / (dt w),
    -F, F) with w = j b, so the tangential rate ends at 0 where |j qd| <= dt
    F w (stick) and the force is +-F otherwise (slip).  The corrector adds
    half of that impulse as it is, then clamps the other half implicitly at
    the predicted end state, with level dt F / 2: in slip the impulse is the
    trapezoid of the start and end levels (second order), and a sticking
    contact still ends the substep at rest.  Positions advance by the
    trapezoid of the clamped rates.  A substep whose two ends straddle the
    surface (fy > 0 at one end only) is split at the onset d the secant of
    fy locates, and each part is stepped alone, the second ending at t + dt.
    """
    fy = p[0]
    for _ in range(n_sub):
        te = t + dt
        pn = heun(forces, p, dt, te, te)
        fyn = pn[0]
        if (fy > 0.0) != (fyn > 0.0):
            theta = fy / (fy - fyn)
            if 0.0 < theta < 1.0:
                d = theta * dt
                td = t + d
                pn = heun(forces, heun(forces, p, d, td, td), dt - d, td + (dt - d), te)
                fyn = pn[0]
        p, fy, t = pn, fyn, te
    return p


def _scalar_heun(forces, p: tuple, dt: float, tp: float, te: float) -> tuple:
    """The one-joint substep of ``_event_located`` over ``forces(q, qd, t) ->
    (fy, a, g, q, qd)``, with g = F |j| / m the rate at which the Coulomb
    level F through the tangential Jacobian entry j can change the joint
    rate (0 where no Coulomb term acts).  On one joint the clamped impulse
    is qd - clamp(qd, -dt g, dt g), so j = 0 divides nothing."""
    _, a0, g0, q, qd = p
    u = v = qd + dt * a0
    lim = dt * g0
    if lim > 0.0:
        v = u - lim if u > lim else u + lim if u < -lim else 0.0 * u
    half = 0.5 * dt
    _, a1, g1, _, _ = forces(q + half * (qd + v), v, tp)
    # half the predictor's Coulomb impulse v - u, the other half clamped at
    # the predicted end state
    v = qd + half * (a0 + a1) + 0.5 * (v - u)
    lim = half * g1
    if lim > 0.0:
        v = v - lim if v > lim else v + lim if v < -lim else 0.0 * v
    return forces(q + half * (qd + v), v, te)


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

    def substep(tau, env, disturbance):
        tau, ks, ys, mu = tau[0], env.k_s, env.y_s, env.mu_fric

        def forces(q, qd, t):
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
                return fy, (r + l1 * c * fy) / m, mu * fy * abs(p1) / m, q, qd
            return fy, r / m, 0.0, q, qd

        return forces, _scalar_heun

    return ManipulatorModel(1, terms, _substep=substep)


def _coulomb_impulse(v1: float, v2: float, coulomb: tuple, dt: float) -> tuple:
    """Two joint rates after the implicit Euler step of a Coulomb term over
    dt, ``coulomb = (j1, j2, b1, b2, w, F)``: the impulse clamp(-j v / w, -dt
    F, dt F) along b = M^-1 j^T, w = j b > 0 (see ``_event_located``)."""
    j1, j2, b1, b2, w, f = coulomb
    lim = dt * f
    imp = -(j1 * v1 + j2 * v2) / w
    imp = lim if imp > lim else -lim if imp < -lim else imp
    return v1 + b1 * imp, v2 + b2 * imp


def _two_link_heun(forces, p: tuple, dt: float, tp: float, te: float) -> tuple:
    """The two-link substep of ``_event_located`` over ``forces(q1, q2, qd1,
    qd2, t) -> (fy, a1, a2, Coulomb term or None, q1, q2, qd1, qd2)``."""
    _, a1, a2, co, q1, q2, qd1, qd2 = p
    u1, u2 = v1, v2 = qd1 + dt * a1, qd2 + dt * a2
    if co is not None:
        v1, v2 = _coulomb_impulse(u1, u2, co, dt)
    half = 0.5 * dt
    _, e1, e2, co, _, _, _, _ = forces(q1 + half * (qd1 + v1), q2 + half * (qd2 + v2), v1, v2, tp)
    # half the predictor's friction impulse v - u as it was, the other half
    # clamped along the predicted end state's row
    v1 = qd1 + half * (a1 + e1) + 0.5 * (v1 - u1)
    v2 = qd2 + half * (a2 + e2) + 0.5 * (v2 - u2)
    if co is not None:
        v1, v2 = _coulomb_impulse(v1, v2, co, half)
    return forces(q1 + half * (qd1 + v1), q2 + half * (qd2 + v2), v1, v2, te)


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

    def substep(tau, env, disturbance):
        if disturbance is not None:
            raise ValueError("disturbance forces act on one-joint plants only")
        (tau1, tau2), ks, ys, mu = tau, env.k_s, env.y_s, env.mu_fric

        def forces(q1, q2, qd1, qd2, t):
            """(fy, a1, a2, Coulomb term or None, q1, q2, qd1, qd2); the
            term, in contact with mu > 0, is (j11, j12, b1, b2, w, mu fy) for
            the tangential row j; t is unused (no disturbance acts)."""
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
            return (fy, (m22 * r1 - m12 * r2) / det, (m11 * r2 - m12 * r1) / det, coulomb,
                    q1, q2, qd1, qd2)

        return forces, _two_link_heun

    return ManipulatorModel(2, terms, _substep=substep)


def linear_motor_model(params: LinearMotorParams = LinearMotorParams()) -> ManipulatorModel:
    """Vertical stage; its force evaluation applies the drive gain kappa to the
    command and the rail friction, a Coulomb level plus a viscous term."""
    p = params
    mass, viscous, weight, kappa = p.mass, p.viscous, p.mass * p.g, p.kappa
    rail_viscous = p.friction_viscous
    # the rate at which the rail's Coulomb level can change the stage's speed
    rail_rate = p.friction_coulomb / p.mass

    def terms(q: float, qd: float) -> tuple:
        return mass, viscous, weight, 0.0, q, 0.0, 1.0

    def substep(tau, env, disturbance):
        gt, ks, ys = kappa * tau[0], env.k_s, env.y_s

        def forces(q, qd, t):
            # Jacobian (0, 1): the surface's tangential friction acts across
            # the rail, so the contact force is the normal spring alone
            r = gt - rail_viscous * qd - viscous * qd - weight
            if disturbance is not None:
                r += disturbance(t, q, qd)
            fy = ks * (ys - q)
            if fy > 0.0:
                r += fy
            return fy, r / mass, rail_rate, q, qd

        return forces, _scalar_heun

    return ManipulatorModel(1, terms, _substep=substep)


def contact_wrench(ee_pos: tuple[float, float], ee_vel: tuple[float, float],
                   env: EnvironmentModel) -> tuple[float, float]:
    """Planar contact force at the end-effector, as the runner measures it.

    Normal component fy = max(0, k_s*(y_s - y)) is the unilateral spring;
    tangential fx = -mu*fy*sign(xdot) is the slip law of Coulomb friction,
    zero out of contact.  It is the friction the plant applies only in slip:
    in stick the plant applies the implicit clamp of ``_event_located``,
    anywhere in [-mu*fy, mu*fy], and fx differs from it (on fig5, 1420 of
    the 4409 in-contact steps follow a period whose last clamp sticks).
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

    Runs ``_event_located`` with the model's force evaluation and substep;
    the commanded torque is a zero-order hold over the whole controller period.
    A ``disturbance`` acts on one-joint plants only.  A ``tau_held``,
    ``state.q`` or ``state.qd`` of another entry count than the plant's
    joints, a ``dt_sub`` that is not a positive and finite real number (a
    bool is not one), and an ``n_sub`` that is not an integer >= 1 raise
    ValueError naming the argument.
    """
    n = model.dof
    tau, q, qd = tau_held.tolist(), state.q.tolist(), state.qd.tolist()
    if len(tau) != n or len(q) != n or len(qd) != n:
        for name, v in (("tau_held", tau), ("state.q", q), ("state.qd", qd)):
            if len(v) != n:
                raise ValueError(f"{name} has {len(v)} entries but the plant has {n} joint(s)")
    # a float skips the isinstance check against the numbers ABC, which is slow
    if (type(dt_sub) is not float and (type(dt_sub) is bool or not isinstance(dt_sub, Real))
            or not 0.0 < dt_sub < math.inf):
        raise ValueError(f"dt_sub must be positive and finite, got {dt_sub!r}")
    if not (type(n_sub) is int or isinstance(n_sub, np.integer)) or n_sub < 1:
        raise ValueError(f"n_sub must be an integer >= 1, got {n_sub!r}")
    forces, heun = model._substep(tau, env, disturbance)
    # the start state's evaluation (a star call would build its arguments)
    p = forces(q[0], qd[0], t) if n == 1 else forces(q[0], q[1], qd[0], qd[1], t)
    x = _event_located(forces, heun, p, t, dt_sub, n_sub)[-2 * n:]
    if not all(map(math.isfinite, x)):
        raise SimulationBlowUp(step=-1, t=t)
    return _plant_state(np.array(x[:n]), np.array(x[n:]))
