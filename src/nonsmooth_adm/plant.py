"""Simulated plants and contact environments.

Three plants are provided: a one-joint rotary arm with an uncertain inertia
term, a planar two-link arm (horizontal plane, so gravity acts out of plane),
and a vertical linear motor stage (the double integrator is that stage with
no friction, viscosity or gravity).  The environment is a unilateral linear
spring surface with Coulomb friction along the tangential direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .setvalued import _require_finite, _unchecked, sign0

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
    "linear_motor_friction",
    "double_integrator_model",
    "contact_wrench",
    "joint_contact_torque",
    "forward_dynamics",
    "integrate_substep",
]


# unmeasured bounded generalized force fe(t, q, qd) on a one-joint plant, floats
Disturbance = Callable[[float, float, float], float]

# offsets of the Coriolis, gravity, end-effector pose and Jacobian entries in
# the kernel tuple, by dof (the mass entries come first)
_LAYOUT = {1: (1, 2, 3, 5), 2: (3, 7, 9, 11)}


@dataclass(frozen=True)
class ManipulatorModel:
    """Plant interface: one float dynamics kernel and its period loop.

    ``terms`` is the dynamics kernel.  For one joint it maps floats (q, qd)
    to (m, c, g, ee_x, ee_y, jac_x, jac_y); for two joints it maps
    (q1, q2, qd1, qd2) to (m11, m12, m22, c11, c12, c21, c22, g1, g2, ee_x,
    ee_y, j11, j12, j21, j22).  The ``*_fn`` methods are array views of the
    same tuple.  The Jacobian maps joint rates to the planar end-effector
    velocity (2 x dof).  ``input_gain`` scales the commanded torque before it
    enters the dynamics (drive gain; 1 for the arms).  The plant integrates
    whatever torque it is given: the torque box belongs to the controller.

    ``_advance`` is the plant's controller period: ``n_sub`` semi-implicit
    Euler substeps on floats, the kernel's entries written out in its own
    evaluation order so that every float keeps the bits a loop over
    ``terms`` gives.  For one joint it is called as
    ``(q, qd, gain * tau, env, disturbance, t, dt, n_sub) -> (q, qd)``; for
    two as ``(q1, q2, qd1, qd2, gain * tau1, gain * tau2, env, dt, n_sub)
    -> (q1, q2, qd1, qd2)``.  Each model constructor builds both.
    """

    dof: int
    terms: Callable[..., tuple]
    input_gain: float = 1.0
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

    def ee_pose_fn(self, q: np.ndarray) -> tuple[float, float]:
        e = _LAYOUT[self.dof][2]
        t = self._at(q)
        return t[e], t[e + 1]

    def jacobian_fn(self, q: np.ndarray) -> np.ndarray:
        return self._pose_jacobian(q)[1]

    def _pose_jacobian(self, q: np.ndarray) -> tuple[tuple[float, float], np.ndarray]:
        """``(ee_pose_fn(q), jacobian_fn(q))`` from one kernel call."""
        e, j = _LAYOUT[self.dof][2:]
        t = self._at(q)
        return (t[e], t[e + 1]), np.array(t[j:]).reshape(2, self.dof)


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


class SimulationBlowUp(RuntimeError):
    """Non-finite plant state; carries the failing step index and time."""

    def __init__(self, step: int, t: float):
        super().__init__(f"simulation state became non-finite at step {step} (t = {t:.6f} s)")
        self.step = step
        self.t = t


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

    def advance(q, qd, gt, env, disturbance, t, dt, n_sub):
        ks, ys, nmu = env.k_s, env.y_s, -env.mu_fric
        for _ in range(n_sub):
            s, c = sin(q), cos(q)
            m = m0 + ripple * s
            if m <= 0.0:
                raise ValueError(f"inertia lost positivity at q = {q:.4f}")
            fc = 0.0
            fy = ks * (ys - l1 * s)
            if fy > 0.0:
                jx = nl1 * s
                v = jx * qd   # Coulomb friction: -mu * fy * sign0(v)
                fx = nmu * fy * (1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0)
                fc = jx * fx + l1 * c * fy
            fe = disturbance(t, q, qd) if disturbance is not None else 0.0
            qd += dt * (gt + fc + fe - damping * c * qd - mgl * c) / m
            q += dt * qd
            t += dt
        return q, qd

    return ManipulatorModel(1, terms, _advance=advance)


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

    def advance(q1, q2, qd1, qd2, g1t, g2t, env, dt, n_sub):
        ks, ys, nmu = env.k_s, env.y_s, -env.mu_fric
        for _ in range(n_sub):
            q12 = q1 + q2
            s1, s12, c2 = sin(q1), sin(q12), cos(q2)
            hh = hk * sin(q2)
            fc1 = fc2 = 0.0
            fy = ks * (ys - (l1 * s1 + l2 * s12))
            if fy > 0.0:
                # the Jacobian, needed only in contact
                c12 = cos(q12)
                j11, j12, j22 = nl1 * s1 - l2 * s12, nl2 * s12, l2 * c12
                v = j11 * qd1 + j12 * qd2   # Coulomb friction: -mu * fy * sign0(v)
                fx = nmu * fy * (1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0)
                fc1 = j11 * fx + (l1 * cos(q1) + l2 * c12) * fy
                fc2 = j12 * fx + j22 * fy
            # C qd with C = [[hh qd2, hh (qd1 + qd2)], [-hh qd1, 0]]; G = 0
            r1 = g1t + fc1 - hh * qd2 * qd1 - hh * (qd1 + qd2) * qd2 - 0.0
            r2 = g2t + fc2 - -hh * qd1 * qd1 - 0.0 * qd2 - 0.0
            m11 = a11 + m2 * (b11 + d11 * c2)
            m12 = m2 * (b12 + d12 * c2) + ic2
            det = m11 * m22 - m12 * m12
            qd1 += dt * (m22 * r1 - m12 * r2) / det
            qd2 += dt * (m11 * r2 - m12 * r1) / det
            q1 += dt * qd1
            q2 += dt * qd2
        return q1, q2, qd1, qd2

    return ManipulatorModel(2, terms, _advance=advance)


def linear_motor_model(params: LinearMotorParams = LinearMotorParams()) -> ManipulatorModel:
    """Vertical stage; its period loop applies the rail friction of
    ``linear_motor_friction(params)``, added after any other disturbance."""
    p = params
    mass, viscous, weight = p.mass, p.viscous, p.mass * p.g
    coulomb, rail_viscous = p.friction_coulomb, p.friction_viscous

    def terms(q: float, qd: float) -> tuple:
        return mass, viscous, weight, 0.0, q, 0.0, 1.0

    def advance(q, qd, gt, env, disturbance, t, dt, n_sub):
        ks, ys = env.k_s, env.y_s
        for _ in range(n_sub):
            # Jacobian (0, 1): the surface's tangential friction acts across
            # the rail, so the contact force is the normal spring alone
            fy = ks * (ys - q)
            fc = fy if fy > 0.0 else 0.0
            fe = -(coulomb * (1.0 if qd > 0.0 else -1.0 if qd < 0.0 else 0.0) + rail_viscous * qd)
            if disturbance is not None:
                fe = disturbance(t, q, qd) + fe
            qd += dt * (gt + fc + fe - viscous * qd - weight) / mass
            q += dt * qd
            t += dt
        return q, qd

    return ManipulatorModel(1, terms, input_gain=p.kappa, _advance=advance)


def linear_motor_friction(params: LinearMotorParams) -> Disturbance:
    """Rail friction and cogging stand-in: Coulomb level plus viscous term."""
    coulomb, viscous = params.friction_coulomb, params.friction_viscous

    def fe(t: float, q: float, qd: float) -> float:
        # sign0(qd) inline: this runs every substep
        return -(coulomb * (1.0 if qd > 0.0 else -1.0 if qd < 0.0 else 0.0) + viscous * qd)

    return fe


def double_integrator_model(mass: float = 1.0) -> ManipulatorModel:
    """Frictionless unit stage used by the inner-loop benchmarks: the linear
    stage with no friction, viscosity or gravity and unit drive gain."""
    return linear_motor_model(LinearMotorParams(mass=mass, viscous=0.0, kappa=1.0,
                                                friction_coulomb=0.0, friction_viscous=0.0,
                                                g=0.0))


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


def joint_contact_torque(model: ManipulatorModel, q: np.ndarray,
                         wrench: tuple[float, float]) -> np.ndarray:
    """Map a planar end-effector wrench to joint space through J^T."""
    jac = model.jacobian_fn(q)
    w = np.asarray(wrench, dtype=float)
    if w.shape[0] != jac.shape[0]:
        raise ValueError("wrench dimension does not match the Jacobian rows")
    return jac.T @ w


def forward_dynamics(model: ManipulatorModel, state: PlantState, tau: np.ndarray,
                     fc: np.ndarray, fe: np.ndarray) -> np.ndarray:
    """Joint accelerations: M^{-1} (gain*tau + fc + fe - C qd - G)."""
    M = model.mass_fn(state.q)
    C = model.coriolis_fn(state.q, state.qd)
    G = model.gravity_fn(state.q)
    return np.linalg.solve(M, model.input_gain * tau + fc + fe - C @ state.qd - G)


def integrate_substep(model: ManipulatorModel, state: PlantState, tau_held: np.ndarray,
                      env: EnvironmentModel, disturbance: Disturbance | None,
                      t: float, dt_sub: float, n_sub: int) -> PlantState:
    """Advance the plant by n_sub semi-implicit Euler substeps under held torque.

    The contact wrench is re-evaluated every substep; the commanded torque is a
    zero-order hold over the whole controller period.  A ``disturbance`` acts
    on one-joint plants only.  The substeps are the model's own period loop.
    """
    gain = model.input_gain
    if model.dof == 1:
        q1, qd1 = model._advance(float(state.q[0]), float(state.qd[0]),
                                 gain * float(tau_held[0]), env, disturbance, t, dt_sub, n_sub)
        if not (math.isfinite(q1) and math.isfinite(qd1)):
            raise SimulationBlowUp(step=-1, t=t)
        return _unchecked(PlantState, q=np.array([q1]), qd=np.array([qd1]))

    if disturbance is not None:
        raise ValueError("disturbance forces act on one-joint plants only")
    q1, q2, qd1, qd2 = model._advance(
        float(state.q[0]), float(state.q[1]), float(state.qd[0]), float(state.qd[1]),
        gain * float(tau_held[0]), gain * float(tau_held[1]), env, dt_sub, n_sub)
    if not (math.isfinite(q1) and math.isfinite(q2) and math.isfinite(qd1)
            and math.isfinite(qd2)):
        raise SimulationBlowUp(step=-1, t=t)
    return _unchecked(PlantState, q=np.array([q1, q2]), qd=np.array([qd1, qd2]))
