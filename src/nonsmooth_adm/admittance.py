"""Discrete-time set-valued admittance controller.

One controller period performs, in order: proxy prediction from the measured
and desired forces, sliding-variable construction against the predicted proxy,
the robust inner-loop torque candidate, exact projection of that candidate
onto the torque box, and the proxy correction that keeps the virtual state
consistent with the torque actually applied.  The correction is what produces
the anti-windup behavior: whenever the candidate is clipped, the proxy is
pulled back toward the position the clipped torque can realize, so saturation
never winds up the virtual state.

A deliberately naive clamped proxy-PD controller is included as a contrast
baseline; it integrates the same proxy but feeds nothing back into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Union

import numpy as np

from .msta import (
    MstaGains,
    MstaState,
    SolverDiagnostics,
    _u_from_selection,
    msta_explicit_step,
    msta_implicit_decoupled_step,
    solve_shat_vector,
    sta_scalar_implicit_step,
)
from .setvalued import (
    BoxConstraint,
    _all_finite,
    _read_only,
    _vector,
    project_box,
    variational_residual,
)

__all__ = [
    "AdmittanceGains",
    "AdmittanceState",
    "Measurement",
    "ModelEstimate",
    "StepDiagnostics",
    "NaiveGains",
    "US_MODES",
    "initial_state",
    "proxy_predict",
    "sliding_variable",
    "inner_loop_candidate",
    "admittance_step",
    "baseline_naive_step",
]

US_MODES = ("auto", "explicit", "implicit-vector", "implicit-decoupled", "scalar-implicit")


@dataclass(frozen=True)
class ModelEstimate:
    """Nominal rigid-body terms available to the controller (can be rough)."""

    mass_fn: Callable[[np.ndarray], np.ndarray]
    coriolis_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gravity_fn: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(mass_diag, coriolis_diag=None, dof: int | None = None) -> "ModelEstimate":
        """Constant diagonal estimate, e.g. a single rough inertia value."""
        m = np.atleast_1d(np.asarray(mass_diag, dtype=float))
        n = m.size if dof is None else dof
        if m.size == 1 and n > 1:
            m = np.full(n, m[0])
        c = np.zeros(n) if coriolis_diag is None else np.atleast_1d(np.asarray(coriolis_diag, dtype=float))
        if c.size == 1 and n > 1:
            c = np.full(n, c[0])
        M = np.diag(m)
        C = np.diag(c)
        zero = np.zeros(n)
        return ModelEstimate(lambda q: M, lambda q, qd: C, lambda q: zero)


@dataclass(frozen=True)
class AdmittanceGains:
    """Controller parameters.

    mx, bx are the proxy inertia and damping (n x n), lam the error-mixing
    rate, k1 either a scalar linear gain or the literal string "structured"
    for -C + gamma1*M, box the torque limits, h the controller period, and
    us_mode selects the inner-loop discretization ("auto" picks the scalar
    implicit form for one joint and the explicit form otherwise).

    mx and bx are kept as read-only copies.  The constants that depend on the
    gains alone are derived once, in ``__post_init__``, as private attributes
    (not fields, so ``dataclasses.replace`` derives them afresh): the resolved
    inner-loop mode, ``mx + bx*h``, and for a scalar k1 the matrix ``k1*I``.
    """

    mx: np.ndarray
    bx: np.ndarray
    lam: float
    k1: Union[float, Literal["structured"]]
    msta: MstaGains
    box: BoxConstraint
    h: float
    us_mode: str = "auto"
    us_coupling: str = "direct"

    def __post_init__(self) -> None:
        n = self.box.dim
        mx = np.atleast_2d(np.array(self.mx, dtype=float))
        bx = np.atleast_2d(np.array(self.bx, dtype=float))
        if mx.shape != (n, n) or bx.shape != (n, n):
            raise ValueError("mx and bx must be n x n with n matching the torque box")
        if float(np.linalg.eigvalsh(0.5 * (mx + mx.T)).min()) <= 0.0:
            raise ValueError("proxy inertia mx must be symmetric positive definite")
        if np.any(np.real(np.linalg.eigvals(bx @ np.linalg.inv(mx))) <= 0.0):
            raise ValueError("proxy damping must stabilize the proxy (bx mx^-1 eigenvalues in the right half plane)")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if not self.lam > 0.0 or self.lam >= 1.0 / self.h:
            raise ValueError("lam must satisfy 0 < lam < 1/h")
        if self.us_mode not in US_MODES:
            raise ValueError(f"us_mode must be one of {US_MODES}")
        if self.us_coupling not in ("direct", "inertia-scaled"):
            raise ValueError('us_coupling must be "direct" or "inertia-scaled"')
        k1m = None
        if not isinstance(self.k1, str):
            object.__setattr__(self, "k1", float(self.k1))
            k1m = _read_only(self.k1 * np.eye(n))
        elif self.k1 != "structured":
            raise ValueError('k1 must be a scalar or "structured"')
        mode = self.us_mode
        if mode == "auto":
            mode = "scalar-implicit" if n == 1 else "explicit"
        object.__setattr__(self, "mx", _read_only(mx))
        object.__setattr__(self, "bx", _read_only(bx))
        object.__setattr__(self, "_us_mode", mode)
        object.__setattr__(self, "_proxy_matrix", _read_only(mx + bx * self.h))
        object.__setattr__(self, "_k1m", k1m)

    @property
    def dof(self) -> int:
        return self.box.dim

    def resolved_us_mode(self) -> str:
        return self._us_mode


@dataclass(frozen=True)
class NaiveGains:
    """Clamped proxy-PD baseline: same proxy, high-gain PD, hard clamp.

    mx and bx are kept as read-only copies; ``mx + bx*h`` is derived once.
    """

    mx: np.ndarray
    bx: np.ndarray
    kp: float
    kd: float
    box: BoxConstraint
    h: float

    def __post_init__(self) -> None:
        n = self.box.dim
        mx = _read_only(np.atleast_2d(np.array(self.mx, dtype=float)))
        bx = _read_only(np.atleast_2d(np.array(self.bx, dtype=float)))
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "bx", bx)
        if mx.shape != (n, n) or bx.shape != (n, n):
            raise ValueError("mx and bx must be n x n")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        object.__setattr__(self, "_proxy_matrix", _read_only(mx + bx * self.h))


@dataclass(frozen=True)
class AdmittanceState:
    """Controller memory between sampling instants."""

    qx_prev: np.ndarray      # proxy position at k-1
    qxd_prev: np.ndarray     # proxy velocity at k-1
    ux_prev: np.ndarray      # unconstrained proxy velocity candidate at k-1
    q_prev: np.ndarray       # measured position at k-1
    qe_prev: np.ndarray      # predicted tracking error at k-1
    msta_state: MstaState

    def __post_init__(self) -> None:
        for name in ("qx_prev", "qxd_prev", "ux_prev", "q_prev", "qe_prev"):
            vec = _vector(getattr(self, name))
            if not _all_finite(vec):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class Measurement:
    """Sampled inputs: position, joint-space contact force, desired force."""

    q: np.ndarray
    fc: np.ndarray
    fd: np.ndarray

    def __post_init__(self) -> None:
        for name in ("q", "fc", "fd"):
            vec = _vector(getattr(self, name))
            if not _all_finite(vec):
                raise ValueError(f"measurement {name} must be finite")
            object.__setattr__(self, name, vec)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step internals for logging and verification."""

    tau_star: np.ndarray
    tau: np.ndarray
    qx_star: np.ndarray
    q1_star: np.ndarray
    s: np.ndarray
    qe: np.ndarray
    u_s: np.ndarray
    saturated: np.ndarray
    lambda_vi_residual: float
    solver: SolverDiagnostics | None = None


def initial_state(q0: np.ndarray, dof: int | None = None) -> AdmittanceState:
    """Rest initialization: proxy on the robot, zero velocities and integrators."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    n = q0.size if dof is None else dof
    zero = np.zeros(n)
    return AdmittanceState(q0.copy(), zero.copy(), zero.copy(), q0.copy(), zero.copy(),
                           MstaState.zero(n))


def proxy_predict(state: AdmittanceState, fc: np.ndarray, fd: np.ndarray,
                  g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """Implicit proxy update ignoring the torque constraint.

    ux_star = (mx + bx*h)^{-1} (mx*qxd_prev + h*(fc + fd)),
    qx_star = qx_prev + h*ux_star.
    """
    fc = _vector(fc)
    fd = _vector(fd)
    ux_star = np.linalg.solve(g._proxy_matrix, g.mx @ state.qxd_prev + g.h * (fc + fd))
    qx_star = state.qx_prev + g.h * ux_star
    return ux_star, qx_star


def sliding_variable(qx_star: np.ndarray, q: np.ndarray, state: AdmittanceState,
                     g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tracking error against the predicted proxy and its mixed rate.

    qe uses the predicted proxy position (the corrected one is not known yet);
    its rate is the backward difference against the stored previous error.
    """
    qe = qx_star - q
    qed = (qe - state.qe_prev) / g.h
    s = qed + g.lam * qe
    return qe, qed, s


class _Loop(NamedTuple):
    """The estimate at the measured position and the inner-loop matrices
    built from it; evaluated once per controller period."""

    Mk: np.ndarray
    Ck: np.ndarray
    Gk: np.ndarray
    k1m: np.ndarray
    B: np.ndarray
    Bhat: np.ndarray
    W: np.ndarray


def _evaluate_loop(model: ModelEstimate, q: np.ndarray, state: AdmittanceState,
                   g: AdmittanceGains) -> _Loop:
    h = g.h
    Mk = model.mass_fn(q)
    Ck = model.coriolis_fn(q, (q - state.q_prev) / h)
    Gk = model.gravity_fn(q)
    k1m = g._k1m if g._k1m is not None else -Ck + g.msta.gamma1 * Mk
    B = Mk * g.lam + k1m
    K = (Ck + k1m) * g.lam
    Bhat = B + Ck
    Khat = Bhat / h + K
    W = Mk / (h * h) + Khat
    return _Loop(Mk, Ck, Gk, k1m, B, Bhat, W)


def inner_loop_candidate(qx_star: np.ndarray, q: np.ndarray, s: np.ndarray,
                         u_s: np.ndarray, state: AdmittanceState, model: ModelEstimate,
                         g: AdmittanceGains, *, loop: _Loop | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained torque candidate of the implicit inner loop.

    The sliding variable enters through the gain matrices; u_s is the robust
    term evaluated beforehand.  With us_coupling "direct" the robust term acts
    as a generalized force; "inertia-scaled" premultiplies it by the inertia
    estimate, which starves the twisting gains of authority whenever the
    estimate is much lighter than the true inertia.  Returns
    (q1_star, tau_star) with tau_star = W (qx_star - q1_star).  ``loop`` is the
    period's evaluated estimate and matrices; it is built here when omitted.
    """
    h = g.h
    if loop is None:
        loop = _evaluate_loop(model, q, state, g)
    Mk, Ck, Gk, _, B, Bhat, W = loop
    tau_us = u_s if g.us_coupling == "direct" else Mk @ u_s
    phi_a = ((Mk + Ck * h) @ q + h * (B @ state.q_prev)) / (h * h) + Gk + tau_us
    phi_b = (Mk @ (state.qx_prev + h * state.ux_prev)) / (h * h) + (Bhat @ state.qx_prev) / h
    q1_star = q + np.linalg.solve(W, phi_b - phi_a)
    tau_star = W @ (qx_star - q1_star)
    return q1_star, tau_star


def _scalar_beta(g: AdmittanceGains, Mk: np.ndarray, Ck: np.ndarray) -> float:
    if g.k1 == "structured":
        gamma1 = g.msta.gamma1
    else:
        gamma1 = (float(g.k1) + Ck[0, 0]) / Mk[0, 0]
    return max(1.0, 1.0 + g.h * gamma1)


def _robust_term(s: np.ndarray, loop: _Loop, state: AdmittanceState, g: AdmittanceGains):
    """Dispatch u_s through the configured discretization."""
    mode = g._us_mode
    h = g.h
    ms = g.msta
    if mode == "explicit":
        u_s, m_next = msta_explicit_step(s, state.msta_state, ms, h)
        return u_s, m_next, None
    if mode == "scalar-implicit":
        if g.dof != 1:
            raise ValueError("scalar-implicit inner loop requires one degree of freedom")
        beta = _scalar_beta(g, loop.Mk, loop.Ck)
        u, v_next, _, _ = sta_scalar_implicit_step(float(s[0]), ms, beta, h,
                                                   float(state.msta_state.v[0]))
        return np.array([u]), MstaState(np.array([v_next])), None
    if mode == "implicit-decoupled":
        return msta_implicit_decoupled_step(s, ms, h, state.msta_state)
    # implicit-vector
    Ak = loop.Mk + h * loop.Ck + h * loop.k1m
    diag = solve_shat_vector(s, Ak, loop.Mk, ms, h)
    u_s, m_next = _u_from_selection(diag, state.msta_state, ms, h)
    return u_s, m_next, diag


def _worst_probe(y_star: np.ndarray, y_proj: np.ndarray) -> list[np.ndarray]:
    """The corner p = sign(y_star - y_proj) of the unit box.

    The certificate d.(p - F^{-1} y_proj) is linear in p, so this single probe
    attains its maximum over the whole box.
    """
    return [np.sign(y_star - y_proj)]


def admittance_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                    g: AdmittanceGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """One controller period; returns the projected torque, the advanced state,
    and the step diagnostics.

    The applied torque is exactly the box projection of the candidate, and the
    corrected proxy satisfies qx = W^{-1} tau + q1_star, so tau == tau_star
    implies qx == qx_star.
    """
    h = g.h
    loop = _evaluate_loop(model, meas.q, state, g)

    ux_star, qx_star = proxy_predict(state, meas.fc, meas.fd, g)
    qe, _, s = sliding_variable(qx_star, meas.q, state, g)
    u_s, msta_next, solver_diag = _robust_term(s, loop, state, g)
    q1_star, tau_star = inner_loop_candidate(qx_star, meas.q, s, u_s, state, model, g,
                                             loop=loop)

    tau = project_box(tau_star, g.box)
    qx = np.linalg.solve(loop.W, tau) + q1_star
    qxd = (qx - state.qx_prev) / h

    saturated = np.abs(tau_star) > g.box.limits
    vi_residual = variational_residual(tau_star, tau, g.box, _worst_probe(tau_star, tau))

    next_state = AdmittanceState(qx, qxd, ux_star, meas.q.copy(), qe, msta_next)
    diag = StepDiagnostics(tau_star, tau, qx_star, q1_star, s, qe, u_s, saturated,
                           vi_residual, solver_diag)
    return tau, next_state, diag


def baseline_naive_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                        ng: NaiveGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """Clamped proxy-PD baseline.

    The proxy integrates the measured and desired forces with no feedback from
    the applied torque, and the position loop is a gravity-compensated PD whose
    output is hard-clamped to the torque box.
    """
    h = ng.h
    ux = np.linalg.solve(ng._proxy_matrix, ng.mx @ state.qxd_prev + h * (meas.fc + meas.fd))
    qx = state.qx_prev + h * ux
    qe = qx - meas.q
    qed = (qe - state.qe_prev) / h
    tau_raw = ng.kp * qe + ng.kd * qed + model.gravity_fn(meas.q)
    tau = project_box(tau_raw, ng.box)
    saturated = np.abs(tau_raw) > ng.box.limits
    vi_residual = variational_residual(tau_raw, tau, ng.box, _worst_probe(tau_raw, tau))
    zero = np.zeros_like(qe)
    next_state = AdmittanceState(qx, ux, ux, meas.q.copy(), qe, state.msta_state)
    diag = StepDiagnostics(tau_raw, tau, qx, meas.q.copy(), zero, qe, zero, saturated,
                           vi_residual, None)
    return tau, next_state, diag
