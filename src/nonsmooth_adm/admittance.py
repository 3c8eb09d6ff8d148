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

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Union

import numpy as np

from .msta import (
    MstaGains,
    MstaState,
    SolverDiagnostics,
    _Iteration,
    _solve_inclusion,
    _u_from_selection,
    msta_explicit_step,
    msta_implicit_decoupled_step,  # noqa: F401  (perfbench traces it under this name)
    solve_shat_vector,  # noqa: F401  (perfbench traces it under this name)
    sta_scalar_implicit_step,
)
from .setvalued import (
    _ONE,
    BoxConstraint,
    _all_finite,
    _read_only,
    _require_finite,
    _unchecked,
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

US_MODES = ("auto", "explicit", "implicit-vector", "scalar-implicit")


@dataclass(frozen=True)
class ModelEstimate:
    """Nominal rigid-body terms available to the controller (can be rough)."""

    mass_fn: Callable[[np.ndarray], np.ndarray]
    coriolis_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gravity_fn: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(mass_diag, coriolis_diag=None, dof: int | None = None) -> "ModelEstimate":
        """Constant diagonal estimate, e.g. a single rough inertia value.

        ``mass_diag`` and ``coriolis_diag`` each have one entry, shared by
        every joint, or ``dof`` entries (``dof`` defaults to the length of
        ``mass_diag``).  The returned M, C and gravity arrays are read-only,
        so ``admittance_step`` builds the loop of a constant estimate once and
        reuses it while the same estimate object comes back.
        """
        m = np.atleast_1d(np.asarray(mass_diag, dtype=float))
        c = np.zeros(1) if coriolis_diag is None else np.atleast_1d(
            np.asarray(coriolis_diag, dtype=float))
        n = m.size if dof is None else dof
        for name, x in (("mass_diag", m), ("coriolis_diag", c)):
            if n < 1 or x.ndim != 1 or x.size not in (1, n):
                raise ValueError(f"{name} has {x.size} entries; it needs 1 or dof = {n}")
            if not _all_finite(x):
                raise ValueError(f"{name} must be finite, got {x.tolist()}")
        M = _read_only(np.diag(np.broadcast_to(m, n)))
        C = _read_only(np.diag(np.broadcast_to(c, n)))
        zero = _read_only(np.zeros(n))
        est = ModelEstimate(lambda q: M, lambda q, qd: C, lambda q: zero)
        object.__setattr__(est, "_constant", True)
        return est


def _diagonal(A: np.ndarray) -> np.ndarray | None:
    """The diagonal of A when A is 1 x 1 or 2 x 2, diagonal, with nonzero
    diagonal entries: then ``_solve`` divides by it.  None otherwise."""
    if A.shape == (1, 1) or (A.shape == (2, 2) and A[0, 1] == 0.0 and A[1, 0] == 0.0):
        d = A.diagonal()
        if 0.0 not in d.tolist():
            return _read_only(d.copy())
    return None


def _solve(A: np.ndarray, d: np.ndarray | None, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(A, b)`` where ``d = _diagonal(A)``: ``b / d`` when d
    is given, except for a 2 x 2 b holding an exact zero, which keeps the solve.

    Division agrees with the solve to roundoff.  With numpy 2.4 on OpenBLAS
    (x86-64) it was measured equal bit for bit on random 1 x 1 and 2 x 2
    systems, except that the 2 x 2 solve may flip the sign of a zero entry
    of b; the reciprocal ``b * (1/d)`` differed in about a third of them.
    """
    if d is not None and (d.size == 1 or 0.0 not in b.tolist()):
        return b / d
    return np.linalg.solve(A, b)


def _set_proxy(gains) -> None:
    """Check mx, bx and h of ``gains``, keep mx and bx as read-only copies,
    and derive ``mx + bx*h`` and its diagonal for ``proxy_predict``; for one
    joint also ``(mx, mx + bx*h)`` as floats, ``_proxy_one`` (else None)."""
    n = gains.box.dim
    mx = np.atleast_2d(np.array(gains.mx, dtype=float))
    bx = np.atleast_2d(np.array(gains.bx, dtype=float))
    if mx.shape != (n, n) or bx.shape != (n, n):
        raise ValueError("mx and bx must be n x n with n matching the torque box")
    if not (_all_finite(mx) and _all_finite(bx)):
        raise ValueError("mx and bx must be finite")
    if float(np.linalg.eigvalsh(0.5 * (mx + mx.T)).min()) <= 0.0:
        raise ValueError("proxy inertia mx must be symmetric positive definite")
    if np.any(np.real(np.linalg.eigvals(bx @ np.linalg.inv(mx))) <= 0.0):
        raise ValueError("proxy damping must stabilize the proxy (bx mx^-1 eigenvalues in the right half plane)")
    if not 0.0 < gains.h < math.inf:
        raise ValueError("h must be positive and finite")
    P = mx + bx * gains.h
    object.__setattr__(gains, "mx", _read_only(mx))
    object.__setattr__(gains, "bx", _read_only(bx))
    object.__setattr__(gains, "_proxy_matrix", _read_only(P))
    object.__setattr__(gains, "_proxy_diag", _diagonal(P))
    object.__setattr__(gains, "_proxy_one", (mx.item(), P.item()) if n == 1 else None)


@dataclass(frozen=True)
class AdmittanceGains:
    """Controller parameters.

    mx, bx are the proxy inertia and damping (n x n), lam the error-mixing
    rate, k1 either a scalar linear gain or the literal string "structured"
    for -C + gamma1*M, box the torque limits, h the controller period, and
    us_mode selects the inner-loop discretization ("auto" picks the scalar
    implicit form for one joint and the explicit form otherwise;
    "implicit-vector" solves the loop's inclusion, by its radial closed form
    when the iteration matrix is a multiple of I).

    mx and bx are kept as read-only copies.  The constants that depend on the
    gains alone are derived once, in ``__post_init__``, as private attributes
    (not fields, so ``dataclasses.replace`` derives them afresh): the resolved
    inner-loop mode, ``mx + bx*h`` and its diagonal, and for a scalar k1 the
    matrix ``k1*I``.  The "scalar-implicit" mode needs one joint.  The gains
    also keep the loop of the last constant estimate they stepped with, as one
    ``(estimate, loop)`` pair that a new estimate replaces whole; it starts
    empty and is not pickled.
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
        _set_proxy(self)
        if not self.lam > 0.0 or self.lam >= 1.0 / self.h:
            raise ValueError("lam must satisfy 0 < lam < 1/h")
        if self.us_mode not in US_MODES:
            raise ValueError(f"us_mode must be one of {US_MODES}")
        if self.us_coupling not in ("direct", "inertia-scaled"):
            raise ValueError('us_coupling must be "direct" or "inertia-scaled"')
        k1m = None
        if not isinstance(self.k1, str):
            object.__setattr__(self, "k1", float(self.k1))
            _require_finite(self, "k1")
            k1m = _read_only(self.k1 * np.eye(n))
        elif self.k1 != "structured":
            raise ValueError('k1 must be a scalar or "structured"')
        mode = self.us_mode
        if mode == "auto":
            mode = "scalar-implicit" if n == 1 else "explicit"
        if mode == "scalar-implicit" and n != 1:
            raise ValueError(f"us_mode 'scalar-implicit' needs one joint; the torque box has {n}")
        object.__setattr__(self, "_us_mode", mode)
        object.__setattr__(self, "_k1m", k1m)
        object.__setattr__(self, "_cached_loop", (None, None))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_cached_loop": (None, None)}

    def resolved_us_mode(self) -> str:
        return self._us_mode


@dataclass(frozen=True)
class NaiveGains:
    """Clamped proxy-PD baseline: same proxy, high-gain PD, hard clamp.

    mx, bx and h are checked as for ``AdmittanceGains`` and kept the same
    way, with ``mx + bx*h`` and its diagonal derived once.
    """

    mx: np.ndarray
    bx: np.ndarray
    kp: float
    kd: float
    box: BoxConstraint
    h: float

    def __post_init__(self) -> None:
        _set_proxy(self)
        _require_finite(self, "kp", "kd")


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


def initial_state(q0: np.ndarray) -> AdmittanceState:
    """Rest initialization: proxy on the robot, zero velocities and integrators."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    zero = np.zeros(q0.size)
    return AdmittanceState(q0.copy(), zero.copy(), zero.copy(), q0.copy(), zero.copy(),
                           MstaState.zero(q0.size))


def proxy_predict(state: AdmittanceState, fc: np.ndarray, fd: np.ndarray,
                  g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """Implicit proxy update ignoring the torque constraint.

    ux_star = (mx + bx*h)^{-1} (mx*qxd_prev + h*(fc + fd)),
    qx_star = qx_prev + h*ux_star.  ``g`` may also be ``NaiveGains``.
    """
    fc = _vector(fc)
    fd = _vector(fd)
    one = g._proxy_one
    if (one is None or fc.shape != _ONE or fd.shape != _ONE
            or state.qxd_prev.shape != _ONE or state.qx_prev.shape != _ONE):
        return _proxy_predict_arrays(state, fc, fd, g)
    mx, P = one
    h = g.h
    ux_star = (0.0 + mx * state.qxd_prev.item() + h * (fc.item() + fd.item())) / P
    return np.array([ux_star]), np.array([state.qx_prev.item() + h * ux_star])


def _proxy_predict_arrays(state: AdmittanceState, fc: np.ndarray, fd: np.ndarray,
                          g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """``proxy_predict`` on float vectors, for any number of joints."""
    ux_star = _solve(g._proxy_matrix, g._proxy_diag, g.mx @ state.qxd_prev + g.h * (fc + fd))
    qx_star = state.qx_prev + g.h * ux_star
    return ux_star, qx_star


def sliding_variable(qx_star: np.ndarray, q: np.ndarray, state: AdmittanceState,
                     g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tracking error against the predicted proxy and its mixed rate.

    qe uses the predicted proxy position (the corrected one is not known yet);
    its rate is the backward difference against the stored previous error.
    """
    if (g._proxy_one is None or qx_star.shape != _ONE or q.shape != _ONE
            or state.qe_prev.shape != _ONE):
        return _sliding_variable_arrays(qx_star, q, state, g)
    qe = qx_star.item() - q.item()
    qed = (qe - state.qe_prev.item()) / g.h
    return np.array([qe]), np.array([qed]), np.array([qed + g.lam * qe])


def _sliding_variable_arrays(qx_star: np.ndarray, q: np.ndarray, state: AdmittanceState,
                             g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sliding_variable`` on arrays, for any number of joints."""
    qe = qx_star - q
    qed = (qe - state.qe_prev) / g.h
    s = qed + g.lam * qe
    return qe, qed, s


class _Loop(NamedTuple):
    """The estimate at the measured position and the inner-loop matrices
    built from it: evaluated once per controller period, or once per run for
    a constant estimate (``_loop_for``).

    ``MhC`` is ``Mk + h*Ck``, ``Wd`` the diagonal of W when solves against W
    are divisions, ``beta`` the scalar-implicit iteration factor, and
    ``iteration`` the implicit-vector iteration matrix ``Mk^{-1} A``, which
    keeps its relaxation parameter once a solve has chosen it.  ``one`` holds
    the one-joint loop as floats (``_OneLoop``) when every matrix is 1 x 1,
    Gk has one entry and W is nonzero; None otherwise.
    """

    Mk: np.ndarray
    Gk: np.ndarray
    B: np.ndarray
    Bhat: np.ndarray
    W: np.ndarray
    MhC: np.ndarray
    Wd: np.ndarray | None
    beta: float | None
    iteration: _Iteration | None
    one: "_OneLoop | None"


class _OneLoop(NamedTuple):
    """The entries of a one-joint ``_Loop``, as floats."""

    Mk: float
    Gk: float
    B: float
    Bhat: float
    W: float
    MhC: float


def _one_loop(Mk, Gk, B, Bhat, W, MhC) -> _OneLoop | None:
    matrices = (Mk, B, Bhat, W, MhC)
    if (all(type(a) is np.ndarray and a.shape == (1, 1) and a.dtype == float for a in matrices)
            and type(Gk) is np.ndarray and Gk.shape == _ONE and Gk.dtype == float
            and W.item() != 0.0):
        return _OneLoop(Mk.item(), Gk.item(), B.item(), Bhat.item(), W.item(), MhC.item())
    return None


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
    MhC = Mk + Ck * h
    beta = _scalar_beta(g, Mk, Ck) if g._us_mode == "scalar-implicit" else None
    iteration = None
    if g._us_mode == "implicit-vector":
        iteration = _Iteration(np.linalg.solve(Mk, MhC + h * k1m), g.msta.mu)
    return _Loop(Mk, Gk, B, Bhat, W, MhC, _diagonal(W), beta, iteration,
                 _one_loop(Mk, Gk, B, Bhat, W, MhC))


def _loop_for(model: ModelEstimate, q: np.ndarray, state: AdmittanceState,
              g: AdmittanceGains) -> _Loop:
    """The period's loop.  A constant estimate's loop is built once and kept
    on the gains while the same estimate object comes back; any other
    estimate is evaluated every period."""
    if not getattr(model, "_constant", False):
        return _evaluate_loop(model, q, state, g)
    cached, loop = g._cached_loop
    if cached is not model:
        loop = _evaluate_loop(model, q, state, g)
        object.__setattr__(g, "_cached_loop", (model, loop))
    return loop


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

    A one-joint loop computes on floats, bitwise equal to
    ``_inner_loop_candidate_arrays``: a 1 x 1 product ``A @ x`` is ``0.0 + A*x``.
    """
    if loop is None:
        loop = _evaluate_loop(model, q, state, g)
    one = loop.one
    if (one is None or qx_star.shape != _ONE or q.shape != _ONE or u_s.shape != _ONE
            or state.qx_prev.shape != _ONE or state.ux_prev.shape != _ONE
            or state.q_prev.shape != _ONE):
        return _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
    h = g.h
    hh = h * h
    qv = q.item()
    qx_prev = state.qx_prev.item()
    us = u_s.item()
    tau_us = us if g.us_coupling == "direct" else 0.0 + one.Mk * us
    phi_a = (0.0 + one.MhC * qv + h * (0.0 + one.B * state.q_prev.item())) / hh + one.Gk + tau_us
    phi_b = ((0.0 + one.Mk * (qx_prev + h * state.ux_prev.item())) / hh
             + (0.0 + one.Bhat * qx_prev) / h)
    q1_star = qv + (phi_b - phi_a) / one.W
    return np.array([q1_star]), np.array([0.0 + one.W * (qx_star.item() - q1_star)])


def _inner_loop_candidate_arrays(qx_star: np.ndarray, q: np.ndarray, u_s: np.ndarray,
                                 state: AdmittanceState, g: AdmittanceGains, loop: _Loop
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """``inner_loop_candidate`` on arrays, for any number of joints."""
    h = g.h
    Mk, W = loop.Mk, loop.W
    tau_us = u_s if g.us_coupling == "direct" else Mk @ u_s
    phi_a = (loop.MhC @ q + h * (loop.B @ state.q_prev)) / (h * h) + loop.Gk + tau_us
    phi_b = (Mk @ (state.qx_prev + h * state.ux_prev)) / (h * h) + (loop.Bhat @ state.qx_prev) / h
    q1_star = q + _solve(W, loop.Wd, phi_b - phi_a)
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
        u, v_next, _, _ = sta_scalar_implicit_step(float(s[0]), ms, loop.beta, h,
                                                   float(state.msta_state.v[0]))
        return np.array([u]), _unchecked(MstaState, v=np.array([v_next])), None
    # implicit-vector
    diag = _solve_inclusion(s, loop.iteration, ms, h)
    u_s, m_next = _u_from_selection(diag, state.msta_state, ms, h)
    return u_s, m_next, diag


def _worst_probe(y_star: np.ndarray, y_proj: np.ndarray) -> list[np.ndarray]:
    """The corner p = sign(y_star - y_proj) of the unit box.

    The certificate d.(p - F^{-1} y_proj) is linear in p, so this single probe
    attains its maximum over the whole box.
    """
    return [np.sign(y_star - y_proj)]


def _sign(x: float) -> float:
    """``np.sign`` of a float: +0.0 for either zero, NaN for NaN."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0 if x == 0.0 else x


def admittance_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                    g: AdmittanceGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """One controller period; returns the projected torque, the advanced state,
    and the step diagnostics.

    The applied torque is exactly the box projection of the candidate, and the
    corrected proxy satisfies qx = W^{-1} tau + q1_star, so tau == tau_star
    implies qx == qx_star.  For one joint, each stage and the step's own
    arithmetic compute on floats, bitwise equal to the array code.
    """
    h = g.h
    loop = _loop_for(model, meas.q, state, g)

    ux_star, qx_star = proxy_predict(state, meas.fc, meas.fd, g)
    qe, _, s = sliding_variable(qx_star, meas.q, state, g)
    u_s, msta_next, solver_diag = _robust_term(s, loop, state, g)
    q1_star, tau_star = inner_loop_candidate(qx_star, meas.q, s, u_s, state, model, g,
                                             loop=loop)

    tau = project_box(tau_star, g.box)
    one = loop.one
    if one is not None and q1_star.shape == _ONE and state.qx_prev.shape == _ONE:
        t, ts = tau.item(), tau_star.item()
        qx1 = t / one.W + q1_star.item()
        qx = np.array([qx1])
        qxd = np.array([(qx1 - state.qx_prev.item()) / h])
        saturated = np.array([abs(ts) > g.box._limit])
        probes = [_sign(ts - t)]
    else:
        qx = _solve(loop.W, loop.Wd, tau) + q1_star
        qxd = (qx - state.qx_prev) / h
        saturated = np.abs(tau_star) > g.box.limits
        probes = _worst_probe(tau_star, tau)
    vi_residual = variational_residual(tau_star, tau, g.box, probes)

    next_state = _unchecked(AdmittanceState, qx_prev=qx, qxd_prev=qxd, ux_prev=ux_star,
                            q_prev=meas.q.copy(), qe_prev=qe, msta_state=msta_next)
    diag = StepDiagnostics(tau_star, tau, qx_star, q1_star, s, qe, u_s, saturated,
                           vi_residual, solver_diag)
    return tau, next_state, diag


def baseline_naive_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                        ng: NaiveGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """Clamped proxy-PD baseline.

    The proxy integrates the measured and desired forces with no feedback from
    the applied torque, and the position loop is a gravity-compensated PD whose
    output is hard-clamped to the torque box.  For one joint the arithmetic
    is on floats, bitwise equal to the array code.
    """
    h = ng.h
    ux, qx = proxy_predict(state, meas.fc, meas.fd, ng)
    gravity = model.gravity_fn(meas.q)
    limit = ng.box._limit
    if (limit is not None and qx.shape == _ONE and meas.q.shape == _ONE
            and state.qe_prev.shape == _ONE and type(gravity) is np.ndarray
            and gravity.shape == _ONE and gravity.dtype == float):
        qe1 = qx.item() - meas.q.item()
        qed = (qe1 - state.qe_prev.item()) / h
        raw = ng.kp * qe1 + ng.kd * qed + gravity.item()
        qe = np.array([qe1])
        tau_raw = np.array([raw])
        tau = project_box(tau_raw, ng.box)
        t = tau.item()
        saturated = np.array([abs(raw) > limit])
        probes = [_sign(raw - t)]
    else:
        qe = qx - meas.q
        qed = (qe - state.qe_prev) / h
        tau_raw = ng.kp * qe + ng.kd * qed + gravity
        tau = project_box(tau_raw, ng.box)
        saturated = np.abs(tau_raw) > ng.box.limits
        probes = _worst_probe(tau_raw, tau)
    vi_residual = variational_residual(tau_raw, tau, ng.box, probes)
    zero = np.zeros_like(qe)
    next_state = _unchecked(AdmittanceState, qx_prev=qx, qxd_prev=ux, ux_prev=ux,
                            q_prev=meas.q.copy(), qe_prev=qe, msta_state=state.msta_state)
    diag = StepDiagnostics(tau_raw, tau, qx, meas.q.copy(), zero, qe, zero, saturated,
                           vi_residual, None)
    return tau, next_state, diag
