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
    _check_period,
    _explicit,
    _Iteration,
    _solve_inclusion,
    msta_explicit_step,  # noqa: F401  (perfbench traces it under this name)
    msta_implicit_decoupled_step,  # noqa: F401  (perfbench traces it under this name)
    solve_shat_vector,  # noqa: F401  (perfbench traces it under this name)
    sta_scalar_implicit_step,
)
from .setvalued import (
    BoxConstraint,
    _FLOAT_JOINTS,
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
        ``mass_diag``); every mass entry must be positive, since the loop
        divides by the inertia.  The returned M, C and gravity arrays are
        read-only, so ``admittance_step`` builds the loop of a constant
        estimate once and reuses it while the same estimate object comes back.
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
        if not min(m.tolist()) > 0.0:
            raise ValueError(f"mass_diag entries must be positive, got {m.tolist()}")
        M = _read_only(np.diag(np.broadcast_to(m, n)))
        C = _read_only(np.diag(np.broadcast_to(c, n)))
        zero = _read_only(np.zeros(n))
        est = ModelEstimate(lambda q: M, lambda q, qd: C, lambda q: zero)
        object.__setattr__(est, "_constant", True)
        return est


def _is_diagonal(A: np.ndarray) -> bool:
    """Whether A is 1 x 1, or 2 x 2 with exact zeros off the diagonal."""
    return A.shape == (1, 1) or (A.shape == (2, 2) and A[0, 1] == 0.0 and A[1, 0] == 0.0)


def _diagonal(A: np.ndarray) -> np.ndarray | None:
    """The diagonal of A when A is 1 x 1 or 2 x 2, diagonal, with nonzero
    diagonal entries: then ``_solve`` divides by it.  None otherwise."""
    if _is_diagonal(A):
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


def _finite(*values: float) -> bool:
    """Whether every float of ``values`` is finite (an overflowing sum of
    finite values also reads False, which only costs a stage its float branch).

    Row i of a product of a diagonal matrix with x is ``0.0 + A_ii*x_i`` in
    any summation order, plus the off-diagonal zero times the other entries,
    which numpy adds: that term is NaN when another entry is not finite.  A
    non-finite product input of a two-joint stage makes its own row of the
    stage's outputs non-finite, so a two-joint stage whose float outputs are
    finite has computed numpy's bits; the others redo their arrays.
    """
    return math.isfinite(sum(values))


class _ProxyFloats(NamedTuple):
    """A diagonal proxy of one or two joints, as floats."""

    shape: tuple    # (n,), the shape of the controller's vectors
    joints: tuple   # per joint (mx_jj, P_jj), P = mx + bx*h with no zero entry


def _set_proxy(gains) -> None:
    """Check mx, bx and h of ``gains``, keep mx and bx as read-only copies,
    and derive ``mx + bx*h`` and its diagonal for ``proxy_predict``; for a
    diagonal proxy of one or two joints also the diagonals as floats,
    ``_proxy_floats`` (else None)."""
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
    Pd = _diagonal(P)
    floats = None
    if Pd is not None and _is_diagonal(mx):
        floats = _ProxyFloats((n,), tuple(zip(mx.diagonal().tolist(), Pd.tolist())))
    object.__setattr__(gains, "_proxy_diag", Pd)
    object.__setattr__(gains, "_proxy_floats", floats)


@dataclass(frozen=True)
class AdmittanceGains:
    """Controller parameters.

    mx, bx are the proxy inertia and damping (n x n), lam the error-mixing
    rate, k1 either a scalar linear gain or the literal string "structured"
    for -C + gamma1*M, box the torque limits, h the controller period, and
    us_mode selects the inner-loop discretization ("auto" picks the scalar
    implicit form for one joint and the explicit form otherwise;
    "implicit-vector" solves the loop's inclusion, by its radial closed form
    when the iteration matrix G is a multiple of I and by a scalar root
    otherwise, which needs G + G^T positive definite).

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
        _check_period(self.msta, self.h)
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


_STATE_VECTORS = ("qx_prev", "qxd_prev", "ux_prev", "q_prev", "qe_prev")


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
        for name in _STATE_VECTORS:
            vec = _vector(getattr(self, name))
            if not _all_finite(vec):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, vec)
        # the robust term indexes v entry by entry
        sizes = {getattr(self, name).size for name in _STATE_VECTORS} | {self.msta_state.v.size}
        if len(sizes) > 1:
            raise ValueError(f"the state vectors and the integrator state v have different "
                             f"numbers of entries: {sorted(sizes)}")


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

    A diagonal proxy of one or two joints computes on floats, one joint at
    a time (``_proxy_joint``), bitwise equal to ``_proxy_predict_arrays``.
    """
    fc = _vector(fc)
    fd = _vector(fd)
    floats = g._proxy_floats
    if floats is not None and (floats.shape == fc.shape == fd.shape == state.qxd_prev.shape
                               == state.qx_prev.shape):
        h = g.h
        if len(floats.joints) == 1:
            u, x = _proxy_joint(floats.joints[0], h, state.qxd_prev.item(), fc.item(), fd.item(),
                                state.qx_prev.item())
            return np.array([u]), np.array([x])
        (v0, v1), (f0, f1), (d0, d1) = state.qxd_prev.tolist(), fc.tolist(), fd.tolist()
        x0, x1 = state.qx_prev.tolist()
        joint0, joint1 = floats.joints
        u0, x0 = _proxy_joint(joint0, h, v0, f0, d0, x0)
        u1, x1 = _proxy_joint(joint1, h, v1, f1, d1, x1)
        # a zero ux_star comes from an exact zero in b, which _solve hands to
        # np.linalg.solve (or, harmlessly, from an underflow)
        if u0 != 0.0 and u1 != 0.0 and _finite(u0, u1, x0, x1):
            return np.array([u0, u1]), np.array([x0, x1])
    return _proxy_predict_arrays(state, fc, fd, g)


def _proxy_joint(joint: tuple, h: float, qxd_prev: float, fc: float, fd: float,
                 qx_prev: float) -> tuple[float, float]:
    """One joint of ``proxy_predict`` on floats: (ux_star, qx_star).  Row j
    of the diagonal product ``mx @ qxd_prev`` is ``0.0 + mx_jj*qxd_prev_j``
    (see ``_finite``)."""
    mx, P = joint
    ux_star = (0.0 + mx * qxd_prev + h * (fc + fd)) / P
    return ux_star, qx_prev + h * ux_star


def _proxy_predict_arrays(state: AdmittanceState, fc: np.ndarray, fd: np.ndarray,
                          g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """``proxy_predict`` on float vectors, for any number of joints."""
    ux_star = _solve(g._proxy_matrix, g._proxy_diag, g.mx @ state.qxd_prev + g.h * (fc + fd))
    qx_star = state.qx_prev + g.h * ux_star
    return ux_star, qx_star


def sliding_variable(qx_star: np.ndarray, q: np.ndarray, state: AdmittanceState,
                     g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """Tracking error qe against the predicted proxy and the sliding variable
    s = qed + lam*qe, with qed its rate.

    qe uses the predicted proxy position (the corrected one is not known yet);
    its rate is the backward difference against the stored previous error.
    With the float proxy of ``proxy_predict`` it computes on floats, one
    joint at a time (``_sliding_joint``).
    """
    floats = g._proxy_floats
    if floats is None or not floats.shape == qx_star.shape == q.shape == state.qe_prev.shape:
        return _sliding_variable_arrays(qx_star, q, state, g)
    h, lam = g.h, g.lam
    if len(floats.joints) == 1:
        qe, s = _sliding_joint(h, lam, qx_star.item(), q.item(), state.qe_prev.item())
        return np.array([qe]), np.array([s])
    (x0, x1), (y0, y1), (p0, p1) = qx_star.tolist(), q.tolist(), state.qe_prev.tolist()
    qe0, s0 = _sliding_joint(h, lam, x0, y0, p0)
    qe1, s1 = _sliding_joint(h, lam, x1, y1, p1)
    return np.array([qe0, qe1]), np.array([s0, s1])


def _sliding_joint(h: float, lam: float, qx_star: float, q: float, qe_prev: float
                   ) -> tuple[float, float]:
    """One joint of ``sliding_variable`` on floats: (qe, s)."""
    qe = qx_star - q
    return qe, (qe - qe_prev) / h + lam * qe


def _sliding_variable_arrays(qx_star: np.ndarray, q: np.ndarray, state: AdmittanceState,
                             g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """``sliding_variable`` on arrays, for any number of joints."""
    qe = qx_star - q
    return qe, (qe - state.qe_prev) / g.h + g.lam * qe


class _Loop(NamedTuple):
    """The estimate at the measured position and the inner-loop matrices
    built from it: evaluated once per controller period, or once per run for
    a constant estimate (``_loop_for``).

    ``MhC`` is ``Mk + h*Ck``, ``Wd`` the diagonal of W when solves against W
    are divisions, ``beta`` the scalar-implicit iteration factor, and
    ``iteration`` the implicit-vector iteration matrix ``Mk^{-1} A`` with its
    radial scale (building it checks that the step is well posed).  ``diag``
    holds the diagonals as floats (``_DiagLoop``) when the loop has one or
    two joints, every matrix is diagonal and W has no zero entry; None
    otherwise.
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
    diag: "_DiagLoop | None"


class _DiagLoop(NamedTuple):
    """A diagonal ``_Loop`` as floats: per joint j the record
    ``(Mk_jj, Gk_j, B_jj, Bhat_jj, W_jj, MhC_jj)`` and the diagonal of W."""

    shape: tuple    # (n,), the shape of the loop's vectors
    joints: tuple
    W: tuple


def _diag_loop(Mk, Gk, B, Bhat, W, MhC) -> _DiagLoop | None:
    if not (type(Gk) is np.ndarray and Gk.ndim == 1 and Gk.size in _FLOAT_JOINTS
            and Gk.dtype == float):
        return None
    square = (Gk.size, Gk.size)
    matrices = (Mk, B, Bhat, W, MhC)
    if not all(type(a) is np.ndarray and a.shape == square and a.dtype == float
               and _is_diagonal(a) for a in matrices):
        return None
    Mk, B, Bhat, W, MhC = (a.diagonal().tolist() for a in matrices)
    if 0.0 in W:
        return None
    return _DiagLoop(Gk.shape, tuple(zip(Mk, Gk.tolist(), B, Bhat, W, MhC)), tuple(W))


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
        iteration = _Iteration(np.linalg.solve(Mk, MhC + h * k1m))
    return _Loop(Mk, Gk, B, Bhat, W, MhC, _diagonal(W), beta, iteration,
                 _diag_loop(Mk, Gk, B, Bhat, W, MhC))


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

    A diagonal loop computes on floats, one joint at a time
    (``_candidate_joint``), bitwise equal to ``_inner_loop_candidate_arrays``.
    """
    if loop is None:
        loop = _evaluate_loop(model, q, state, g)
    d = loop.diag
    if d is not None and (d.shape == qx_star.shape == q.shape == u_s.shape == state.qx_prev.shape
                          == state.ux_prev.shape == state.q_prev.shape):
        h = g.h
        direct = g.us_coupling == "direct"
        if len(d.joints) == 1:
            _, q1, tau = _candidate_joint(d.joints[0], h, direct, q.item(), state.q_prev.item(),
                                          state.qx_prev.item(), state.ux_prev.item(), u_s.item(),
                                          qx_star.item())
            return np.array([q1]), np.array([tau])
        (y0, y1), (p0, p1), (x0, x1) = q.tolist(), state.q_prev.tolist(), state.qx_prev.tolist()
        (v0, v1), (u0, u1), (s0, s1) = state.ux_prev.tolist(), u_s.tolist(), qx_star.tolist()
        joint0, joint1 = d.joints
        b0, q0, tau0 = _candidate_joint(joint0, h, direct, y0, p0, x0, v0, u0, s0)
        b1, q1, tau1 = _candidate_joint(joint1, h, direct, y1, p1, x1, v1, u1, s1)
        # _solve hands a b with an exact zero to np.linalg.solve
        if b0 != 0.0 and b1 != 0.0 and _finite(q0, q1, tau0, tau1):
            return np.array([q0, q1]), np.array([tau0, tau1])
    return _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)


def _candidate_joint(joint: tuple, h: float, direct: bool, q: float, q_prev: float,
                     qx_prev: float, ux_prev: float, u_s: float, qx_star: float
                     ) -> tuple[float, float, float]:
    """One joint of ``inner_loop_candidate`` on floats: (b, q1_star, tau_star)
    with b the right-hand side of the solve against W.  Row j of a diagonal
    product ``A @ x`` is ``0.0 + A_jj*x_j`` (see ``_finite``)."""
    Mk, Gk, B, Bhat, W, MhC = joint
    hh = h * h
    tau_us = u_s if direct else 0.0 + Mk * u_s
    phi_a = (0.0 + MhC * q + h * (0.0 + B * q_prev)) / hh + Gk + tau_us
    phi_b = (0.0 + Mk * (qx_prev + h * ux_prev)) / hh + (0.0 + Bhat * qx_prev) / h
    b = phi_b - phi_a
    q1_star = q + b / W
    return b, q1_star, 0.0 + W * (qx_star - q1_star)


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
    v = state.msta_state.v
    if mode == "scalar-implicit":
        u, v_next, _, _ = sta_scalar_implicit_step(s.item(), g.msta, loop.beta, g.h, v.item())
        return np.array([u]), _unchecked(MstaState, v=np.array([v_next])), None
    if mode == "explicit":
        return (*_explicit(s, v, g.msta, g.h), None)
    return _solve_inclusion(s, loop.iteration, v, g.msta, g.h)


def _worst_probe(y_star: np.ndarray, y_proj: np.ndarray) -> list[np.ndarray]:
    """The corner p = sign(y_star - y_proj) of the unit box.

    The certificate d.(p - F^{-1} y_proj) is linear in p, so this single probe
    attains its maximum over the whole box.
    """
    return [np.sign(y_star - y_proj)]


def _clip_flags(limit: float, y_star: float, y: float) -> tuple[bool, float]:
    """One entry of the saturation flags ``|y_star| > F`` and of the worst
    probe ``_worst_probe(y_star, y)`` on floats: ``np.sign`` of y_star - y,
    which is +0.0 for either zero and keeps a NaN."""
    d = y_star - y
    return abs(y_star) > limit, 1.0 if d > 0.0 else -1.0 if d < 0.0 else 0.0 if d == 0.0 else d


def _correct_joint(W: float, h: float, tau: float, q1_star: float, qx_prev: float
                   ) -> tuple[float, float]:
    """One joint of the step's proxy correction on floats: qx = tau/W + q1_star
    and its rate."""
    qx = tau / W + q1_star
    return qx, (qx - qx_prev) / h


def admittance_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                    g: AdmittanceGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """One controller period; returns the projected torque, the advanced state,
    and the step diagnostics.

    The applied torque is exactly the box projection of the candidate, and the
    corrected proxy satisfies qx = W^{-1} tau + q1_star, so tau == tau_star
    implies qx == qx_star.  On a diagonal loop of one or two joints, each
    stage and the step's own arithmetic compute on floats, bitwise equal to
    the array code.
    """
    h = g.h
    loop = _loop_for(model, meas.q, state, g)

    ux_star, qx_star = proxy_predict(state, meas.fc, meas.fd, g)
    qe, s = sliding_variable(qx_star, meas.q, state, g)
    u_s, msta_next, solver_diag = _robust_term(s, loop, state, g)
    q1_star, tau_star = inner_loop_candidate(qx_star, meas.q, s, u_s, state, model, g,
                                             loop=loop)

    tau = project_box(tau_star, g.box)
    d = loop.diag
    qx = None
    if d is not None and d.shape == tau.shape == q1_star.shape == state.qx_prev.shape:
        limits = g.box._floats
        if len(limits) == 1:
            t, ts = tau.item(), tau_star.item()
            qx, qxd = _correct_joint(d.W[0], h, t, q1_star.item(), state.qx_prev.item())
            flag, sign = _clip_flags(limits[0], ts, t)
            qx, qxd, saturated, probes = np.array([qx]), np.array([qxd]), np.array([flag]), [sign]
        else:
            (t0, t1), (s0, s1) = tau.tolist(), tau_star.tolist()
            flag0, sign0 = _clip_flags(limits[0], s0, t0)
            flag1, sign1 = _clip_flags(limits[1], s1, t1)
            saturated, probes = np.array([flag0, flag1]), [[sign0, sign1]]
            if t0 != 0.0 and t1 != 0.0:     # else _solve hands tau to np.linalg.solve
                (q0, q1), (x0, x1) = q1_star.tolist(), state.qx_prev.tolist()
                qx0, qxd0 = _correct_joint(d.W[0], h, t0, q0, x0)
                qx1, qxd1 = _correct_joint(d.W[1], h, t1, q1, x1)
                qx, qxd = np.array([qx0, qx1]), np.array([qxd0, qxd1])
    else:
        saturated = np.abs(tau_star) > g.box.limits
        probes = _worst_probe(tau_star, tau)
    if qx is None:
        qx = _solve(loop.W, loop.Wd, tau) + q1_star
        qxd = (qx - state.qx_prev) / h
    vi_residual = variational_residual(tau_star, tau, g.box, probes)

    next_state = _unchecked(AdmittanceState, qx_prev=qx, qxd_prev=qxd, ux_prev=ux_star,
                            q_prev=meas.q.copy(), qe_prev=qe, msta_state=msta_next)
    diag = _unchecked(StepDiagnostics, tau_star=tau_star, tau=tau, qx_star=qx_star,
                      q1_star=q1_star, s=s, qe=qe, u_s=u_s, saturated=saturated,
                      lambda_vi_residual=vi_residual, solver=solver_diag)
    return tau, next_state, diag


def _naive_joint(kp: float, kd: float, h: float, qx: float, q: float, qe_prev: float,
                 gravity: float) -> tuple[float, float]:
    """One joint of the naive baseline's PD on floats: (qe, the raw torque)."""
    qe = qx - q
    return qe, kp * qe + kd * ((qe - qe_prev) / h) + gravity


def baseline_naive_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                        ng: NaiveGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """Clamped proxy-PD baseline.

    The proxy integrates the measured and desired forces with no feedback from
    the applied torque, and the position loop is a gravity-compensated PD whose
    output is hard-clamped to the torque box.  For one or two joints the
    arithmetic is on floats, bitwise equal to the array code.
    """
    h = ng.h
    ux, qx = proxy_predict(state, meas.fc, meas.fd, ng)
    gravity = model.gravity_fn(meas.q)
    limits = ng.box._floats
    if (limits is not None and type(gravity) is np.ndarray and gravity.dtype == float
            and ng.box.limits.shape == qx.shape == meas.q.shape == state.qe_prev.shape
            == gravity.shape):
        kp, kd = ng.kp, ng.kd
        if len(limits) == 1:
            e, raw = _naive_joint(kp, kd, h, qx.item(), meas.q.item(), state.qe_prev.item(),
                                  gravity.item())
            qe, tau_raw = np.array([e]), np.array([raw])
            tau = project_box(tau_raw, ng.box)
            flag, sign = _clip_flags(limits[0], raw, tau.item())
            saturated, probes = np.array([flag]), [sign]
        else:
            (x0, x1), (y0, y1) = qx.tolist(), meas.q.tolist()
            (p0, p1), (c0, c1) = state.qe_prev.tolist(), gravity.tolist()
            e0, raw0 = _naive_joint(kp, kd, h, x0, y0, p0, c0)
            e1, raw1 = _naive_joint(kp, kd, h, x1, y1, p1, c1)
            qe, tau_raw = np.array([e0, e1]), np.array([raw0, raw1])
            tau = project_box(tau_raw, ng.box)
            t0, t1 = tau.tolist()
            flag0, sign0 = _clip_flags(limits[0], raw0, t0)
            flag1, sign1 = _clip_flags(limits[1], raw1, t1)
            saturated, probes = np.array([flag0, flag1]), [[sign0, sign1]]
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
    diag = _unchecked(StepDiagnostics, tau_star=tau_raw, tau=tau, qx_star=qx,
                      q1_star=meas.q.copy(), s=zero, qe=qe, u_s=zero, saturated=saturated,
                      lambda_vi_residual=vi_residual, solver=None)
    return tau, next_state, diag
