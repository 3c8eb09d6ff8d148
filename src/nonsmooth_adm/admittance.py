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

Both controllers take one or two joints and compute each period on Python
floats.  A period reads each input vector once, as a list of floats, hands
lists of floats from stage to stage, and builds an array only for a value it
returns.  Each stage has one body on lists (``_proxy``, ``_sliding``,
``_robust``, ``_candidate``, ``_naive_pd`` and the box's ``_clip``); the
public stage functions ``proxy_predict`` and ``inner_loop_candidate`` are
array wrappers that check the entry counts, call the same body and build
arrays of its results.  A step builds its state with ``_admittance_state``,
which skips the public constructor's checks, and its diagnostics with their
own plain constructors.  A matrix is a row-major tuple of floats.  Row i of
a two-joint product A x is written ``0.0 + A_i0*x_0 + A_i1*x_1``; with a
zero off-diagonal entry and a finite other entry of x that is the one-joint
``0.0 + A_ii*x_i`` bit for bit.  A solve is ``setvalued._solve2``, which
divides row by row when the matrix is diagonal.  So a diagonal loop, as with
every preset, computes each joint as a one-joint loop would.  The same
stages on numpy arrays are kept in the tests, as the oracle that this code
is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Union

import numpy as np

from .msta import (
    MstaGains,
    SolverDiagnostics,
    _check_period,
    _explicit,
    _Iteration,
    _iteration_matrix,
    _solve_inclusion,
    _sta_scalar,
    msta_explicit_step,  # noqa: F401  (perfbench traces it under this name)
    msta_implicit_decoupled_step,  # noqa: F401  (perfbench traces it under this name)
    solve_shat_vector,  # noqa: F401  (perfbench traces it under this name)
    sta_scalar_implicit_step,  # noqa: F401  (perfbench traces it under this name)
)
from .setvalued import (
    BoxConstraint,
    _all_finite,
    _certificate,
    _clip_flags,
    _entries,
    _finite_vector,
    _project,
    _read_only,
    _require_finite,
    _solve2,
    _vector,
    project_box,  # noqa: F401  (perfbench traces it under this name)
    variational_residual,  # noqa: F401  (perfbench traces it under this name)
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


def _set_proxy(gains) -> None:
    """Check mx, bx and h of ``gains``, keep mx and bx as read-only copies,
    and derive for ``proxy_predict`` the pair ``_proxy`` of mx and
    ``mx + bx*h`` as float tuples.  The checks on mx and bx make
    ``mx + bx*h`` nonsingular; the box has already refused more than two
    joints."""
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
    object.__setattr__(gains, "mx", _read_only(mx))
    object.__setattr__(gains, "bx", _read_only(bx))
    object.__setattr__(gains, "_proxy", (_entries(mx), _entries(mx + bx * gains.h)))


@dataclass(frozen=True)
class AdmittanceGains:
    """Controller parameters.

    mx, bx are the proxy inertia and damping (n x n), lam the error-mixing
    rate, k1 either a scalar linear gain or the literal string "structured"
    for -C + gamma1*M, box the torque limits, h the controller period, and
    us_mode selects the inner-loop discretization ("auto" picks the scalar
    implicit form for one joint and the explicit form otherwise;
    "implicit-vector" solves the loop's inclusion, by its radial closed form
    when the iteration matrix G is a multiple of I and k4 = 0 and by a
    scalar root otherwise, which needs G + G^T positive definite).  us_coupling, checked
    to be "direct", has no choice to make: the robust term acts as a
    generalized force.

    The controller takes one or two joints: its box refuses more.  mx and
    bx are kept as read-only copies.  The constants that depend on the gains
    alone are derived once, in ``__post_init__``, as private attributes (not
    fields, so ``dataclasses.replace`` derives them afresh): the resolved
    inner-loop mode, mx and ``mx + bx*h`` as float tuples, and for a scalar
    k1 the matrix ``k1*I``.  The "scalar-implicit" mode needs one joint.  The gains
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
        if self.us_coupling != "direct":
            raise ValueError(f'us_coupling must be "direct", got {self.us_coupling!r}')
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
    way, with ``mx + bx*h`` derived once.
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


_STATE_VECTORS = ("qx_prev", "qxd_prev", "ux_prev", "q_prev", "qe_prev", "v_prev")


@dataclass(frozen=True)
class AdmittanceState:
    """Controller memory between sampling instants."""

    qx_prev: np.ndarray      # proxy position at k-1
    qxd_prev: np.ndarray     # proxy velocity at k-1
    ux_prev: np.ndarray      # unconstrained proxy velocity candidate at k-1
    q_prev: np.ndarray       # measured position at k-1
    qe_prev: np.ndarray      # predicted tracking error at k-1
    v_prev: np.ndarray       # integrator state v of the robust term at k-1

    def __post_init__(self) -> None:
        for name in _STATE_VECTORS:
            object.__setattr__(self, name, _finite_vector(getattr(self, name), name))
        # the robust term indexes v entry by entry
        sizes = {getattr(self, name).size for name in _STATE_VECTORS}
        if len(sizes) > 1:
            raise ValueError(f"the state vectors have different numbers of entries: "
                             f"{sorted(sizes)}")


def _admittance_state(qx_prev: np.ndarray, qxd_prev: np.ndarray, ux_prev: np.ndarray,
                      q_prev: np.ndarray, qe_prev: np.ndarray,
                      v_prev: np.ndarray) -> AdmittanceState:
    """``AdmittanceState(...)`` without ``__post_init__``, for the float
    vectors a step computes from checked inputs: the public constructor
    would convert and check them again.  The class is frozen, so the fields
    go into the instance dict, in field order."""
    obj = object.__new__(AdmittanceState)
    d = obj.__dict__
    d["qx_prev"] = qx_prev
    d["qxd_prev"] = qxd_prev
    d["ux_prev"] = ux_prev
    d["q_prev"] = q_prev
    d["qe_prev"] = qe_prev
    d["v_prev"] = v_prev
    return obj


@dataclass(frozen=True)
class Measurement:
    """Sampled inputs: position, joint-space contact force, desired force."""

    q: np.ndarray
    fc: np.ndarray
    fd: np.ndarray

    def __post_init__(self) -> None:
        for name in ("q", "fc", "fd"):
            object.__setattr__(self, name, _finite_vector(getattr(self, name),
                                                          f"measurement {name}"))


def _measurement(q: np.ndarray, fc: np.ndarray, fd: np.ndarray) -> Measurement:
    """``Measurement(q, fc, fd)`` without ``__post_init__``, for float
    vectors the caller has already checked; as ``_admittance_state``."""
    obj = object.__new__(Measurement)
    d = obj.__dict__
    d["q"] = q
    d["fc"] = fc
    d["fd"] = fd
    return obj


@dataclass
class StepDiagnostics:
    """Per-step internals for logging and verification.  Not frozen: a step
    builds one every period, and a frozen constructor costs about five times
    as much."""

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
                           zero.copy())


def _floats(x, name: str, n: int) -> list:
    """x as a list of floats, refused with a ValueError naming ``name`` (and
    the gains' joint count n) unless it is a finite vector of n entries."""
    x = _finite_vector(x, name)
    if x.size != n:
        raise ValueError(f"{name} has {x.size} entries; the gains' joint count is {n}")
    return x.tolist()


def proxy_predict(state: AdmittanceState, fc: np.ndarray, fd: np.ndarray,
                  g: AdmittanceGains) -> tuple[np.ndarray, np.ndarray]:
    """Implicit proxy update ignoring the torque constraint.

    ux_star = (mx + bx*h)^{-1} (mx*qxd_prev + h*(fc + fd)),
    qx_star = qx_prev + h*ux_star.  ``g`` may also be ``NaiveGains``.
    Returns (ux_star, qx_star) as arrays; an input of another entry count
    than the gains' joints, or with a non-finite entry, raises ValueError
    naming it.
    """
    n = g.box.dim
    fc, fd = _floats(fc, "fc", n), _floats(fd, "fd", n)
    ux, qx = _proxy(g, _floats(state.qxd_prev, "state qxd_prev", n),
                    _floats(state.qx_prev, "state qx_prev", n), fc, fd)
    return np.array(ux), np.array(qx)


def _proxy(g, qxd_prev: list, qx_prev: list, fc: list, fd: list) -> tuple[list, list]:
    """``proxy_predict`` on lists of floats: (ux_star, qx_star)."""
    h = g.h
    mx, P = g._proxy
    if len(P) == 1:
        ux = (0.0 + mx[0] * qxd_prev[0] + h * (fc[0] + fd[0])) / P[0]
        return [ux], [qx_prev[0] + h * ux]
    (v0, v1), (f0, f1), (d0, d1), (x0, x1) = qxd_prev, fc, fd, qx_prev
    u0, u1 = _solve2(P, 0.0 + mx[0] * v0 + mx[1] * v1 + h * (f0 + d0),
                     0.0 + mx[2] * v0 + mx[3] * v1 + h * (f1 + d1))
    return [u0, u1], [x0 + h * u0, x1 + h * u1]


def _sliding(g: AdmittanceGains, qx_star: list, q: list, qe_prev: list) -> tuple[list, list]:
    """Tracking error qe against the predicted proxy and the sliding
    variable s = qed + lam*qe on lists of floats: (qe, s).  qe uses the
    predicted proxy position (the corrected one is not known yet); its rate
    qed is the backward difference against the stored previous error."""
    h, lam = g.h, g.lam
    if len(q) == 1:
        qe = qx_star[0] - q[0]
        return [qe], [(qe - qe_prev[0]) / h + lam * qe]
    (x0, x1), (y0, y1), (p0, p1) = qx_star, q, qe_prev
    qe0, qe1 = x0 - y0, x1 - y1
    return [qe0, qe1], [(qe0 - p0) / h + lam * qe0, (qe1 - p1) / h + lam * qe1]


class _Loop(NamedTuple):
    """The estimate at the measured position and the inner-loop matrices
    built from it, as float tuples (``_entries``): evaluated once per
    controller period, or once per run for a constant estimate
    (``_loop_for``).

    ``MhC`` is ``Mk + h*Ck``, ``beta`` the scalar-implicit iteration factor,
    and ``iteration`` the implicit-vector iteration matrix ``Mk^{-1} A`` with
    its radial scale (building it checks that the step is well posed).
    """

    Mk: tuple
    Gk: tuple
    B: tuple
    Bhat: tuple
    W: tuple
    MhC: tuple
    beta: float | None
    iteration: _Iteration | None


def _evaluate_loop(model: ModelEstimate, q: np.ndarray, state: AdmittanceState,
                   g: AdmittanceGains) -> _Loop:
    """Build the period's loop; a singular W, or under "implicit-vector" a
    singular Mk, raises ``np.linalg.LinAlgError``."""
    h = g.h
    Mk = model.mass_fn(q)
    Ck = model.coriolis_fn(q, (q - state.q_prev) / h)
    Gk = model.gravity_fn(q)
    n = q.size
    _check_estimate_shape("mass_fn", Mk, (n, n))
    _check_estimate_shape("coriolis_fn", Ck, (n, n))
    _check_estimate_shape("gravity_fn", Gk, (n,))
    k1m = g._k1m if g._k1m is not None else -Ck + g.msta.gamma1 * Mk
    B = Mk * g.lam + k1m
    K = (Ck + k1m) * g.lam
    Bhat = B + Ck
    Khat = Bhat / h + K
    W = Mk / (h * h) + Khat
    MhC = Mk + Ck * h
    beta = _scalar_beta(g, Mk, Ck) if g._us_mode == "scalar-implicit" else None
    iteration = _Iteration(_iteration_matrix(Mk, MhC + h * k1m)) \
        if g._us_mode == "implicit-vector" else None
    loop = _Loop(*map(_entries, (Mk, Gk, B, Bhat, W, MhC)), beta, iteration)
    try:
        _solve2(loop.W, 1.0, 1.0) if n == 2 else 1.0 / loop.W[0]
    except ZeroDivisionError:
        raise np.linalg.LinAlgError("Singular matrix") from None
    return loop


def _check_estimate_shape(name: str, x, shape: tuple) -> None:
    """Raise ValueError naming the estimate's function when its value ``x``
    does not have ``shape``, the one the gains' joint count needs."""
    if (x.shape if type(x) is np.ndarray else np.shape(x)) != shape:
        raise ValueError(f"the estimate's {name} returns shape {np.shape(x)}; "
                         f"the gains' joint count {shape[0]} needs {shape}")


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


def inner_loop_candidate(qx_star: np.ndarray, q: np.ndarray,
                         u_s: np.ndarray, state: AdmittanceState, model: ModelEstimate,
                         g: AdmittanceGains, *, loop: _Loop | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained torque candidate of the implicit inner loop.

    The sliding variable enters through the gain matrices; u_s is the robust
    term evaluated beforehand, added as a generalized force.  Returns
    (q1_star, tau_star) as arrays, with

        q1_star  = q + W^{-1} (phi_b - phi_a),
        phi_a    = (MhC q + h B q_prev) / h^2 + Gk + u_s,
        phi_b    = Mk (qx_prev + h ux_prev) / h^2 + Bhat qx_prev / h,
        tau_star = W (qx_star - q1_star).

    ``loop`` is the period's evaluated estimate and matrices; it is built
    here when omitted.  An input of another entry count than the gains'
    joints, or with a non-finite entry, raises ValueError naming it.
    """
    n = g.box.dim
    qx_star, y, u_s = _floats(qx_star, "qx_star", n), _floats(q, "q", n), _floats(u_s, "u_s", n)
    qx_prev = _floats(state.qx_prev, "state qx_prev", n)
    ux_prev = _floats(state.ux_prev, "state ux_prev", n)
    q_prev = _floats(state.q_prev, "state q_prev", n)
    if loop is None:
        loop = _evaluate_loop(model, _vector(q), state, g)
    q1_star, tau_star = _candidate(loop, g.h, qx_star, y, u_s, qx_prev, ux_prev, q_prev)
    return np.array(q1_star), np.array(tau_star)


def _candidate(loop: _Loop, h: float, qx_star: list, q: list, u_s: list, qx_prev: list,
               ux_prev: list, q_prev: list) -> tuple[list, list]:
    """``inner_loop_candidate`` on lists of floats: (q1_star, tau_star)."""
    hh = h * h
    Mk, Gk, B, Bhat, W, MhC = loop.Mk, loop.Gk, loop.B, loop.Bhat, loop.W, loop.MhC
    if len(W) == 1:
        y, x = q[0], qx_prev[0]
        phi_a = (0.0 + MhC[0] * y + h * (0.0 + B[0] * q_prev[0])) / hh + Gk[0] + u_s[0]
        phi_b = (0.0 + Mk[0] * (x + h * ux_prev[0])) / hh + (0.0 + Bhat[0] * x) / h
        q1 = y + (phi_b - phi_a) / W[0]
        return [q1], [0.0 + W[0] * (qx_star[0] - q1)]
    (y0, y1), (p0, p1), (x0, x1) = q, q_prev, qx_prev
    (v0, v1), (u0, u1), (s0, s1) = ux_prev, u_s, qx_star
    z0, z1 = x0 + h * v0, x1 + h * v1
    a0 = (0.0 + MhC[0] * y0 + MhC[1] * y1 + h * (0.0 + B[0] * p0 + B[1] * p1)) / hh + Gk[0] + u0
    a1 = (0.0 + MhC[2] * y0 + MhC[3] * y1 + h * (0.0 + B[2] * p0 + B[3] * p1)) / hh + Gk[1] + u1
    b0 = (0.0 + Mk[0] * z0 + Mk[1] * z1) / hh + (0.0 + Bhat[0] * x0 + Bhat[1] * x1) / h
    b1 = (0.0 + Mk[2] * z0 + Mk[3] * z1) / hh + (0.0 + Bhat[2] * x0 + Bhat[3] * x1) / h
    d0, d1 = _solve2(W, b0 - a0, b1 - a1)
    q10, q11 = y0 + d0, y1 + d1
    e0, e1 = s0 - q10, s1 - q11
    return [q10, q11], [0.0 + W[0] * e0 + W[1] * e1, 0.0 + W[2] * e0 + W[3] * e1]


def _scalar_beta(g: AdmittanceGains, Mk: np.ndarray, Ck: np.ndarray) -> float:
    if g.k1 == "structured":
        gamma1 = g.msta.gamma1
    else:
        gamma1 = (float(g.k1) + Ck[0, 0]) / Mk[0, 0]
    return max(1.0, 1.0 + g.h * gamma1)


def _robust(s: list, loop: _Loop, v: list, g: AdmittanceGains
            ) -> tuple[list, list, SolverDiagnostics | None]:
    """The robust term on lists of floats, through the configured
    discretization's body: (u_s, v_next, the solve's diagnostics or None)."""
    mode = g._us_mode
    if mode == "scalar-implicit":
        u, v_next, _, _ = _sta_scalar(s[0], g.msta, loop.beta, g.h, v[0])
        return [u], [v_next], None
    if mode == "explicit":
        u, v_next = _explicit(s, v, g.msta, g.h)
        return u, v_next, None
    return _solve_inclusion(s, loop.iteration, v, g.msta, g.h)


def _clip(y_star: list, limits: tuple) -> tuple[list, np.ndarray, float]:
    """Project a step's candidate, a list of floats, onto the box of
    ``limits``: (y, the saturation flags ``|y_star| > F`` as an array, the
    projection certificate).  y is y_star itself when no entry is clamped.
    The certificate is ``variational_residual``'s, evaluated by the same
    ``_clip_flags`` corner and ``_certificate`` row.
    """
    y = _project(y_star, limits)
    if len(limits) == 1:
        flag, probe = _clip_flags(limits[0], y_star[0], y[0])
        return y, np.array([flag]), _certificate(y_star, y, limits, [probe])
    flag0, sign0 = _clip_flags(limits[0], y_star[0], y[0])
    flag1, sign1 = _clip_flags(limits[1], y_star[1], y[1])
    return y, np.array([flag0, flag1]), _certificate(y_star, y, limits, [sign0, sign1])


def _check_entry_counts(state: AdmittanceState, meas: Measurement, box: BoxConstraint) -> None:
    """Raise ValueError naming the first measurement vector, or the state,
    whose entry count is not the gains' joint count.  The vectors are 1-D,
    as their constructors check, so their lengths are their entry counts."""
    n = len(box.limits)
    if n == len(meas.q) == len(meas.fc) == len(meas.fd) == len(state.qx_prev):
        return
    for name, x in (("measurement q", meas.q), ("measurement fc", meas.fc),
                    ("measurement fd", meas.fd), ("state qx_prev", state.qx_prev)):
        if len(x) != n:
            raise ValueError(f"{name} has {len(x)} entries; the gains' joint count is {n}")


def admittance_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                    g: AdmittanceGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """One controller period; returns the projected torque, the advanced state,
    and the step diagnostics.

    The applied torque is exactly the box projection of the candidate, and the
    corrected proxy satisfies qx = W^{-1} tau + q1_star, so tau == tau_star
    implies qx == qx_star.

    The returned arrays are shared where their values are equal: on a step
    that saturates no joint, ``tau is diag.tau_star`` (the projection returns
    its candidate), and ``diag.qe is next_state.qe_prev``.  A caller that
    mutates one of them must copy it first.  Every other returned array is
    new, and no other array is built.
    """
    _check_entry_counts(state, meas, g.box)
    h = g.h
    loop = _loop_for(model, meas.q, state, g)
    q, fc, fd = meas.q.tolist(), meas.fc.tolist(), meas.fd.tolist()
    qx_prev, qxd_prev, ux_prev = state.qx_prev.tolist(), state.qxd_prev.tolist(), \
        state.ux_prev.tolist()
    q_prev, qe_prev, v_prev = state.q_prev.tolist(), state.qe_prev.tolist(), state.v_prev.tolist()

    ux_star, qx_star = _proxy(g, qxd_prev, qx_prev, fc, fd)
    qe, s = _sliding(g, qx_star, q, qe_prev)
    u_s, v_next, solver_diag = _robust(s, loop, v_prev, g)
    q1_star, tau_star = _candidate(loop, h, qx_star, q, u_s, qx_prev, ux_prev, q_prev)
    tau, saturated, vi_residual = _clip(tau_star, g.box._floats)

    W = loop.W
    if len(W) == 1:
        x = tau[0] / W[0] + q1_star[0]
        qx, qxd = [x], [(x - qx_prev[0]) / h]
    else:
        d0, d1 = _solve2(W, tau[0], tau[1])
        x0, x1 = d0 + q1_star[0], d1 + q1_star[1]
        qx, qxd = [x0, x1], [(x0 - qx_prev[0]) / h, (x1 - qx_prev[1]) / h]

    ux_a, qx_star_a, qe_a, s_a = np.array(ux_star), np.array(qx_star), np.array(qe), np.array(s)
    u_s_a, v_next_a, q1_star_a, tau_star_a = np.array(u_s), np.array(v_next), np.array(q1_star), \
        np.array(tau_star)
    tau_a = tau_star_a if tau is tau_star else np.array(tau)
    next_state = _admittance_state(np.array(qx), np.array(qxd), ux_a, np.array(meas.q), qe_a,
                                   v_next_a)
    diag = StepDiagnostics(tau_star_a, tau_a, qx_star_a, q1_star_a, s_a, qe_a, u_s_a, saturated,
                           vi_residual, solver_diag)
    return tau_a, next_state, diag


def _naive_pd(ng: NaiveGains, qx: list, q: list, qe_prev: list, gravity: list
              ) -> tuple[list, list]:
    """The naive baseline's gravity-compensated PD on lists of floats:
    (qe, the raw torque)."""
    kp, kd, h = ng.kp, ng.kd, ng.h
    if len(q) == 1:
        e = qx[0] - q[0]
        return [e], [kp * e + kd * ((e - qe_prev[0]) / h) + gravity[0]]
    (x0, x1), (y0, y1), (p0, p1), (c0, c1) = qx, q, qe_prev, gravity
    e0, e1 = x0 - y0, x1 - y1
    return [e0, e1], [kp * e0 + kd * ((e0 - p0) / h) + c0, kp * e1 + kd * ((e1 - p1) / h) + c1]


def baseline_naive_step(state: AdmittanceState, meas: Measurement, model: ModelEstimate,
                        ng: NaiveGains) -> tuple[np.ndarray, AdmittanceState, StepDiagnostics]:
    """Clamped proxy-PD baseline.

    The proxy integrates the measured and desired forces with no feedback from
    the applied torque, and the position loop is a gravity-compensated PD whose
    output is hard-clamped to the torque box.  As in ``admittance_step``,
    ``tau is diag.tau_star`` on a step that saturates no joint, and
    ``diag.q1_star is next_state.q_prev``; the state's v is the given one.
    """
    _check_entry_counts(state, meas, ng.box)
    ux, qx = _proxy(ng, state.qxd_prev.tolist(), state.qx_prev.tolist(), meas.fc.tolist(),
                    meas.fd.tolist())
    gravity = model.gravity_fn(meas.q)
    _check_estimate_shape("gravity_fn", gravity, (len(qx),))
    qe, tau_raw = _naive_pd(ng, qx, meas.q.tolist(), state.qe_prev.tolist(),
                            _vector(gravity).tolist())
    tau, saturated, vi_residual = _clip(tau_raw, ng.box._floats)
    tau_raw_a, qx_a, ux_a, qe_a = np.array(tau_raw), np.array(qx), np.array(ux), np.array(qe)
    tau_a = tau_raw_a if tau is tau_raw else np.array(tau)
    zero, q = np.zeros(len(qe)), np.array(meas.q)
    next_state = _admittance_state(qx_a, ux_a, ux_a, q, qe_a, state.v_prev)
    diag = StepDiagnostics(tau_raw_a, tau_a, qx_a, q, zero, qe_a, zero, saturated, vi_residual)
    return tau_a, next_state, diag
