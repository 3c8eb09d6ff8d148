"""Discretizations of the robust inner loop.

The inner loop is a (multivariable) super-twisting law

    u_s = k2 * s / ||s||^{1/2} + v,      dv = k3 * s / ||s|| + k4 * s,

and this module provides its discrete-time realizations:

* ``msta_explicit_step``          -- forward-Euler stepping (chatters),
* ``solve_shat_vector``           -- proximal solve of the implicit nominal
                                     state for a general iteration matrix,
* ``msta_implicit_step``          -- implicit step built on that solve,
* ``msta_implicit_decoupled_step``-- implicit step with the structured gain
                                     that reduces the matrix to a scalar,
* ``sta_scalar_implicit_step``    -- closed-form scalar implicit step,
* ``msta_error_recursion_step``   -- the coupled nominal error recursion used
                                     by the stability and disturbance tests.

The implicit variants compute the discontinuous selection by a proximal map
instead of a sign evaluation, which is what removes numerical chattering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .setvalued import (
    NormQuadWeights,
    _all_finite,
    _matrix,
    _norm,
    _read_only,
    _require_finite,
    _unchecked,
    _vector,
    prox_norm_quad,
)

__all__ = [
    "MstaGains",
    "MstaState",
    "SolverDiagnostics",
    "SolverConvergenceError",
    "msta_explicit_step",
    "solve_shat_vector",
    "msta_implicit_step",
    "msta_implicit_decoupled_step",
    "sta_scalar_implicit_step",
    "msta_error_recursion_step",
    "norm_quad_value",
]


@dataclass(frozen=True)
class MstaGains:
    """Gains of the inner loop.

    k2, k3 are the square-root and integrator gains, k4 an optional linear
    integrator gain, gamma1 the structured linear-feedback rate (the inner
    linear gain is -C + gamma1*M), mu the proximal relaxation parameter, and
    fp_tol / fp_max_iter control the implicit fixed-point solve.
    """

    k2: float
    k3: float
    k4: float = 0.0
    gamma1: float = 0.0
    mu: float = 0.5
    fp_tol: float = 1e-12
    fp_max_iter: int = 100

    def __post_init__(self) -> None:
        _require_finite(self, "k2", "k3", "k4", "gamma1", "mu", "fp_tol")
        if self.k2 <= 0.0 or self.k3 <= 0.0:
            raise ValueError("k2 and k3 must be positive")
        if self.k4 < 0.0:
            raise ValueError("k4 must be nonnegative")
        if self.gamma1 < 0.0:
            raise ValueError("gamma1 must be nonnegative")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.fp_tol <= 0.0 or self.fp_max_iter < 1:
            raise ValueError("fp_tol must be positive and fp_max_iter >= 1")

    @property
    def alpha2(self) -> float:
        return self.k4 / self.k3


@dataclass(frozen=True)
class MstaState:
    """Integrator memory of the twisting term."""

    v: np.ndarray

    def __post_init__(self) -> None:
        v = _vector(self.v)
        if not _all_finite(v):
            raise ValueError("integrator state v must be finite")
        object.__setattr__(self, "v", v)

    @staticmethod
    def zero(dof: int) -> "MstaState":
        return MstaState(np.zeros(dof))


@dataclass(frozen=True)
class SolverDiagnostics:
    """Result of the implicit nominal-state solve."""

    iterations: int
    residual: float
    converged: bool
    shat: np.ndarray
    m2: np.ndarray


class SolverConvergenceError(RuntimeError):
    """Raised when the proximal fixed-point solve does not converge."""

    def __init__(self, message: str, diagnostics: SolverDiagnostics | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics


def msta_explicit_step(
    s: np.ndarray, state: MstaState, g: MstaGains, h: float
) -> tuple[np.ndarray, MstaState]:
    """Forward-Euler step of the twisting law; normalized terms vanish at s = 0."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    s = _vector(s)
    ns = _norm(s)
    if ns > 0.0:
        u_s = state.v + g.k2 * s / math.sqrt(ns)
        v_next = state.v + h * g.k3 * s / ns + g.k4 * s
    else:
        u_s = state.v.copy()
        v_next = state.v.copy()
    return u_s, _unchecked(MstaState, v=v_next)


def _explicit_floats(s: np.ndarray, v: list, g: MstaGains, h: float
                     ) -> tuple[np.ndarray, MstaState]:
    """``msta_explicit_step`` on the floats ``v`` of the state, bitwise equal
    to it: the step is entrywise but for ||s||, which is numpy's (``_norm``)."""
    ns = _norm(s)
    if not ns > 0.0:
        return np.array(v), _unchecked(MstaState, v=np.array(v))
    s = s.tolist()
    k2, hk3, k4 = g.k2, h * g.k3, g.k4
    root = math.sqrt(ns)
    u_s, v_next = [], []
    for j, y in enumerate(s):
        u_s.append(v[j] + k2 * y / root)
        v_next.append(v[j] + hk3 * y / ns + k4 * y)
    return np.array(u_s), _unchecked(MstaState, v=np.array(v_next))


def _radial_magnitude(norm_s: float, c: float, g: MstaGains, h: float) -> float:
    """Positive root w = ||shat||^{1/2} of the radial inclusion for a scalar
    iteration matrix c:

        c*w^2 + h*(k2*w + h*k3) * (1 + alpha2*w^2) = norm_s.

    The caller guarantees norm_s > h^2*k3 so the root is strictly positive.
    """
    rhs = norm_s - h * h * g.k3
    a2 = g.alpha2
    if a2 == 0.0:
        # quadratic c*w^2 + h*k2*w - rhs = 0, conjugate form for stability
        disc = (h * g.k2) ** 2 + 4.0 * c * rhs
        return 2.0 * rhs / (h * g.k2 + math.sqrt(disc))
    # monotone cubic; Newton with a bisection bracket
    c3 = h * a2 * g.k2
    c2 = c + h * h * g.k3 * a2
    c1 = h * g.k2

    def f(w: float) -> float:
        return ((c3 * w + c2) * w + c1) * w - rhs

    lo, hi = 0.0, math.sqrt(norm_s / c)
    w = min(hi, math.sqrt(rhs / c))
    for _ in range(100):
        fw = f(w)
        if fw > 0.0:
            hi = w
        else:
            lo = w
        dfw = (3.0 * c3 * w + 2.0 * c2) * w + c1
        w_new = w - fw / dfw
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
        if abs(w_new - w) <= 1e-16 * (1.0 + w):
            return w_new
        w = w_new
    return w


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return _read_only(np.eye(n))


def _choose_mu(G: np.ndarray | float, mu0: float) -> float:
    """Largest mu <= mu0 (by halving) with G + G^T - mu*G^T G positive definite.

    A float G stands for a 1 x 1 matrix, whose only eigenvalue is the matrix
    entry 2G - mu*G^2 itself.
    """
    if not isinstance(G, float) and G.shape == (1, 1):
        G = float(G[0, 0])
    scalar = isinstance(G, float)
    mu = mu0
    for _ in range(80):
        if scalar:
            positive = (G + G) - mu * (G * G) > 0.0
        else:
            m = G + G.T - mu * (G.T @ G)
            positive = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min()) > 0.0
        if positive:
            return mu
        mu *= 0.5
    raise SolverConvergenceError("no relaxation parameter satisfies the positivity condition")


def _gamma(x: np.ndarray, g: MstaGains, h: float) -> float:
    """gamma(x) = k2*||x||^{1/2} + h*k3."""
    return g.k2 * math.sqrt(_norm(x)) + h * g.k3


def _fixed_point_residual(
    x: np.ndarray, s: np.ndarray, G: np.ndarray, g: MstaGains, h: float, mu: float,
    gam: float,
) -> float:
    """||x - prox(x - mu*G x + mu*s)|| with the prox weights of gam = gamma(x)."""
    w = NormQuadWeights(h * gam, h * gam * g.alpha2)
    t = prox_norm_quad(x - mu * (G @ x) + mu * s, mu, w)
    return _norm(x - t)


class _Iteration:
    """The iteration matrix G of the inclusion, with what depends on G alone.

    ``prepared`` classifies G and chooses its relaxation parameter from mu0;
    only a solve outside the sliding band needs it, and it is worked out
    once per object.  It is ``(scale, mu, eye_minus)``: ``scale`` is
    tr(G)/n when G is a positive multiple of I (the inclusion is then radial
    and solved in closed form) and None otherwise, and ``eye_minus`` is
    I - mu*G for the fixed point iteration (None in the radial case).
    """

    def __init__(self, G: np.ndarray, mu0: float):
        self.G = G
        self.mu0 = mu0

    @cached_property
    def prepared(self) -> tuple[float | None, float, np.ndarray | None]:
        G = self.G
        n = G.shape[0]
        tr = float(np.trace(G)) / n
        off = G - tr * _eye(n)
        if float(np.abs(off).max()) <= 1e-12 * max(1.0, abs(tr)) and tr > 0.0:
            return tr, _choose_mu(tr, self.mu0), None
        mu = _choose_mu(G, self.mu0)
        return None, mu, _eye(n) - mu * G


def _solve_inclusion(s: np.ndarray, iteration: _Iteration, g: MstaGains, h: float
                     ) -> SolverDiagnostics:
    """Nominal-state solve: find shat with

        G @ shat + h * gamma(shat) * m2 = s,   m2 in subdiff Psi2(shat),

    where G = iteration.G, gamma(x) = k2*||x||^{1/2} + h*k3 and
    Psi2 = ||.|| + (alpha2/2)||.||^2.  Equivalent fixed point:
    shat = prox_{mu*h*gamma*Psi2}((I - mu*G) shat + mu*s).
    """
    n = s.size
    ns = _norm(s)
    tol = g.fp_tol * (1.0 + ns)
    dead_band = h * h * g.k3

    if ns <= dead_band:
        # discrete sliding: shat = 0 exactly, selection taken inside the unit ball
        return SolverDiagnostics(1, 0.0, True, np.zeros(n), s / dead_band)

    G = iteration.G
    tr, mu, eye_minus = iteration.prepared
    if tr is not None:
        # scalar iteration matrix: the inclusion is radial and solved exactly
        w = _radial_magnitude(ns, tr, g, h)
        shat = (w * w / ns) * s
        gam = g.k2 * w + h * g.k3
        m2 = (s - tr * shat) / (h * gam)
        res = _fixed_point_residual(shat, s, G, g, h, mu, _gamma(shat, g, h))
        return SolverDiagnostics(1, res, res <= tol, shat, m2)

    x = np.zeros(n)
    omega = 1.0
    best = math.inf
    res = math.inf
    for it in range(1, g.fp_max_iter + 1):
        gam = _gamma(x, g, h)
        weights = NormQuadWeights(h * gam, h * gam * g.alpha2)
        t = prox_norm_quad(eye_minus @ x + mu * s, mu, weights)
        res = _norm(t - x)
        if res <= tol:
            x = t
            gam = _gamma(x, g, h)
            m2 = (s - G @ x) / (h * gam)
            final = _fixed_point_residual(x, s, G, g, h, mu, gam)
            return SolverDiagnostics(it, final, True, x, m2)
        if res >= best:
            omega = max(0.125, 0.5 * omega)  # damp oscillating iterates
        best = min(best, res)
        x = (1.0 - omega) * x + omega * t

    gam = _gamma(x, g, h)
    diag = SolverDiagnostics(g.fp_max_iter, res, False, x, (s - G @ x) / (h * gam))
    raise SolverConvergenceError(
        f"implicit solve did not reach tol={tol:.3e} in {g.fp_max_iter} iterations "
        f"(residual {res:.3e}); check conditioning of the iteration matrix or mu",
        diag,
    )


def _inclusion_floats(s: np.ndarray, iteration: _Iteration, G: tuple, v: list, g: MstaGains,
                      h: float) -> tuple[np.ndarray, MstaState, SolverDiagnostics] | None:
    """``_solve_inclusion`` and ``_u_from_selection`` on floats for a diagonal
    iteration matrix with diagonal ``G``, bitwise equal to them, in the dead
    band and on the radial branch; None for a non-finite s or a solve that
    needs the fixed point (or a zero dead band, whose 0/0 numpy turns into
    NaN).  Each norm is numpy's (``_norm``) of an array, since a two-entry
    dot sums with one rounding; shat is an array of the result anyway, the
    fixed-point residual's two vectors are built for their norms.
    """
    ns = _norm(s)
    dead_band = h * h * g.k3
    if not (ns < math.inf and dead_band > 0.0):
        return None
    tol = g.fp_tol * (1.0 + ns)
    s = s.tolist()
    n = len(s)
    if ns <= dead_band:
        shat = np.zeros(n)
        m2 = [x / dead_band for x in s]
        res = 0.0
        gam = h * g.k3      # _gamma(0) = k2*0 + h*k3, k2 > 0
    else:
        tr, mu, _ = iteration.prepared
        if tr is None:
            return None
        w = _radial_magnitude(ns, tr, g, h)
        c = w * w / ns
        hgam = h * (g.k2 * w + h * g.k3)
        x, m2 = [], []
        for y in s:
            x.append(c * y)
            m2.append((y - tr * x[-1]) / hgam)
        shat = np.array(x)
        gam = g.k2 * math.sqrt(_norm(shat)) + h * g.k3
        # _fixed_point_residual(shat, s, G, g, h, mu, gam), prox_norm_quad inlined
        a = h * gam
        z = []
        for j, y in enumerate(s):
            z.append(x[j] - mu * (0.0 + G[j] * x[j]) + mu * y)
        nz = _norm(np.array(z))
        if nz <= mu * a:
            res = _norm(shat)
        else:
            scale = (nz - mu * a) / ((1.0 + mu * (a * g.alpha2)) * nz)
            for j, y in enumerate(z):
                x[j] -= scale * y
            res = _norm(np.array(x))
    hk3 = h * g.k3
    u_s, v_next = [], []
    for j, y in enumerate(m2):
        v_next.append(v[j] + hk3 * y)
        u_s.append(gam * y + v_next[j])
    diag = _unchecked(SolverDiagnostics, iterations=1, residual=res, converged=res <= tol,
                      shat=shat, m2=np.array(m2))
    return np.array(u_s), _unchecked(MstaState, v=np.array(v_next)), diag


def solve_shat_vector(
    s: np.ndarray, Ak: np.ndarray, Mk: np.ndarray, g: MstaGains, h: float
) -> SolverDiagnostics:
    """Solve the implicit nominal state for iteration matrix M^{-1} A.

    The recovered selection m2 always satisfies ||m2 - alpha2*shat|| <= 1, with
    equality of direction when shat != 0.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    s = _vector(s)
    Ak = _matrix(Ak)
    Mk = _matrix(Mk)
    return _solve_inclusion(s, _Iteration(np.linalg.solve(Mk, Ak), g.mu), g, h)


def _u_from_selection(diag: SolverDiagnostics, state: MstaState, g: MstaGains, h: float):
    gam = _gamma(diag.shat, g, h)
    v_next = state.v + h * g.k3 * diag.m2
    u_s = gam * diag.m2 + v_next
    return u_s, _unchecked(MstaState, v=v_next)


def msta_implicit_step(
    s: np.ndarray,
    Mk: np.ndarray,
    Ck: np.ndarray,
    g: MstaGains,
    h: float,
    state: MstaState,
) -> tuple[np.ndarray, MstaState, SolverDiagnostics]:
    """Implicit step with the structured linear gain -C + gamma1*M.

    The twisting term is evaluated at the nominal state delivered by the
    proximal solve.  For one degree of freedom the iteration factor is
    beta = 1 + h*gamma1, and this step agrees with ``sta_scalar_implicit_step``
    to roundoff only at beta = 1: that closed form divides the root by beta
    but leaves beta out of the square root, while this solve satisfies
    beta*w^2 + h*k2*w = |s| - h^2*k3 (w = |shat|^{1/2}).  At s = 0.05,
    h = 1 ms, k2 = 11.6, k3 = 66 the two u_s differ by 0.115 at beta = 1.1
    and by 0.537 at beta = 2.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    Mk = np.atleast_2d(np.asarray(Mk, dtype=float))
    Ck = np.atleast_2d(np.asarray(Ck, dtype=float))
    k1 = -Ck + g.gamma1 * Mk
    Ak = Mk + h * Ck + h * k1
    diag = solve_shat_vector(s, Ak, Mk, g, h)
    u_s, state_next = _u_from_selection(diag, state, g, h)
    return u_s, state_next, diag


def msta_implicit_decoupled_step(
    s: np.ndarray, g: MstaGains, h: float, state: MstaState
) -> tuple[np.ndarray, MstaState, SolverDiagnostics]:
    """Implicit step with the scalar iteration factor beta = 1 + h*gamma1.

    Avoids any matrix solve; the nominal state is obtained from the radial
    closed form of the inclusion.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    s = _vector(s)
    beta = 1.0 + h * g.gamma1
    diag = _solve_inclusion(s, _Iteration(beta * _eye(s.size), g.mu), g, h)
    u_s, state_next = _u_from_selection(diag, state, g, h)
    return u_s, state_next, diag


def sta_scalar_implicit_step(
    s: float, g: MstaGains, beta: float, h: float, v: float
) -> tuple[float, float, float, float]:
    """Closed-form scalar implicit super-twisting step.

    Returns (u_s, v_next, phi1, phi2) with phi2 = sat(s / (h^2 k3)) and phi1
    the saturated square-root term; the max() guard keeps the root real during
    discrete sliding, where both selections vary continuously with s.  The
    calls of ``sat``, ``sign0`` and ``max`` are written out inline: this runs
    every one-joint period.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    band = h * h * g.k3
    z = s / band
    phi2 = 1.0 if z > 1.0 else -1.0 if z < -1.0 else float(z)           # sat(s / band)
    a = abs(s)
    excess = a - band
    root = math.sqrt((h * g.k2) ** 2 + 4.0 * (excess if excess > 0.0 else 0.0))
    z = a / band
    phi1 = (1.0 if s > 0.0 else -1.0 if s < 0.0 else 0.0) * (           # sign0(s)
        (h * g.k3 / g.k2) * (1.0 if z > 1.0 else float(z)) - h * g.k2 / (2.0 * beta)
        + root / (2.0 * beta)
    )
    v_next = v + h * g.k3 * phi2
    u_s = g.k2 * phi1 + v_next
    return u_s, v_next, phi1, phi2


def norm_quad_value(x: np.ndarray, alpha2: float) -> float:
    """Value of Psi2(x) = ||x|| + (alpha2/2)*||x||^2."""
    nx = float(np.linalg.norm(x))
    return nx + 0.5 * alpha2 * nx * nx


def msta_error_recursion_step(
    s1: np.ndarray,
    s2: np.ndarray,
    g: MstaGains,
    h: float,
    delta: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of the coupled nominal error recursion

        shat    = s1 - h*k2*m1 - h^2*k3*m2,
        s2_next = s2 - h*k3*m2 - h*delta,
        s1_next = shat + h*s2_next,

    with the selections m1, m2 taken exactly in the subdifferentials of
    Psi1 = (2/3)||.||^{3/2} + (alpha1/2)||.||^2 and Psi2 at shat
    (alpha1 = gamma1/k2, alpha2 = k4/k3).  Used by the Lyapunov-decrease and
    disturbance-band tests; returns (s1_next, s2_next, shat, m1, m2).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    s1 = np.atleast_1d(np.asarray(s1, dtype=float))
    s2 = np.atleast_1d(np.asarray(s2, dtype=float))
    delta_vec = np.broadcast_to(np.asarray(delta, dtype=float), s1.shape)
    alpha1 = g.gamma1 / g.k2
    alpha2 = g.alpha2
    ns = float(np.linalg.norm(s1))
    band = h * h * g.k3
    if ns <= band:
        shat = np.zeros_like(s1)
        m1 = np.zeros_like(s1)
        m2 = s1 / band
    else:
        # radial quadratic (1 + h*k2*alpha1 + h^2*k3*alpha2) w^2 + h*k2*w = ns - band
        a = 1.0 + h * g.k2 * alpha1 + band * alpha2
        b = h * g.k2
        rhs = ns - band
        w = 2.0 * rhs / (b + math.sqrt(b * b + 4.0 * a * rhs))
        r = w * w
        direction = s1 / ns
        shat = r * direction
        m1 = (w + alpha1 * r) * direction
        m2 = (1.0 + alpha2 * r) * direction
    s2_next = s2 - h * g.k3 * m2 - h * delta_vec
    s1_next = shat + h * s2_next
    return s1_next, s2_next, shat, m1, m2
