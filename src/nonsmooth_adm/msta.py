"""Discretizations of the robust inner loop.

The inner loop is a (multivariable) super-twisting law

    u_s = k2 * s / ||s||^{1/2} + v,      dv = k3 * s / ||s|| + k4 * s,

and this module provides its discrete-time realizations:

* ``msta_explicit_step``          -- forward-Euler stepping (chatters),
* ``solve_shat_vector``           -- implicit nominal state for any G with
                                     G + G^T positive definite: the radial
                                     closed form, or one scalar root in ||shat||,
* ``msta_implicit_step``          -- implicit step built on that solve,
* ``msta_implicit_decoupled_step``-- implicit step with the structured gain
                                     that reduces the matrix to a scalar,
* ``sta_scalar_implicit_step``    -- closed-form scalar implicit step,
* ``msta_error_recursion_step``   -- the coupled nominal error recursion used
                                     by the stability and disturbance tests.

The implicit variants compute the discontinuous selection from the implicit
inclusion instead of a sign evaluation, which is what removes numerical
chattering.

Each branch of the robust term has one body, on Python floats, for any
number of joints: ``_explicit`` for the forward-Euler step and
``_solve_inclusion`` for the implicit one, which the controller calls
directly and the public steps call after checking their inputs.  Only the
scalar root's linear solves (and its m2) use arrays; every norm is numpy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .setvalued import (
    _all_finite,
    _matrix,
    _norm,
    _read_only,
    _require_finite,
    _unchecked,
    _vector,
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
    linear gain is -C + gamma1*M), and fp_tol / fp_max_iter the tolerance
    and iteration cap of the implicit solve's scalar root.  mu, checked to
    lie in (0, 1), has no effect: no solve takes a relaxation parameter.
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
    """Result of the implicit nominal-state solve.  ``residual`` is the
    inclusion residual, the distance of m2 from subdiff Psi2(shat): that is
    ||m2 - shat/||shat|| - alpha2*shat||, or max(0, ||m2|| - 1) at shat = 0;
    ``converged`` says it is at most fp_tol*(1 + ||s||)."""

    iterations: int
    residual: float
    converged: bool
    shat: np.ndarray
    m2: np.ndarray


class SolverConvergenceError(RuntimeError):
    """Raised when the implicit solve is not well posed (G + G^T is not
    positive definite) or its root does not converge within fp_max_iter."""


def _check_period(g: MstaGains, h: float) -> None:
    """Reject an h that is not positive or whose dead band h^2*k3 underflows
    to 0 (the implicit step divides by the band)."""
    if not h > 0.0:
        raise ValueError("h must be positive")
    if h * h * g.k3 == 0.0:
        raise ValueError(f"the dead band h^2*k3 underflows to 0 at h = {h}, k3 = {g.k3}")


def _step_input(s, state: MstaState, g: MstaGains, h: float) -> np.ndarray:
    """s as a float vector, checked against the period and the state: the
    steps index v entry by entry, so s and v need as many entries."""
    _check_period(g, h)
    s = _vector(s)
    if s.shape != state.v.shape:
        raise ValueError(f"s has {s.size} entries but the integrator state v has {state.v.size}")
    return s


def msta_explicit_step(
    s: np.ndarray, state: MstaState, g: MstaGains, h: float
) -> tuple[np.ndarray, MstaState]:
    """Forward-Euler step of the twisting law; normalized terms vanish at s = 0."""
    return _explicit(_step_input(s, state, g, h), state.v, g, h)


def _explicit(s: np.ndarray, v: np.ndarray, g: MstaGains, h: float
              ) -> tuple[np.ndarray, MstaState]:
    """``msta_explicit_step`` on checked inputs, on floats entry by entry;
    ||s|| is numpy's (``_norm``)."""
    ns = _norm(s)
    if not ns > 0.0:
        return v.copy(), _unchecked(MstaState, v=v.copy())
    v = v.tolist()
    k2, hk3, k4 = g.k2, h * g.k3, g.k4
    root = math.sqrt(ns)
    u_s, v_next = [], []
    for j, y in enumerate(s.tolist()):
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


class _Iteration:
    """The iteration matrix G of the inclusion and its radial ``scale``:
    tr(G)/n when G is a positive multiple of I (the inclusion is then radial
    and solved in closed form), else None.  Any other G must have G + G^T
    positive definite, so that G + c*I is invertible for every c > 0 and the
    root of ``_root`` is bracketed; building the object checks it."""

    def __init__(self, G: np.ndarray):
        n = G.shape[0]
        tr = float(np.trace(G)) / n
        radial = float(np.abs(G - tr * _eye(n)).max()) <= 1e-12 * max(1.0, abs(tr)) and tr > 0.0
        self.G = G
        self.scale = tr if radial else None
        if not radial:
            try:
                well_posed = _all_finite(np.linalg.cholesky(G + G.T))
            except np.linalg.LinAlgError:
                well_posed = False
            if not well_posed:
                raise SolverConvergenceError(
                    f"implicit-vector step is not well posed: its iteration matrix "
                    f"G = M^-1 A = {G.tolist()} has G + G^T not positive definite")


def _root(s: np.ndarray, ns: float, G: np.ndarray, g: MstaGains, h: float
          ) -> tuple[int, np.ndarray]:
    """(iterations, shat) outside the dead band for a general G.  With
    shat != 0 the inclusion is (G + c I) shat = s, c(w) = h*gamma*(1/w^2 +
    alpha2) at w = ||shat||^{1/2}: w is the root of f(w) = ||x(w)|| - w^2,
    x(w) = (G + c(w) I)^{-1} s, in the bracket (0, (||s|| - h^2 k3)/(h k2)].
    Safeguarded Newton, d||x||/dw = -c'(w) x^T (G + cI)^{-1} x / ||x||, from
    the radial root of tr(G)/n; it stops on |f| <= fp_tol*w^2 or a collapsed
    bracket, never on the step, which is tiny near w -> 0 while f is still
    large."""
    n = s.size
    hk2, band, a2 = h * g.k2, h * h * g.k3, g.alpha2
    lo, hi = 0.0, (ns - band) / hk2
    w = _radial_magnitude(ns, float(np.trace(G)) / n, g, h)
    for it in range(1, g.fp_max_iter + 1):
        ww = w * w
        A = G + ((hk2 * w + band) * (1.0 / ww + a2)) * _eye(n)
        x = np.linalg.solve(A, s)
        nx = _norm(x)
        f = nx - ww
        if abs(f) <= g.fp_tol * ww:
            return it, x
        if f > 0.0:
            lo = w
        else:
            hi = w
        dc = hk2 * a2 - hk2 / ww - 2.0 * band / (ww * w)
        df = -dc * float(x @ np.linalg.solve(A, x)) / nx - 2.0 * w
        w_new = w - f / df if df != 0.0 else lo     # a flat f bisects
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
            if not lo < w_new < hi:
                return it, x    # the bracket has collapsed to adjacent floats
        w = w_new
    raise SolverConvergenceError(
        f"implicit solve did not reach |f| <= {g.fp_tol:.3e} w^2 in {g.fp_max_iter} "
        f"iterations (|f| = {abs(f):.3e} at w = {w:.6e}); check conditioning of the "
        "iteration matrix")


def _solve_inclusion(s: np.ndarray, iteration: _Iteration, v: np.ndarray, g: MstaGains,
                     h: float) -> tuple[np.ndarray, MstaState, SolverDiagnostics]:
    """The implicit step on checked inputs: find shat with

        G @ shat + h * gamma(shat) * m2 = s,   m2 in subdiff Psi2(shat),

    where G = iteration.G, gamma(x) = k2*||x||^{1/2} + h*k3 and
    Psi2 = ||.|| + (alpha2/2)||.||^2, then v+ = v + h*k3*m2 and
    u_s = gamma(shat)*m2 + v+.  shat = 0 in the dead band, else the radial
    closed form for G = beta*I or ``_root``, whose m2 = (s - G shat)/(h*gamma)
    is formed on arrays; the rest is on floats, entry by entry.  Each norm is
    numpy's (``_norm``) of an array, since a two-entry dot sums with one
    rounding.  Returns (u_s, the next state, the solve's diagnostics).
    """
    ns = _norm(s)
    band = h * h * g.k3
    hk3 = h * g.k3
    if ns <= band:
        # discrete sliding: shat = 0 exactly, selection taken inside the unit ball
        shat = np.zeros(s.size)
        m2 = [y / band for y in s.tolist()]
        res = max(0.0, _norm(np.array(m2)) - 1.0)
        gam = hk3       # gamma(0) = k2*0 + h*k3, k2 > 0
        iterations = 1
    else:
        tr = iteration.scale
        if tr is not None:
            # scalar iteration matrix: the inclusion is radial and solved exactly
            w = _radial_magnitude(ns, tr, g, h)
            c = w * w / ns
            hgam = h * (g.k2 * w + hk3)
            x, m2 = [], []
            for y in s.tolist():
                x.append(c * y)
                m2.append((y - tr * x[-1]) / hgam)
            shat = np.array(x)
            iterations = 1
        else:
            iterations, shat = _root(s, ns, iteration.G, g, h)
            x = shat.tolist()
        nx = _norm(shat)
        gam = g.k2 * math.sqrt(nx) + hk3
        if tr is None:
            m2 = ((s - iteration.G @ shat) / (h * gam)).tolist()
        a2 = g.alpha2
        # distance from subdiff Psi2
        res = _norm(np.array([m2[j] - y / nx - a2 * y for j, y in enumerate(x)]))
    v = v.tolist()
    u_s, v_next = [], []
    for j, y in enumerate(m2):
        v_next.append(v[j] + hk3 * y)
        u_s.append(gam * y + v_next[j])
    diag = _unchecked(SolverDiagnostics, iterations=iterations, residual=res,
                      converged=res <= g.fp_tol * (1.0 + ns), shat=shat, m2=np.array(m2))
    return np.array(u_s), _unchecked(MstaState, v=np.array(v_next)), diag


def solve_shat_vector(
    s: np.ndarray, Ak: np.ndarray, Mk: np.ndarray, g: MstaGains, h: float
) -> SolverDiagnostics:
    """Solve the implicit nominal state for iteration matrix G = M^{-1} A.

    The recovered selection m2 satisfies ||m2 - alpha2*shat|| <= 1, with
    equality of direction when shat != 0, to the reported residual.  A G
    with G + G^T not positive definite raises SolverConvergenceError.
    """
    _check_period(g, h)
    s = _vector(s)
    G = np.linalg.solve(_matrix(Mk), _matrix(Ak))
    return _solve_inclusion(s, _Iteration(G), np.zeros(s.size), g, h)[2]


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
    implicit solve.  For one degree of freedom the iteration factor is
    beta = 1 + h*gamma1, and this step agrees with ``sta_scalar_implicit_step``
    to roundoff only at beta = 1: that closed form divides the root by beta
    but leaves beta out of the square root, while this solve satisfies
    beta*w^2 + h*k2*w = |s| - h^2*k3 (w = |shat|^{1/2}).  At s = 0.05,
    h = 1 ms, k2 = 11.6, k3 = 66 the two u_s differ by 0.115 at beta = 1.1
    and by 0.537 at beta = 2.
    """
    s = _step_input(s, state, g, h)
    Mk = _matrix(Mk)
    Ck = _matrix(Ck)
    k1 = -Ck + g.gamma1 * Mk
    Ak = Mk + h * Ck + h * k1
    return _solve_inclusion(s, _Iteration(np.linalg.solve(Mk, Ak)), state.v, g, h)


def msta_implicit_decoupled_step(
    s: np.ndarray, g: MstaGains, h: float, state: MstaState
) -> tuple[np.ndarray, MstaState, SolverDiagnostics]:
    """Implicit step with the scalar iteration factor beta = 1 + h*gamma1.

    Avoids any matrix solve; the nominal state is obtained from the radial
    closed form of the inclusion.
    """
    s = _step_input(s, state, g, h)
    beta = 1.0 + h * g.gamma1
    return _solve_inclusion(s, _Iteration(beta * _eye(s.size)), state.v, g, h)


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
