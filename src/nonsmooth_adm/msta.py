"""Discretizations of the robust inner loop.

The inner loop is a (multivariable) super-twisting law

    u_s = k2 * s / ||s||^{1/2} + v,      dv = k3 * s / ||s|| + k4 * s,

and this module provides its discrete-time realizations:

* ``msta_explicit_step``          -- forward-Euler stepping (chatters),
* ``solve_shat_vector``           -- implicit nominal state for any G with
                                     G + G^T positive definite: the radial
                                     closed form (G = beta*I, k4 = 0), else
                                     one scalar root in ||shat||,
* ``msta_implicit_step``          -- implicit step built on that solve,
* ``msta_implicit_decoupled_step``-- implicit step with the structured gain
                                     that reduces the matrix to a scalar,
* ``sta_scalar_implicit_step``    -- closed-form scalar implicit step,
* ``msta_error_recursion_step``   -- the coupled nominal error recursion used
                                     by the stability and disturbance tests.

The implicit variants compute the discontinuous selection from the implicit
inclusion instead of a sign evaluation, which is what removes numerical
chattering.

The robust term takes one or two entries, as the torque box does.  Each
branch has one body, on lists of Python floats: ``_explicit`` for the
forward-Euler step, ``_solve_inclusion`` for the implicit one and
``_sta_scalar`` for the closed-form scalar step.  The controller period
calls the bodies directly, on the floats it carries; the public steps are
array wrappers that check their inputs, call the same body and build arrays
of its results.  G is a row-major float tuple, every solve is ``_solve2``
and every norm ``_norm``, so no step calls numpy's BLAS or LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .setvalued import (
    _all_finite,
    _dot,
    _entries,
    _finite_matrix,
    _finite_vector,
    _norm,
    _require_finite,
    _solve2,
)

__all__ = [
    "MstaGains",
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
        if type(self.fp_max_iter) is bool or not isinstance(self.fp_max_iter, (int, np.integer)):
            raise ValueError(f"fp_max_iter must be an integer, got {self.fp_max_iter!r}")
        if self.fp_tol <= 0.0 or self.fp_max_iter < 1:
            raise ValueError("fp_tol must be positive and fp_max_iter >= 1")

    @property
    def alpha2(self) -> float:
        return self.k4 / self.k3


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


def _solver_diagnostics(iterations: int, residual: float, converged: bool, shat: np.ndarray,
                        m2: np.ndarray) -> SolverDiagnostics:
    """``SolverDiagnostics(...)`` for a solve's own outputs, written into the
    frozen instance's dict in field order."""
    obj = object.__new__(SolverDiagnostics)
    d = obj.__dict__
    d["iterations"] = iterations
    d["residual"] = residual
    d["converged"] = converged
    d["shat"] = shat
    d["m2"] = m2
    return obj


class SolverConvergenceError(RuntimeError):
    """Raised when the implicit solve is not well posed (G + G^T is not
    positive definite) or its root does not converge within fp_max_iter."""


def _check_period(g: MstaGains, h: float) -> None:
    """Reject an h that is not positive and finite or whose dead band h^2*k3
    underflows to 0 (the implicit step divides by the band)."""
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if h * h * g.k3 == 0.0:
        raise ValueError(f"the dead band h^2*k3 underflows to 0 at h = {h}, k3 = {g.k3}")


def _one_or_two(x: np.ndarray, name: str) -> np.ndarray:
    """x, refused with a ValueError giving its entry count unless it has one
    or two entries, as the torque box takes."""
    if not 0 < x.size < 3:
        raise ValueError(f"the robust term takes one or two entries; {name} has {x.size}")
    return x


def _step_input(s, v, g: MstaGains, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, v) as finite float vectors of one or two entries each, s checked
    against the period and v, zero when None, against s: the steps index v
    entry by entry."""
    _check_period(g, h)
    s = _one_or_two(_finite_vector(s, "s"), "s")
    if v is None:
        return s, np.zeros(s.size)
    v = _finite_vector(v, "integrator state v")
    if s.shape != v.shape:
        raise ValueError(f"s has {s.size} entries but the integrator state v has {v.size}")
    return s, v


def msta_explicit_step(
    s: np.ndarray, v: np.ndarray, g: MstaGains, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler step of the twisting law; normalized terms vanish at s = 0.
    Returns (u_s, v_next)."""
    s, v = _step_input(s, v, g, h)
    u_s, v_next = _explicit(s.tolist(), v.tolist(), g, h)
    return np.array(u_s), np.array(v_next)


def _explicit(s: list, v: list, g: MstaGains, h: float) -> tuple[list, list]:
    """``msta_explicit_step`` on checked lists of floats: (u_s, v_next),
    both v itself at s = 0."""
    ns = _norm(s)
    if not ns > 0.0:
        return v, v
    k2, hk3, k4 = g.k2, h * g.k3, g.k4
    root = math.sqrt(ns)
    u_s, v_next = [], []
    for j, y in enumerate(s):
        u_s.append(v[j] + k2 * y / root)
        v_next.append(v[j] + hk3 * y / ns + k4 * y)
    return u_s, v_next


def _radial_magnitude(norm_s: float, c: float, g: MstaGains, h: float) -> float:
    """Positive root w = ||shat||^{1/2} of c*w^2 + h*k2*w = norm_s - h^2*k3,
    the radial inclusion for a scalar iteration matrix c at alpha2 = 0, in
    conjugate form.  The caller guarantees norm_s > h^2*k3."""
    rhs = norm_s - h * h * g.k3
    disc = (h * g.k2) ** 2 + 4.0 * c * rhs
    return 2.0 * rhs / (h * g.k2 + math.sqrt(disc))


def _iteration_matrix(Mk, Ak) -> tuple:
    """G = Mk^{-1} Ak as a row-major float tuple, a column at a time by
    ``_solve2`` (a division for one joint).  A singular Mk raises
    np.linalg.LinAlgError("Singular matrix"), as np.linalg.solve does."""
    M, A = _entries(Mk), _entries(Ak)
    try:
        if len(M) == 1:
            return (A[0] / M[0],)
        (g00, g10), (g01, g11) = _solve2(M, A[0], A[2]), _solve2(M, A[1], A[3])
    except ZeroDivisionError:
        raise np.linalg.LinAlgError("Singular matrix") from None
    return g00, g01, g10, g11


class _Iteration:
    """The iteration matrix G of the inclusion, a row-major tuple of 1 or 4
    floats, and its radial ``scale``: tr(G)/n when G is a positive multiple
    of I (the inclusion is then radial, in closed form at alpha2 = 0), else
    None.  Any other G must have S = G + G^T positive definite, so that
    G + c*I is invertible for every c > 0 and the root of ``_root`` is
    bracketed; building the object checks S finite, S00 > 0 and det S > 0."""

    def __init__(self, G: tuple):
        self.G = G
        g00, g01, g10, g11 = G if len(G) == 4 else (G[0], 0.0, 0.0, G[0])
        tr = (g00 + g11) / 2
        tol = 1e-12 * max(1.0, abs(tr))
        radial = 0.0 < tr < math.inf and all(abs(d) <= tol for d in (g00 - tr, g01, g10, g11 - tr))
        self.scale = tr if radial else None
        s00, s01, s11 = g00 + g00, g01 + g10, g11 + g11
        if not (radial or s00 > 0.0 and s00 * s11 - s01 * s01 > 0.0 and max(s00, s11) < math.inf):
            raise SolverConvergenceError(
                f"implicit-vector step is not well posed: its iteration matrix "
                f"G = M^-1 A = {list(G)} (row-major) has G + G^T not positive definite")


def _product(G: tuple, x) -> list:
    """G x in the package's float rows, for G of 1 or 4 entries."""
    return [_dot(G, x)] if len(G) == 1 else [_dot(G[:2], x), _dot(G[2:], x)]


def _shifted_solve(G: tuple, c: float, b) -> tuple:
    """(G + c I)^{-1} b on floats: a division for one entry, else ``_solve2``."""
    if len(G) == 1:
        return (b[0] / (G[0] + c),)
    return _solve2((G[0] + c, G[1], G[2], G[3] + c), *b)


def _root(s: list, ns: float, G: tuple, g: MstaGains, h: float) -> tuple[int, tuple]:
    """(iterations, shat) outside the dead band, unless G = beta*I and alpha2
    = 0.  With shat != 0 the inclusion is (G + c I) shat = s, c(w) =
    h*gamma*(1/w^2 + alpha2) at w = ||shat||^{1/2}: w is the root of f(w) =
    ||x(w)|| - w^2, x(w) = (G + c(w) I)^{-1} s, in the bracket
    (0, (||s|| - h^2 k3)/(h k2)].  Safeguarded Newton on F(w) =
    ||x(w)||^{1/2} - w, which has the sign of f and, where ||x|| varies
    slowly, is close to linear in w while f is quadratic:
    F'(w) = -c'(w) x^T (G + cI)^{-1} x / (2 ||x||^{3/2}) - 1.  It starts from
    the alpha2 = 0 radial root of the Rayleigh quotient s^T G s / ||s||^2
    (positive, as G + G^T is positive definite), an upper bound on w for
    G = beta*I.  Over 300 000 draws of the general-matrix solver test's G and
    s it takes at most 8 iterations (4 draws), 2.14 on average.  It stops on
    |f| <= fp_tol*w^2 or a collapsed bracket, never on the step, which is
    tiny near w -> 0 while f is still large.  Everything is on floats."""
    hk2, band, a2 = h * g.k2, h * h * g.k3, g.alpha2
    lo, hi = 0.0, (ns - band) / hk2
    w = _radial_magnitude(ns, _dot(s, _product(G, s)) / (ns * ns), g, h)
    for it in range(1, g.fp_max_iter + 1):
        ww = w * w
        c = (hk2 * w + band) * (1.0 / ww + a2)
        x = _shifted_solve(G, c, s)
        nx = _norm(x)
        f = nx - ww
        if abs(f) <= g.fp_tol * ww:
            return it, x
        if f > 0.0:
            lo = w
        else:
            hi = w
        dc = hk2 * a2 - hk2 / ww - 2.0 * band / (ww * w)
        rx = math.sqrt(nx)
        dF = -0.5 * dc * _dot(x, _shifted_solve(G, c, x)) / (nx * rx) - 1.0
        w_new = w - (rx - w) / dF if dF != 0.0 else lo     # a flat F bisects
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
            if not lo < w_new < hi:
                return it, x    # the bracket has collapsed to adjacent floats
        w = w_new
    raise SolverConvergenceError(
        f"implicit solve did not reach |f| <= {g.fp_tol:.3e} w^2 in {g.fp_max_iter} "
        f"iterations (|f| = {abs(f):.3e} at w = {w:.6e}); check conditioning of the "
        "iteration matrix")


def _solve_inclusion(s: list, iteration: _Iteration, v: list, g: MstaGains,
                     h: float) -> tuple[list, list, SolverDiagnostics]:
    """The implicit step on checked lists of floats: find shat with

        G @ shat + h * gamma(shat) * m2 = s,   m2 in subdiff Psi2(shat),

    where G = iteration.G, gamma(x) = k2*||x||^{1/2} + h*k3 and
    Psi2 = ||.|| + (alpha2/2)||.||^2, then v+ = v + h*k3*m2 and
    u_s = gamma(shat)*m2 + v+.  shat = 0 in the dead band, else the radial
    closed form for G = beta*I and alpha2 = 0, else ``_root``, whose
    m2 = (s - G shat)/(h*gamma) is formed in float rows.  Returns (u_s, v+,
    the solve's diagnostics), whose shat and m2 are arrays.
    """
    ns = _norm(s)
    band = h * h * g.k3
    hk3 = h * g.k3
    if ns <= band:
        # discrete sliding: shat = 0 exactly, selection taken inside the unit ball
        x = [0.0] * len(s)
        m2 = [y / band for y in s]
        res = max(0.0, _norm(m2) - 1.0)
        gam = hk3       # gamma(0) = k2*0 + h*k3, k2 > 0
        iterations = 1
    else:
        tr = iteration.scale if g.alpha2 == 0.0 else None
        if tr is not None:
            # scalar iteration matrix, alpha2 = 0: the radial quadratic, solved exactly
            w = _radial_magnitude(ns, tr, g, h)
            c = w * w / ns
            hgam = h * (g.k2 * w + hk3)
            x, m2 = [], []
            for y in s:
                x.append(c * y)
                m2.append((y - tr * x[-1]) / hgam)
            iterations = 1
        else:
            iterations, x = _root(s, ns, iteration.G, g, h)
        nx = _norm(x)
        gam = g.k2 * math.sqrt(nx) + hk3
        if tr is None:
            m2 = [(y - z) / (h * gam) for y, z in zip(s, _product(iteration.G, x))]
        a2 = g.alpha2
        # distance from subdiff Psi2
        res = _norm([m2[j] - y / nx - a2 * y for j, y in enumerate(x)])
    u_s, v_next = [], []
    for j, y in enumerate(m2):
        v_next.append(v[j] + hk3 * y)
        u_s.append(gam * y + v_next[j])
    diag = _solver_diagnostics(iterations, res, res <= g.fp_tol * (1.0 + ns), np.array(x),
                               np.array(m2))
    return u_s, v_next, diag


def _implicit(s: np.ndarray, iteration: _Iteration, v: np.ndarray, g: MstaGains, h: float
              ) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """``_solve_inclusion`` on checked float vectors, with u_s and v+ as
    arrays: the public implicit steps' wrapper."""
    u_s, v_next, diag = _solve_inclusion(s.tolist(), iteration, v.tolist(), g, h)
    return np.array(u_s), np.array(v_next), diag


def solve_shat_vector(
    s: np.ndarray, Ak: np.ndarray, Mk: np.ndarray, g: MstaGains, h: float
) -> SolverDiagnostics:
    """Solve the implicit nominal state for iteration matrix G = M^{-1} A.

    The recovered selection m2 satisfies ||m2 - alpha2*shat|| <= 1, with
    equality of direction when shat != 0, to the reported residual.  A G
    with G + G^T not positive definite raises SolverConvergenceError; an s
    of three or more entries, or a non-finite Ak or Mk, raises ValueError
    naming it.
    """
    s, v = _step_input(s, None, g, h)
    Ak = _finite_matrix(Ak, "Ak", s.size)
    G = _iteration_matrix(_finite_matrix(Mk, "Mk", s.size), Ak)
    return _solve_inclusion(s.tolist(), _Iteration(G), v.tolist(), g, h)[2]


def msta_implicit_step(
    s: np.ndarray,
    Mk: np.ndarray,
    Ck: np.ndarray,
    g: MstaGains,
    h: float,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Implicit step with the structured linear gain -C + gamma1*M.

    The twisting term is evaluated at the nominal state delivered by the
    implicit solve.  For one degree of freedom the iteration factor is
    beta = 1 + h*gamma1, and this step agrees with ``sta_scalar_implicit_step``
    to roundoff only at beta = 1: that closed form divides the root by beta
    but leaves beta out of the square root, while this solve satisfies
    beta*w^2 + h*k2*w = |s| - h^2*k3 (w = |shat|^{1/2}).  At s = 0.05,
    h = 1 ms, k2 = 11.6, k3 = 66 the two u_s differ by 0.115 at beta = 1.1
    and by 0.537 at beta = 2.  A non-finite Mk or Ck raises ValueError
    naming it.  Returns (u_s, v_next, the solve's diagnostics).
    """
    s, v = _step_input(s, v, g, h)
    Mk = _finite_matrix(Mk, "Mk", s.size)
    Ck = _finite_matrix(Ck, "Ck", s.size)
    k1 = -Ck + g.gamma1 * Mk
    Ak = Mk + h * Ck + h * k1
    return _implicit(s, _Iteration(_iteration_matrix(Mk, Ak)), v, g, h)


def msta_implicit_decoupled_step(
    s: np.ndarray, g: MstaGains, h: float, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Implicit step with the scalar iteration factor beta = 1 + h*gamma1.

    Avoids any matrix solve at k4 = 0, where the nominal state is the radial
    closed form of the inclusion.
    """
    s, v = _step_input(s, v, g, h)
    beta = 1.0 + h * g.gamma1
    return _implicit(s, _Iteration((beta,) if s.size == 1 else (beta, 0.0, 0.0, beta)), v, g, h)


def sta_scalar_implicit_step(
    s: float, g: MstaGains, beta: float, h: float, v: float
) -> tuple[float, float, float, float]:
    """Closed-form scalar implicit super-twisting step.

    Returns (u_s, v_next, phi1, phi2) with phi2 = sat(s / (h^2 k3)) and phi1
    the saturated square-root term; the max() guard keeps the root real during
    discrete sliding, where both selections vary continuously with s.  A
    non-finite s or v, an h not positive and finite or whose dead band h^2 k3
    underflows to 0, or a beta not finite and >= 1 raises ValueError.  The
    step itself is ``_sta_scalar``.
    """
    if not -math.inf < s < math.inf:
        raise ValueError(f"s must be finite, got {s}")
    if not -math.inf < v < math.inf:
        raise ValueError(f"the integrator state v must be finite, got {v}")
    _check_period(g, h)
    if not 1.0 <= beta < math.inf:
        raise ValueError("beta must be finite and >= 1")
    return _sta_scalar(s, g, beta, h, v)


def _sta_scalar(s: float, g: MstaGains, beta: float, h: float, v: float
                ) -> tuple[float, float, float, float]:
    """``sta_scalar_implicit_step`` on checked floats.  ``sat``, ``sign0``
    and ``max`` are written out inline: this runs every one-joint period of
    the scalar-implicit inner loop."""
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
    """Value of Psi2(x) = ||x|| + (alpha2/2)*||x||^2, for one or two entries."""
    nx = _norm(_one_or_two(np.ravel(np.asarray(x, dtype=float)), "x").tolist())
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
    (alpha1 = gamma1/k2, alpha2 = k4/k3).  s1 has one or two entries, as
    in every step here, and s2 and an array delta have s1's shape; a
    non-finite input, or h as ``_check_period`` refuses it, raises
    ValueError naming it.  Used by the Lyapunov-decrease and
    disturbance-band tests; returns (s1_next, s2_next, shat, m1, m2).
    """
    _check_period(g, h)
    s1 = _one_or_two(_finite_vector(s1, "s1"), "s1")
    s2 = _finite_vector(s2, "s2")
    delta = np.asarray(delta, dtype=float)
    for name, x in (("s2", s2), ("delta", delta)):
        if x.ndim and x.shape != s1.shape:
            raise ValueError(f"{name} has shape {x.shape} but s1 has {s1.shape}")
    if not _all_finite(delta):
        raise ValueError("delta must be finite")
    delta_vec = np.broadcast_to(delta, s1.shape)
    alpha1 = g.gamma1 / g.k2
    alpha2 = g.alpha2
    ns = _norm(s1.tolist())
    band = h * h * g.k3
    if ns <= band:
        shat = np.zeros_like(s1)
        m1 = np.zeros_like(s1)
        m2 = s1 / band
    else:
        # radial quadratic (1 + h*k2*alpha1 + h^2*k3*alpha2) w^2 + h*k2*w = ns - band
        w = _radial_magnitude(ns, 1.0 + h * g.k2 * alpha1 + band * alpha2, g, h)
        r = w * w
        direction = s1 / ns
        shat = r * direction
        m1 = (w + alpha1 * r) * direction
        m2 = (1.0 + alpha2 * r) * direction
    s2_next = s2 - h * g.k3 * m2 - h * delta_vec
    s1_next = shat + h * s2_next
    return s1_next, s2_next, shat, m1, m2
