"""Elementary nonsmooth primitives.

Saturation, signum, projection onto a symmetric box and its certificate,
and the float dot, norm and 2 x 2 solve the controller period computes with.
The projection and the certificate each have one body on lists of floats
(``_project``; ``_clip_flags`` and ``_certificate``, evaluated at the unit-box
corner that maximizes the certificate), which the controller period calls
and ``project_box`` and ``variational_residual`` wrap for arrays.
Everything here is closed form and pure; the box's normal-cone selection is
computed through the projection rather than by evaluating a multivalued sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxConstraint",
    "sat",
    "sign0",
    "project_box",
    "variational_residual",
]


_FLOAT = np.dtype(float)


def _vector(x) -> np.ndarray:
    """``np.atleast_1d(np.asarray(x, dtype=float))`` that returns a float
    vector as it is, skipping the conversion calls."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` for a float array, without the ufunc overhead."""
    return all(map(math.isfinite, v.ravel().tolist()))


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the attributes that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


def _finite_vector(x, name: str) -> np.ndarray:
    """``_vector(x)``, refused with a ValueError naming ``name`` unless it
    is 1-D and finite."""
    vec = _vector(x)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {vec.shape}")
    if not _all_finite(vec):
        raise ValueError(f"{name} must be finite")
    return vec


def _finite_matrix(x, name: str, n: int) -> np.ndarray:
    """``np.atleast_2d(np.asarray(x, dtype=float))``, refused with a
    ValueError naming ``name`` unless it is n x n and finite."""
    mat = np.atleast_2d(np.asarray(x, dtype=float))
    if mat.shape != (n, n):
        raise ValueError(f"{name} has shape {mat.shape}; s has {n} entries, so it needs ({n}, {n})")
    if not _all_finite(mat):
        raise ValueError(f"{name} must be finite")
    return mat


def _dot(x, y) -> float:
    """The dot product of one or two floats each as the float row
    ``0.0 + x0*y0 [+ x1*y1]``: its bits do not depend on the BLAS build."""
    return 0.0 + x[0] * y[0] if len(x) == 1 else 0.0 + x[0] * y[0] + x[1] * y[1]


def _norm(x) -> float:
    """Euclidean norm of one or two floats, ``sqrt(_dot(x, x))``."""
    return math.sqrt(_dot(x, x))


def _solve2(A: tuple, b0: float, b1: float) -> tuple[float, float]:
    """The solution of A x = b for a 2 x 2 matrix A, given as the row-major
    tuple (A00, A01, A10, A11), on floats.

    With both off-diagonal entries zero it divides row by row, as a one-joint
    loop divides, exact zeros included.  Otherwise it eliminates with partial
    pivoting, swapping the rows when |A10| > |A00|, as LAPACK's LU does; it
    agrees with ``np.linalg.solve`` to roundoff.  A singular A raises
    ZeroDivisionError.
    """
    a00, a01, a10, a11 = A
    if a01 == 0.0 and a10 == 0.0:
        return b0 / a00, b1 / a11
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, b0, b1 = a10, a11, a00, a01, b1, b0
    m = a10 / a00
    x1 = (b1 - m * b0) / (a11 - m * a01)
    return (b0 - a01 * x1) / a00, x1


def _entries(a) -> tuple:
    """The entries of a vector or a matrix (row-major) as a tuple of floats."""
    return tuple(np.ravel(a).tolist())


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def sat(z: float) -> float:
    """Unit saturation: z inside [-1, 1], clipped to +-1 outside."""
    if z > 1.0:
        return 1.0
    if z < -1.0:
        return -1.0
    return float(z)


def sign0(z: float) -> float:
    """Single-valued signum, with sign0(0) = 0."""
    if z > 0.0:
        return 1.0
    if z < 0.0:
        return -1.0
    return 0.0


@dataclass(frozen=True)
class BoxConstraint:
    """Per-joint symmetric actuation bound: admissible set is [-limits_i, +limits_i].

    The controller takes one or two joints, so the box has one or two
    entries.  ``limits`` is kept as a read-only copy, next to the tuple of
    floats ``_floats`` that the projection and the certificate compute with.
    """

    limits: np.ndarray

    def __post_init__(self) -> None:
        lim = np.atleast_1d(np.array(self.limits, dtype=float))
        if lim.ndim != 1 or lim.size == 0:
            raise ValueError("limits must be a non-empty 1-D vector")
        if lim.size > 2:
            raise ValueError("the controller takes one or two joints; the torque box has "
                             f"{lim.size}")
        if not np.all(lim > 0.0):
            raise ValueError("all box limits must be strictly positive")
        object.__setattr__(self, "limits", _read_only(lim))
        object.__setattr__(self, "_floats", tuple(lim.tolist()))

    @property
    def dim(self) -> int:
        return int(self.limits.size)


def project_box(y: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """Euclidean projection of y onto the box [-F, +F], entrywise clamp.

    The entries are clamped on floats (``_project``), bitwise equal to
    numpy's ``np.minimum(np.maximum(y, -F), F)``: a NaN passes through, and
    as F > 0 no tie between signed zeros arises.  When no entry is clamped
    the projection is y itself: the float vector it was given (after
    conversion) is returned, not a copy, and a new array only when an entry
    is clamped.  A caller that mutates either the result or y must copy first.
    """
    y = _vector(y)
    if y.shape != box.limits.shape:
        raise ValueError(f"dimension mismatch: y has shape {y.shape}, box has {box.limits.shape}")
    entries = y.tolist()
    projected = _project(entries, box._floats)
    return y if projected is entries else np.array(projected)


def _project(y: list, limits: tuple) -> list:
    """``project_box`` on a list of one or two floats: y itself when no
    entry is clamped, else a new list."""
    if len(limits) == 1:
        y0, f0 = y[0], limits[0]
        if y0 < -f0 or y0 > f0:
            return [_clamp(y0, f0)]
        return y
    (y0, y1), (f0, f1) = y, limits
    if y0 < -f0 or y0 > f0 or y1 < -f1 or y1 > f1:
        return [_clamp(y0, f0), _clamp(y1, f1)]
    return y


def _clamp(y: float, limit: float) -> float:
    """One entry of ``_project``."""
    return -limit if y < -limit else limit if y > limit else y


def variational_residual(y_star: np.ndarray, y_proj: np.ndarray, box: BoxConstraint) -> float:
    """Optimality certificate for a claimed projection y_proj of y_star:

        max over p in the unit box of <y_star - y_proj, p - F^{-1} y_proj>.

    The term is linear in p, entry by entry: entry i contributes
    d_i (p_i - y_proj_i / F_i) with d = y_star - y_proj, largest at
    p_i = sign(d_i), and a d_i of zero contributes zero whatever p_i.  So
    the corner p = sign(d) attains the maximum over the whole box, and the
    certificate is computed there, on floats (``_clip_flags``,
    ``_certificate``), exactly: it is the controller period's own
    ``lambda_vi_residual`` bit for bit.

    If y_proj really is the box projection of y_star, the certificate is 0
    (a clamped entry has sign(d_i) = y_proj_i / F_i, a free one d_i = 0); a
    positive value witnesses a violated variational inequality.  A NaN
    candidate makes the certificate NaN.
    """
    y_star = _vector(y_star)
    y_proj = _vector(y_proj)
    limits = box._floats
    shape = box.limits.shape
    if y_star.shape != shape or y_proj.shape != shape:
        raise ValueError(f"dimension mismatch: y_star has shape {y_star.shape} and y_proj "
                         f"{y_proj.shape}, box has {shape}")
    ys, yp = y_star.tolist(), y_proj.tolist()
    corner = [_clip_flags(f, a, b)[1] for f, a, b in zip(limits, ys, yp)]
    return _certificate(ys, yp, limits, corner)


def _clip_flags(limit: float, y_star: float, y: float) -> tuple[bool, float]:
    """One entry's saturation flag and certificate corner on floats:
    ``|y_star| > F`` and ``np.sign(y_star - y)``, which is +0.0 for either
    zero and keeps a NaN."""
    d = y_star - y
    return abs(y_star) > limit, 1.0 if d > 0.0 else -1.0 if d < 0.0 else 0.0 if d == 0.0 else d


def _certificate(y_star: list, y_proj: list, limits: tuple, p: list) -> float:
    """``variational_residual`` on lists of one or two floats at the unit-box
    point p: the float row ``0.0 + d0*x0 [+ d1*x1]`` of d = y_star - y_proj
    and x = p - y_proj/F."""
    if len(limits) == 1:
        yp = y_proj[0]
        return 0.0 + (y_star[0] - yp) * (p[0] - yp / limits[0])
    (ys0, ys1), (yp0, yp1) = y_star, y_proj
    return 0.0 + (ys0 - yp0) * (p[0] - yp0 / limits[0]) + (ys1 - yp1) * (p[1] - yp1 / limits[1])
