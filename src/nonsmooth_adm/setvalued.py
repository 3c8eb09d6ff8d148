"""Elementary nonsmooth primitives.

Saturation, single-valued signum, projection onto a symmetric box, and the
closed-form proximal map of ``a*||x|| + (b/2)*||x||^2``.  Everything here is
closed form and pure; the set-valued selections of the controllers are always
computed through these maps rather than by evaluating a multivalued sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BoxConstraint",
    "NormQuadWeights",
    "sat",
    "sign0",
    "project_box",
    "prox_norm_quad",
    "variational_residual",
]


_FLOAT = np.dtype(float)
_ONE = (1,)     # the shape of a one-joint vector: such stages compute on floats


def _vector(x) -> np.ndarray:
    """``np.atleast_1d(np.asarray(x, dtype=float))`` that returns a float
    vector as it is, skipping the conversion calls."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def _matrix(x) -> np.ndarray:
    """``np.atleast_2d(np.asarray(x, dtype=float))``, same shortcut as ``_vector``."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim >= 2:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` for a float array, without the ufunc overhead."""
    return all(map(math.isfinite, v.ravel().tolist()))


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the attributes that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous float vector, bitwise equal to
    ``np.linalg.norm`` (which also takes the square root of ``x.dot(x)``)."""
    return math.sqrt(x.dot(x))


def _unchecked(cls, **values):
    """``cls(**values)`` for a dataclass, without ``__post_init__``.

    For the states and measurements a step builds from float vectors it has
    computed from checked inputs: the public constructor would convert and
    finite-check them again.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


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

    ``limits`` is kept as a read-only copy, next to its negation ``_lower``;
    a one-joint box also keeps its limit as the float ``_limit`` (else None).
    """

    limits: np.ndarray

    def __post_init__(self) -> None:
        lim = np.atleast_1d(np.array(self.limits, dtype=float))
        if lim.ndim != 1 or lim.size == 0:
            raise ValueError("limits must be a non-empty 1-D vector")
        if not np.all(lim > 0.0):
            raise ValueError("all box limits must be strictly positive")
        object.__setattr__(self, "limits", _read_only(lim))
        object.__setattr__(self, "_lower", _read_only(-lim))
        object.__setattr__(self, "_limit", lim.item() if lim.shape == _ONE else None)

    @property
    def dim(self) -> int:
        return int(self.limits.size)


@dataclass(frozen=True)
class NormQuadWeights:
    """Weights of the penalty a*||x|| + (b/2)*||x||^2 (a, b >= 0)."""

    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("penalty weights must be nonnegative")


def project_box(y: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """Euclidean projection of y onto the box [-F, +F], entrywise clamp.

    One entry is clamped on floats, bitwise equal to ``_project_box_arrays``:
    a NaN passes through, and as F > 0 no tie between signed zeros arises.
    """
    y = _vector(y)
    limit = box._limit
    if limit is not None and y.shape == _ONE:
        v = y.item()
        return np.array([-limit if v < -limit else limit if v > limit else v])
    return _project_box_arrays(y, box)


def _project_box_arrays(y: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """``project_box`` on a float vector, for any number of entries."""
    if y.shape != box.limits.shape:
        raise ValueError(f"dimension mismatch: y has shape {y.shape}, box has {box.limits.shape}")
    return np.minimum(np.maximum(y, box._lower), box.limits)


def prox_norm_quad(z: np.ndarray, index: float, w: NormQuadWeights) -> np.ndarray:
    """Proximal map of index mu for f(x) = a*||x|| + (b/2)*||x||^2.

    Returns argmin_x  ||x - z||^2 / (2*index) + a*||x|| + (b/2)*||x||^2, which
    is 0 when ||z|| <= index*a (the dead zone of the norm term) and otherwise a
    radial shrinkage of z.
    """
    if index <= 0.0:
        raise ValueError("prox index must be positive")
    z = _vector(z)
    nz = _norm(z)
    if nz <= index * w.a:
        return np.zeros_like(z)
    scale = (nz - index * w.a) / ((1.0 + index * w.b) * nz)
    return scale * z


def variational_residual(
    y_star: np.ndarray,
    y_proj: np.ndarray,
    box: BoxConstraint,
    probes: Iterable[Sequence[float]],
) -> float:
    """Optimality certificate for a claimed projection.

    For probes p inside the unit box, returns

        max_p <y_star - y_proj, p - F^{-1} y_proj>.

    If y_proj really is the box projection of y_star, every term is <= 0 up to
    roundoff; a positive value witnesses a violated variational inequality.
    A NaN term, as from a NaN candidate, makes the certificate NaN.

    A one-joint certificate is computed on floats, bitwise equal to
    ``_variational_residual_arrays``: a 1-entry ``d @ x`` is ``0.0 + d*x``.
    """
    y_star = _vector(y_star)
    y_proj = _vector(y_proj)
    limit = box._limit
    if limit is None or y_star.shape != _ONE or y_proj.shape != _ONE:
        return _variational_residual_arrays(y_star, y_proj, box, probes)
    ys = y_star.item()
    yp = y_proj.item()
    d = ys - yp
    scaled = yp / limit
    worst = None
    for p in probes:
        if type(p) is not float:
            p = _vector(p)
            if p.shape != _ONE:
                raise ValueError("probe dimension mismatch")
            p = p.item()
        if abs(p) > 1.0 + 1e-12:
            raise ValueError("probe lies outside the unit box")
        worst = _larger(worst, 0.0 + d * (p - scaled))
    if worst is None:
        raise ValueError("at least one probe is required")
    return worst


def _larger(worst: float | None, value: float) -> float:
    """``max(worst, value)``, with None for no value yet, that keeps a NaN
    from either side: a NaN candidate gives a NaN certificate."""
    if worst is None or value > worst or value != value:
        return value
    return worst


def _variational_residual_arrays(y_star: np.ndarray, y_proj: np.ndarray, box: BoxConstraint,
                                 probes: Iterable[Sequence[float]]) -> float:
    """``variational_residual`` on float vectors, for any number of entries."""
    d = y_star - y_proj
    scaled = y_proj / box.limits
    worst = None
    for p in probes:
        p = _vector(p)
        if p.shape != scaled.shape:
            raise ValueError("probe dimension mismatch")
        if (np.abs(p) > 1.0 + 1e-12).any():
            raise ValueError("probe lies outside the unit box")
        worst = _larger(worst, float(d @ (p - scaled)))
    if worst is None:
        raise ValueError("at least one probe is required")
    return worst
