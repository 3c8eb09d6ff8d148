"""The float body of each controller stage against its array oracle.

Every stage of a controller period computes on Python floats, for one or
two joints (``admittance.py``).  The same stages on numpy arrays are kept
here as the oracle (``_proxy_predict_arrays``, ``_sliding_variable_arrays``,
``_inner_loop_candidate_arrays``, the box's ``_project_box_arrays`` and
``_variational_residual_arrays``, and the whole periods ``_step_arrays`` and
``_naive_step_arrays``).  The robust term has one float body for every loop,
which ``tests/test_msta.py`` checks against its defining inclusion, and both
sides call it.

On a diagonal loop (every loop matrix diagonal, as with a constant diagonal
estimate) the float body equals the oracle bit for bit.  Bits matter (a
one-ulp change of the torque moves the closed-loop traces visibly), so
every such comparison is of bytes: ``float.hex`` for a float, ``tobytes``
(with dtype and shape) for an array.  The inputs include signed zeros, where
numpy and Python floats disagree most easily: ``np.sign(-0.0)`` is +0.0, row
i of a product with a diagonal matrix is ``0.0 + A_ii*x_i`` whatever the
other entry's sign, and ``np.maximum``/``np.minimum`` break +-0 ties unlike
``max``/``min``.  A dot product, the certificate's included, is the float
row ``0.0 + d0*x0 [+ d1*x1]`` on both sides, not numpy's dot, which the BLAS
build may round once for a product and a sum (an FMA).  A diagonal solve is
a division on both sides (``_solve``, ``setvalued._solve2``), exact zeros
included.

On a full loop matrix (``estimate.kind = exact`` on the two-link arm) the
float body agrees with the oracle to roundoff: numpy's 2 x 2 product and
LAPACK's solve do not round like the float rows and the elimination of
``setvalued._solve2``.  There tau_star = W (qx_star - q1_star) multiplies
the roundoff of q1_star by W (about 5e5 at h = 1 ms), so its error is
measured against |W| ulp(q1_star).
"""

import itertools
import re

import numpy as np
import pytest

from nonsmooth_adm import msta, sim
from nonsmooth_adm.admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    _admittance_state,
    _candidate,
    _evaluate_loop,
    _proxy,
    _robust_term,
    _step_diagnostics,
    admittance_step,
    baseline_naive_step,
    initial_state,
    inner_loop_candidate,
    proxy_predict,
    sliding_variable,
)
from nonsmooth_adm.msta import MstaGains
from nonsmooth_adm.plant import one_dof_model, two_link_model
from nonsmooth_adm.setvalued import (
    BoxConstraint,
    _clip_flags,
    _solve2,
    project_box,
    variational_residual,
)


# ----------------------------------------------------------------- the array oracle

def _diagonal(A: np.ndarray) -> np.ndarray | None:
    """The diagonal of A when A is 1 x 1 or 2 x 2 with exact zeros off the
    diagonal and no zero on it: then ``_solve`` divides by it.  None
    otherwise."""
    if A.shape == (1, 1) or (A.shape == (2, 2) and A[0, 1] == 0.0 and A[1, 0] == 0.0):
        d = A.diagonal()
        if 0.0 not in d.tolist():
            return d
    return None


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(A, b)``, but ``b / d`` for d = ``_diagonal(A)``.

    Division agrees with the solve to roundoff.  With numpy 2.4 on OpenBLAS
    (x86-64) it was measured equal bit for bit on random 1 x 1 and 2 x 2
    systems, except that the 2 x 2 solve may flip the sign of a zero entry
    of b, which division keeps; the reciprocal ``b * (1/d)`` differed in
    about a third of them.
    """
    d = _diagonal(A)
    return b / d if d is not None else np.linalg.solve(A, b)


def _loop_arrays(loop) -> tuple:
    """The loop's matrices and gravity vector as arrays:
    (Mk, Gk, B, Bhat, W, MhC)."""
    n = len(loop.Gk)
    Mk, B, Bhat, W, MhC = (np.array(a).reshape(n, n)
                           for a in (loop.Mk, loop.B, loop.Bhat, loop.W, loop.MhC))
    return Mk, np.array(loop.Gk), B, Bhat, W, MhC


def _proxy_predict_arrays(state, fc, fd, g):
    """``proxy_predict`` on arrays."""
    ux_star = _solve(g.mx + g.bx * g.h, g.mx @ state.qxd_prev + g.h * (fc + fd))
    return ux_star, state.qx_prev + g.h * ux_star


def _sliding_variable_arrays(qx_star, q, state, g):
    """``sliding_variable`` on arrays."""
    qe = qx_star - q
    return qe, (qe - state.qe_prev) / g.h + g.lam * qe


def _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop):
    """``inner_loop_candidate`` on arrays."""
    h = g.h
    Mk, Gk, B, Bhat, W, MhC = _loop_arrays(loop)
    phi_a = (MhC @ q + h * (B @ state.q_prev)) / (h * h) + Gk + u_s
    phi_b = (Mk @ (state.qx_prev + h * state.ux_prev)) / (h * h) + (Bhat @ state.qx_prev) / h
    q1_star = q + _solve(W, phi_b - phi_a)
    return q1_star, W @ (qx_star - q1_star)


def _project_box_arrays(y: np.ndarray, box: BoxConstraint) -> np.ndarray:
    """``project_box`` on a float vector, for any number of entries."""
    if y.shape != box.limits.shape:
        raise ValueError(f"dimension mismatch: y has shape {y.shape}, box has {box.limits.shape}")
    return np.minimum(np.maximum(y, -box.limits), box.limits)


def _variational_residual_arrays(y_star: np.ndarray, y_proj: np.ndarray,
                                 box: BoxConstraint) -> float:
    """``variational_residual`` on float vectors, for any number of entries:
    the term at the corner p = np.sign(y_star - y_proj), summed from 0.0
    left to right, as the float row."""
    d = y_star - y_proj
    value = 0.0
    for a, b in zip(d.tolist(), (np.sign(d) - y_proj / box.limits).tolist()):
        value = value + a * b
    return value


def _clip_arrays(y_star, box):
    """The step's projection tail on arrays: (y, the flags, the certificate)."""
    y = _project_box_arrays(y_star, box)
    return y, np.abs(y_star) > box.limits, _variational_residual_arrays(y_star, y, box)


def _step_arrays(state, meas, model, g):
    """``admittance_step`` on arrays; the loop is built and the robust term
    computed by the package's own code, on either side."""
    loop = _evaluate_loop(model, meas.q, state, g)
    ux_star, qx_star = _proxy_predict_arrays(state, meas.fc, meas.fd, g)
    qe, s = _sliding_variable_arrays(qx_star, meas.q, state, g)
    u_s, v_next, solver = _robust_term(s, loop, state, g)
    q1_star, tau_star = _inner_loop_candidate_arrays(qx_star, meas.q, u_s, state, g, loop)
    tau, saturated, vi_residual = _clip_arrays(tau_star, g.box)
    qx = _solve(_loop_arrays(loop)[4], tau) + q1_star
    qxd = (qx - state.qx_prev) / g.h
    next_state = _admittance_state(qx, qxd, ux_star, meas.q.copy(), qe, v_next)
    diag = _step_diagnostics(tau_star, tau, qx_star, q1_star, s, qe, u_s, saturated, vi_residual,
                             solver)
    return tau, next_state, diag


def _naive_step_arrays(state, meas, model, ng):
    """``baseline_naive_step`` on arrays."""
    ux, qx = _proxy_predict_arrays(state, meas.fc, meas.fd, ng)
    qe = qx - meas.q
    tau_raw = ng.kp * qe + ng.kd * ((qe - state.qe_prev) / ng.h) + model.gravity_fn(meas.q)
    tau, saturated, vi_residual = _clip_arrays(tau_raw, ng.box)
    zero = np.zeros_like(qe)
    next_state = _admittance_state(qx, ux, ux, meas.q.copy(), qe, state.v_prev)
    diag = _step_diagnostics(tau_raw, tau, qx, meas.q.copy(), zero, qe, zero, saturated,
                             vi_residual, None)
    return tau, next_state, diag


# ----------------------------------------------------------------- inputs

LIMIT = 3.0
LIMITS2 = (3.0, 4.0)
# the presets' controller periods: 1 ms (fig3, fig5) and 4 ms (the linear stage)
_PERIODS = (1e-3, 4e-3)


def _bits(x) -> bytes:
    """Bytes of a float, an array (with its dtype and shape), a tuple of
    them, or of the solver diagnostics' fields (None as such)."""
    if isinstance(x, tuple):
        return b"|".join(_bits(a) for a in x)
    if x is None:
        return b"None"
    if isinstance(x, msta.SolverDiagnostics):
        return _bits((float(x.iterations), float(x.residual), float(x.converged), x.shat, x.m2))
    if isinstance(x, float):
        return float.hex(x).encode()
    return f"{x.dtype.str}{x.shape}".encode() + x.tobytes()


def _values(gen, n=60, limit=LIMIT):
    """Random floats over many scales, both zeros, and a box's limits."""
    special = [0.0, -0.0, limit, -limit, np.nextafter(limit, np.inf), np.nextafter(-limit, 0.0),
               5e-324, -5e-324, 1.0, -1.0]
    scales = 10.0 ** gen.integers(-8, 4, n)
    return special + (gen.normal(size=n) * scales).tolist()


def _one(x: float) -> np.ndarray:
    return np.array([x])


def _inputs(gen, scales, n=200):
    """Tuples of floats, one entry per scale: every combination of +0.0 and
    -0.0, then ``n`` random tuples with entries of the given scales."""
    zeros = list(itertools.product((0.0, -0.0), repeat=len(scales)))
    return zeros + [tuple(v) for v in (gen.normal(size=(n, len(scales))) * scales).tolist()]


def _pairs(gen, scales, n=300):
    """Tuples of two-entry vectors, one per scale: every combination of the
    signed-zero pairs, then ``n`` tuples whose vectors are random or, one in
    two, one of the pairs of +-0.0 and +-scale (so a -0.0 entry sits next to
    a negative one)."""
    zeros = [np.array(p) for p in itertools.product((0.0, -0.0), repeat=2)]
    out = [tuple(v) for v in itertools.product(zeros, repeat=len(scales))]
    for _ in range(n):
        row = []
        for scale in scales:
            if gen.random() < 0.5:
                special = (0.0, -0.0, scale, -scale)
                row.append(np.array([special[gen.integers(4)], special[gen.integers(4)]]))
            else:
                row.append(gen.normal(size=2) * scale * 10.0 ** gen.integers(-3, 3, 2))
        out.append(tuple(row))
    return out


def _state(qx_prev=0.0, qxd_prev=0.0, ux_prev=0.0, q_prev=0.0, qe_prev=0.0):
    return AdmittanceState(*map(_one, (qx_prev, qxd_prev, ux_prev, q_prev, qe_prev)),
                           np.zeros(1))


def _state2(qx_prev=(0.0, 0.0), qxd_prev=(0.0, 0.0), ux_prev=(0.0, 0.0), q_prev=(0.0, 0.0),
            qe_prev=(0.0, 0.0), v=(0.0, 0.0)):
    return AdmittanceState(*map(np.array, (qx_prev, qxd_prev, ux_prev, q_prev, qe_prev, v)))


def _gains(k1=30.0, us_mode="auto", limit=LIMIT, h=1e-3):
    return AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=k1,
                           msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0),
                           box=BoxConstraint([limit]), h=h, us_mode=us_mode)


def _gains2(k1=30.0, us_mode="explicit", limits=LIMITS2, k4=0.0, h=1e-3):
    return AdmittanceGains(mx=np.diag([0.5, 0.3]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=k1,
                           msta=MstaGains(k2=11.6, k3=66.0, k4=k4, gamma1=40.0),
                           box=BoxConstraint(list(limits)), h=h, us_mode=us_mode)


def _naive_gains(limit=LIMIT):
    return NaiveGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), kp=300.0, kd=31.0,
                      box=BoxConstraint([limit]), h=1e-3)


def _naive_gains2(limits=LIMITS2):
    return NaiveGains(mx=np.diag([0.5, 0.3]), bx=np.diag([1.0, 2.0]), kp=300.0, kd=31.0,
                      box=BoxConstraint(list(limits)), h=1e-3)


_PLANT = one_dof_model()
_ESTIMATES = {
    "constant": ModelEstimate.constant((0.1,), (2.0,)),
    "exact": ModelEstimate(_PLANT.mass_fn, _PLANT.coriolis_fn, _PLANT.gravity_fn),
    # evaluated every period; its -0.0 gravity keeps the sign of an all-zero sum
    "zero-gravity": ModelEstimate(lambda q: np.array([[0.1]]), lambda q, qd: np.array([[2.0]]),
                                  lambda q: np.array([-0.0])),
}
_ARM = two_link_model()
_ESTIMATES2 = {
    # the fig5 preset's estimate: with a scalar k1 the iteration matrix is 1.25 I
    "equal": ModelEstimate.constant((0.2, 0.2), (20.0, 20.0)),
    # diagonal but, with a scalar k1, a non-scalar iteration matrix
    "unequal": ModelEstimate.constant((0.2, 0.3), (20.0, 30.0)),
    "zero-gravity": ModelEstimate(lambda q: np.diag([0.2, 0.3]),
                                  lambda q, qd: np.diag([20.0, 30.0]),
                                  lambda q: np.array([-0.0, -0.0])),
    # the arm's own full mass matrix: not diagonal, so the loop keeps its arrays
    "exact": ModelEstimate(_ARM.mass_fn, _ARM.coriolis_fn, _ARM.gravity_fn),
}


def test_project_box_float_path_matches_arrays():
    gen = np.random.default_rng(1)
    box = BoxConstraint([LIMIT])
    for v in _values(gen) + [np.inf, -np.inf, np.nan]:
        y = _one(v)
        assert _bits(project_box(y, box)) == _bits(_project_box_arrays(y, box))


def test_project_box_two_entry_float_path_matches_arrays():
    gen = np.random.default_rng(11)
    box = BoxConstraint(list(LIMITS2))
    values = _values(gen, 25, LIMITS2[0]) + [LIMITS2[1], -LIMITS2[1], np.inf, -np.inf, np.nan]
    for v in itertools.product(values, values):
        y = np.array(v)
        assert _bits(project_box(y, box)) == _bits(_project_box_arrays(y, box))


def test_variational_residual_float_path_matches_arrays():
    gen = np.random.default_rng(2)
    box = BoxConstraint([LIMIT])
    values = _values(gen, 30)
    for ys, yp in itertools.product(values, values):
        y_star, y_proj = _one(ys), _one(yp)
        expected = _variational_residual_arrays(y_star, y_proj, box)
        assert _bits(variational_residual(y_star, y_proj, box)) == _bits(expected)


def test_variational_residual_two_entry_float_path_matches_arrays():
    """Projected pairs over many scales (a zero factor in every product) and
    unprojected ones (products that are inexact)."""
    gen = np.random.default_rng(12)
    box = BoxConstraint(list(LIMITS2))
    values = _values(gen, 12, LIMITS2[0])
    pairs = [np.array(v) for v in itertools.product(values, values)]
    for y_star in pairs[::3]:
        for y_proj in (project_box(y_star, box), pairs[gen.integers(len(pairs))]):
            expected = _variational_residual_arrays(y_star, y_proj, box)
            assert _bits(variational_residual(y_star, y_proj, box)) == _bits(expected)


def test_worst_probe_sign_matches_numpy():
    for x in (0.0, -0.0, 2.5, -2.5, 5e-324, -5e-324, np.inf, -np.inf):
        for y in (0.0, -0.0):
            assert _bits(_clip_flags(1.0, x, y)[1]) == _bits(float(np.sign(x - y)))
    assert np.isnan(_clip_flags(1.0, np.nan, 0.0)[1])


def test_diagonal_product_is_entrywise_until_an_entry_is_not_finite():
    """Row i of numpy's product with a diagonal 2 x 2 matrix is
    ``0.0 + A_ii*x_i``, and so is the float row ``0.0 + A_i0*x_0 +
    A_i1*x_1``, for every sign of the off-diagonal zero and of the other
    entry, zeros included; a non-finite other entry makes both NaN."""
    entries = (0.0, -0.0, 1.5, -1.5, 5e-324, -2.5e-300)
    for a0, a1, z in itertools.product((0.3, -0.7, 0.0), (2.0, -0.0), (0.0, -0.0)):
        A = np.array([[a0, z], [z, a1]])
        for x0, x1 in itertools.product(entries, entries):
            x = np.array([x0, x1])
            expected = _bits(np.array([0.0 + a0 * x0, 0.0 + a1 * x1]))
            assert _bits(A @ x) == expected
            assert _bits(np.array([0.0 + a0 * x0 + z * x1, 0.0 + z * x0 + a1 * x1])) == expected
    with np.errstate(invalid="ignore"):
        row = (np.diag([2.0, 3.0]) @ np.array([np.inf, 1.0]))[1]
    assert np.isnan(row) and np.isnan(0.0 + 0.0 * np.inf + 3.0 * 1.0)


def test_runner_force_map_is_the_float_row_convention():
    """The runner maps a planar force to joint space on floats,
    ``sim._joint_forces``: joint i's force is bitwise 0.0 + jx_i*fx +
    jy_i*fy, so a zero force maps to +0.0 as the numpy product gives, and it
    agrees with ``jac.T @ [fx, fy]`` to one rounding of the products'
    magnitudes (numpy's product may round once for a product and a sum, an
    FMA).  ``sim._ee_velocity`` likewise maps the joint rates: row r is
    bitwise 0.0 + j_r0*qd_0 (+ j_r1*qd_1) and agrees with ``jac @ qd`` to one
    rounding.  One- and two-joint Jacobians, scales 1e-8 to 1e6, signed
    zeros."""
    gen = np.random.default_rng(14)

    def entries(size):
        x = gen.normal(size=size) * 10.0 ** gen.uniform(-8, 6, size)
        pick = gen.random(size)
        x[pick < 0.15] = 0.0
        x[(pick >= 0.15) & (pick < 0.3)] = -0.0
        return x

    def one_rounding(got, want, terms):
        return np.all(np.abs(np.array(got) - want) <= 2.0 ** -52 * np.abs(terms).sum(axis=-1))

    for n in (1, 2):
        for _ in range(5000):
            jac, qd = entries((2, n)), entries(n)
            f = entries(2)
            flat, (fx, fy), rates = tuple(jac.ravel().tolist()), f.tolist(), qd.tolist()
            forces = sim._joint_forces(flat, fx, fy)
            rows = jac.tolist()
            assert _bits(tuple(forces)) == _bits(tuple(
                0.0 + jx * fx + jy * fy for jx, jy in zip(*rows)))
            assert one_rounding(forces, jac.T @ f, jac.T * f)
            assert _bits(tuple(sim._ee_velocity(flat, rates))) == _bits(tuple(
                0.0 + r[0] * rates[0] if n == 1 else 0.0 + r[0] * rates[0] + r[1] * rates[1]
                for r in rows))
            assert one_rounding(sim._ee_velocity(flat, rates), jac @ qd, jac * qd)
    assert _bits(tuple(sim._joint_forces((-0.0, -1.0, 2.0, -0.0), 0.0, -0.0))) == \
        _bits((0.0, 0.0)) == _bits(tuple(np.array([[-0.0, -1.0], [2.0, -0.0]]).T @ [0.0, -0.0]))


@pytest.mark.parametrize("naive", [False, True])
def test_proxy_predict_float_path_matches_arrays(naive):
    g = _naive_gains() if naive else _gains()
    for qx_prev, qxd_prev, fc, fd in _inputs(np.random.default_rng(3), [0.01, 0.1, 5.0, 3.0]):
        state, fc, fd = _state(qx_prev, qxd_prev), _one(fc), _one(fd)
        assert (_bits(proxy_predict(state, fc, fd, g))
                == _bits(_proxy_predict_arrays(state, fc, fd, g)))


@pytest.mark.parametrize("naive", [False, True])
def test_two_joint_proxy_predict_float_path_matches_arrays(naive):
    g = _naive_gains2() if naive else _gains2()
    for qx_prev, qxd_prev, fc, fd in _pairs(np.random.default_rng(13), [0.01, 0.1, 5.0, 3.0]):
        state = _state2(qx_prev=qx_prev, qxd_prev=qxd_prev)
        assert (_bits(proxy_predict(state, fc, fd, g))
                == _bits(_proxy_predict_arrays(state, fc, fd, g)))


def test_two_joint_proxy_with_full_matrices_matches_arrays_to_roundoff():
    """Full mx and bx (no preset has them): ux_star = P^{-1} b, P = mx +
    bx*h, to a few units of ``_position_unit`` against the oracle's solve,
    and qx_star = qx_prev + h*ux_star to that times h."""
    gen = np.random.default_rng(22)
    for k in range(300):
        a = gen.normal(size=(2, 2))
        mx = a @ a.T + 0.05 * np.eye(2)
        bx = mx @ (gen.normal(size=(2, 2)) * 0.3 + 2.0 * np.eye(2))
        if k % 3 == 0:
            mx[0, 1] = mx[1, 0] = 0.0      # a full bx alone
        h = _PERIODS[k % 2]
        g = NaiveGains(mx=mx, bx=bx, kp=300.0, kd=31.0, box=BoxConstraint([1.0, 1.0]), h=h)
        state = _state2(qx_prev=gen.normal(size=2) * 0.01, qxd_prev=gen.normal(size=2) * 0.1)
        fc, fd = gen.normal(size=2) * 5.0, gen.normal(size=2) * 3.0
        ux, qx = proxy_predict(state, fc, fd, g)
        ux_ref, qx_ref = _proxy_predict_arrays(state, fc, fd, g)
        P = g.mx + g.bx * h
        unit = _position_unit(P, ux_ref, np.linalg.solve(P, g.mx @ state.qxd_prev),
                              np.linalg.solve(P, h * (fc + fd)))
        _assert_within(ux, ux_ref, unit)
        _assert_within(qx, qx_ref, h * unit + np.spacing(np.abs(qx_ref)))


def test_sliding_variable_float_path_matches_arrays():
    g = _gains()
    for qx_star, q, qe_prev in _inputs(np.random.default_rng(4), [0.01, 0.01, 0.01]):
        state, qx_star, q = _state(qe_prev=qe_prev), _one(qx_star), _one(q)
        assert (_bits(sliding_variable(qx_star, q, state, g))
                == _bits(_sliding_variable_arrays(qx_star, q, state, g)))


def test_two_joint_sliding_variable_float_path_matches_arrays():
    g = _gains2()
    for qx_star, q, qe_prev in _pairs(np.random.default_rng(14), [0.01, 0.01, 0.01]):
        state = _state2(qe_prev=qe_prev)
        assert (_bits(sliding_variable(qx_star, q, state, g))
                == _bits(_sliding_variable_arrays(qx_star, q, state, g)))


@pytest.mark.parametrize("h,k1,estimate", itertools.product(
    _PERIODS, (30.0, "structured"), sorted(_ESTIMATES)))
def test_inner_loop_candidate_float_path_matches_arrays(h, k1, estimate):
    g = _gains(k1, h=h)
    model = _ESTIMATES[estimate]
    for qx_star, q, u_s, qx_prev, ux_prev, q_prev in _inputs(
            np.random.default_rng(5), [0.01, 0.01, 5.0, 0.01, 0.1, 0.01]):
        state = _state(qx_prev=qx_prev, ux_prev=ux_prev, q_prev=q_prev)
        qx_star, q, u_s = _one(qx_star), _one(q), _one(u_s)
        loop = _evaluate_loop(model, q, state, g)
        expected = _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, state, model, g)) == \
            _bits(expected)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, state, model, g,
                                          loop=loop)) == _bits(expected)


# The roundoff allowance on a full loop matrix, in units of _position_unit.
# Over the draws of the tests below the worst error was about 2 units.
_UNITS = 8.0


def _position_unit(W: np.ndarray, *positions) -> float:
    """eps cond(W) times the largest entry of ``positions``: the size of the
    roundoff of a backward stable solve against W whose right-hand side and
    solution have entries of that size, and so of the disagreement of two
    such solves (LAPACK's and ``_solve2``'s elimination)."""
    return float(np.finfo(float).eps * np.linalg.cond(W)
                 * max(float(np.abs(x).max()) for x in positions))


def _assert_within(got, expected, unit) -> None:
    assert (np.abs(got - expected) <= _UNITS * unit).all(), (got, expected, unit)


def _assert_candidate_close(got, expected, q, qx_star, loop) -> None:
    """(q1_star, tau_star) against the oracle's on a full W.  q1_star = q +
    W^{-1} (phi_b - phi_a) to a few position units; tau_star = W (qx_star -
    q1_star) multiplies that error by W, so it is allowed |W| times it, plus
    the rounding of the product itself."""
    (q1, tau), (q1_ref, tau_ref) = got, expected
    W = _loop_arrays(loop)[4]
    unit = _position_unit(W, q, q1_ref - q)
    _assert_within(q1, q1_ref, unit)
    _assert_within(tau, tau_ref, np.abs(W) @ (unit + np.finfo(float).eps
                                              * np.abs(qx_star - q1_ref)))


@pytest.mark.parametrize("h,k1,estimate", itertools.product(
    _PERIODS, (30.0, "structured"), sorted(_ESTIMATES2)))
def test_two_joint_inner_loop_candidate_float_path_matches_arrays(h, k1, estimate):
    """Bit for bit on a diagonal loop; to roundoff on the arm's full mass
    matrix, whose W the float body solves by elimination."""
    g = _gains2(k1, h=h)
    model = _ESTIMATES2[estimate]
    for qx_star, q, u_s, qx_prev, ux_prev, q_prev in _pairs(
            np.random.default_rng(15), [0.01, 0.01, 5.0, 0.01, 0.1, 0.01], n=200):
        state = _state2(qx_prev=qx_prev, ux_prev=ux_prev, q_prev=q_prev)
        loop = _evaluate_loop(model, q, state, g)
        assert (loop.W[1] != 0.0) == (estimate == "exact")
        got = inner_loop_candidate(qx_star, q, u_s, state, model, g, loop=loop)
        expected = _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
        if estimate == "exact":
            _assert_candidate_close(got, expected, q, qx_star, loop)
        else:
            assert _bits(got) == _bits(expected)


def test_non_scalar_diagonal_iteration_matrix_takes_the_root(monkeypatch):
    """A diagonal but non-scalar iteration matrix (G = diag(1.25, 1.2)) sends
    a solve outside the dead band to the scalar root, and one just outside
    the band converges too; a scalar G takes the radial closed form at
    k4 = 0."""
    g = _gains2(us_mode="implicit-vector")
    calls = []

    def counting(*args, _fn=msta._root):
        calls.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(msta, "_root", counting)
    s = np.array([0.02, -0.01])
    loop = _evaluate_loop(_ESTIMATES2["unequal"], np.zeros(2), _state2(), g)
    assert loop.iteration.scale is None
    assert np.allclose(np.reshape(loop.iteration.G, (2, 2)), np.diag([1.25, 1.2]), rtol=0.0,
                       atol=1e-15)
    # s = (2.79e-6, -7.69e-5) sits just above the band h^2 k3 = 6.6e-5
    for s_in in (s, np.array([2.79e-6, -7.69e-5])):
        u_s, _, diag = _robust_term(s_in, loop, _state2(), g)
        assert diag.converged and 1 < diag.iterations <= 8
    assert len(calls) == 2
    calls.clear()
    loop = _evaluate_loop(_ESTIMATES2["equal"], np.zeros(2), _state2(), g)
    _, _, diag = _robust_term(s, loop, _state2(), g)
    assert calls == [] and diag.iterations == 1


def test_scalar_iteration_matrix_with_k4_takes_the_root(monkeypatch):
    """A multiple of I (the equal diagonal estimate) takes the radial closed
    form only at k4 = 0 (above); with k4 > 0 (alpha2 > 0) every solve
    outside the dead band takes the scalar root, and converges."""
    g = _gains2(us_mode="implicit-vector", k4=1.0)
    calls = []

    def counting(*args, _fn=msta._root):
        calls.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(msta, "_root", counting)
    loop = _evaluate_loop(_ESTIMATES2["equal"], np.zeros(2), _state2(), g)
    assert loop.iteration.scale is not None
    inputs = (np.array([0.02, -0.01]), np.array([2.79e-6, -7.69e-5]), np.array([-3.0, 0.5]))
    for s in inputs:
        _, _, diag = _robust_term(s, loop, _state2(), g)
        assert diag.converged and 1 < diag.iterations <= 8
    assert len(calls) == len(inputs)


def _counting(monkeypatch, targets) -> list:
    """Wrap each ``(module, name)`` of ``targets`` so that a call appends its
    name to the returned list."""
    calls = []
    for module, name in targets:
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def test_two_joint_exact_zero_divides_in_both_paths(monkeypatch):
    """A two-entry b with an exact zero is divided, by ``_solve2`` and by the
    oracle alike, so the zero keeps the sign that np.linalg.solve may flip;
    no stage of a step on a diagonal loop calls np.linalg.solve."""
    b = np.array([-0.0, -1.0])
    P = np.diag([0.52, 0.304])
    assert _bits(np.linalg.solve(P, b)) != _bits(b / P.diagonal())
    assert _bits(np.array(_solve2((0.52, 0.0, 0.0, 0.304), -0.0, -1.0))) == \
        _bits(b / P.diagonal())
    g = _gains2()
    state, zero = _state2(qxd_prev=(0.0, 0.2)), np.zeros(2)
    # b = mx @ qxd_prev + h*(fc + fd) = (0, 0.06): a division against mx + bx*h
    proxy = _bits(_proxy_predict_arrays(state, zero, zero, g))
    # an all-zero first period: every solve of the step meets an exact zero
    first = (initial_state(zero), Measurement(zero, zero, zero), _ESTIMATES2["zero-gravity"])
    step = _step_bits(_step_arrays(*first, _gains2()))
    calls = _counting(monkeypatch, ((np.linalg, "solve"),))
    assert _bits(proxy_predict(state, zero, zero, g)) == proxy
    assert _step_bits(admittance_step(*first, g)) == step
    assert calls == []


def test_two_joint_non_finite_entry_reaches_the_other_row_as_numpy():
    """A non-finite input entry of a two-joint stage body reaches the other
    joint's row through the zero off-diagonal product (0 * inf is NaN), as in
    numpy's product, so the float body and the oracle still agree.  A step
    never meets one: the measurement and the state refuse non-finite
    entries, and so do the public stage functions."""
    g = _gains2()
    fc = np.array([1.0, 2.0])

    def state(qxd0):
        return _admittance_state(np.zeros(2), np.array([qxd0, 0.1]), np.zeros(2), np.zeros(2),
                                 np.zeros(2), np.zeros(2))

    with np.errstate(invalid="ignore"):
        st = state(np.inf)
        ux, qx = map(np.array, _proxy(g, st.qxd_prev.tolist(), st.qx_prev.tolist(),
                                      fc.tolist(), fc.tolist()))
        ux_ref, qx_ref = _proxy_predict_arrays(st, fc, fc, g)
        st = state(1.0)
        loop = _evaluate_loop(_ESTIMATES2["equal"], np.zeros(2), st, g)
        u_s = np.array([np.inf, 1.0])
        q1, tau = map(np.array, _candidate(loop, g.h, fc.tolist(), fc.tolist(), u_s.tolist(),
                                           st.qx_prev.tolist(), st.ux_prev.tolist(),
                                           st.q_prev.tolist()))
        q1_ref, tau_ref = _inner_loop_candidate_arrays(fc, fc, u_s, st, g, loop)
    assert ux[0] == qx[0] == np.inf and np.isnan([ux[1], qx[1]]).all()
    assert q1[0] == -np.inf and tau[0] == np.inf and np.isnan(tau[1])
    for got, expected in ((ux, ux_ref), (qx, qx_ref), (q1, q1_ref), (tau, tau_ref)):
        np.testing.assert_array_equal(got, expected)


def _step_bits(out) -> bytes:
    tau, st, d = out
    parts = [tau, st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev, st.v_prev,
             d.tau_star, d.tau, d.qx_star, d.q1_star, d.s, d.qe, d.u_s, d.saturated,
             float(d.lambda_vi_residual), d.solver]
    return _bits(tuple(parts))


def _run(step, g, model, meas_seq):
    state = initial_state(np.full(meas_seq[0].q.size, -0.0))
    out = []
    for meas in meas_seq:
        res = step(state, meas, model, g)
        out.append(_step_bits(res))
        state = res[1]
    return out


def _measurements(gen, n=150, dof=1):
    zero, minus = np.zeros(dof), np.full(dof, -0.0)
    seq = [Measurement(minus, minus, zero), Measurement(zero, zero, minus)]
    for q, fc, fd in (gen.normal(size=(n, 3, dof)) * [[0.02], [5.0], [3.0]]).tolist():
        seq.append(Measurement(q, fc, fd))
    return seq


@pytest.mark.parametrize("h,k1,estimate,us_mode", itertools.product(
    _PERIODS, (30.0, "structured"), sorted(_ESTIMATES),
    ("scalar-implicit", "explicit", "implicit-vector")))
def test_one_joint_step_matches_array_code(h, k1, estimate, us_mode):
    """Whole periods, nearly all saturated (small limit) or about a third
    (large limit), against the same periods of the oracle."""
    meas_seq = _measurements(np.random.default_rng(6))
    model = _ESTIMATES[estimate]
    for limit in (0.05, 1e3):
        assert _run(admittance_step, _gains(k1, us_mode, limit, h), model, meas_seq) == \
            _run(_step_arrays, _gains(k1, us_mode, limit, h), model, meas_seq)


@pytest.mark.parametrize("h,k1,estimate,us_mode", itertools.product(
    _PERIODS, (30.0, "structured"), ("equal", "unequal", "zero-gravity"),
    ("explicit", "implicit-vector")))
def test_two_joint_step_matches_array_code(h, k1, estimate, us_mode):
    """As the one-joint test, on a diagonal two-joint loop: both joints
    saturated, or some, or none."""
    meas_seq = _measurements(np.random.default_rng(18), dof=2)
    model = _ESTIMATES2[estimate]
    for lim in ((0.05, 0.08), (0.5, 1e3), (1e3, 1e3)):
        assert _run(admittance_step, _gains2(k1, us_mode, lim, h=h), model, meas_seq) == \
            _run(_step_arrays, _gains2(k1, us_mode, lim, h=h), model, meas_seq)


@pytest.mark.parametrize("h,k1,us_mode", itertools.product(
    _PERIODS, (30.0, "structured"), ("explicit", "implicit-vector")))
def test_two_joint_step_on_the_arm_model_matches_arrays_to_roundoff(h, k1, us_mode):
    """On the arm's own full mass matrix, each period against the oracle's
    period from the same state: the proxy, the sliding variable, the robust
    term and the saturation flags bit for bit (they do not see W); q1_star,
    tau_star and the applied torque as in the candidate test, and the
    corrected proxy to a few position units."""
    meas_seq = _measurements(np.random.default_rng(21), dof=2)
    model = _ESTIMATES2["exact"]
    for lim in ((0.05, 0.08), (0.5, 1e3), (1e3, 1e3)):
        g = _gains2(k1, us_mode, lim, h=h)
        state = initial_state(np.full(2, -0.0))
        for meas in meas_seq:
            tau, nxt, d = admittance_step(state, meas, model, g)
            tau_ref, nxt_ref, d_ref = _step_arrays(state, meas, model, g)
            exact = ("qx_star", "s", "qe", "u_s", "saturated", "solver")
            assert _bits(tuple(getattr(d, f) for f in exact)) == \
                _bits(tuple(getattr(d_ref, f) for f in exact))
            assert _bits((nxt.ux_prev, nxt.qe_prev, nxt.v_prev)) == \
                _bits((nxt_ref.ux_prev, nxt_ref.qe_prev, nxt_ref.v_prev))
            loop = _evaluate_loop(model, meas.q, state, g)
            _assert_candidate_close((d.q1_star, d.tau_star), (d_ref.q1_star, d_ref.tau_star),
                                    meas.q, d.qx_star, loop)
            W = _loop_arrays(loop)[4]
            # tau is tau_star or, where saturated, the limit on both sides
            unit = _position_unit(W, meas.q, d_ref.q1_star - meas.q)
            _assert_within(tau, tau_ref, np.abs(W) @ (unit + np.finfo(float).eps
                                                      * np.abs(d.qx_star - d_ref.q1_star)))
            # qx = W^{-1} tau + q1_star
            _assert_within(nxt.qx_prev, nxt_ref.qx_prev,
                           _position_unit(W, meas.q, d_ref.q1_star - meas.q,
                                          nxt_ref.qx_prev - d_ref.q1_star))
            state = nxt


@pytest.mark.parametrize("estimate", sorted(_ESTIMATES))
def test_one_joint_naive_step_matches_array_code(estimate):
    meas_seq = _measurements(np.random.default_rng(7))
    model = _ESTIMATES[estimate]
    for limit in (0.05, 1e3):
        assert _run(baseline_naive_step, _naive_gains(limit), model, meas_seq) == \
            _run(_naive_step_arrays, _naive_gains(limit), model, meas_seq)


@pytest.mark.parametrize("estimate", sorted(_ESTIMATES2))
def test_two_joint_naive_step_matches_array_code(estimate):
    meas_seq = _measurements(np.random.default_rng(19), dof=2)
    model = _ESTIMATES2[estimate]
    for lim in ((0.05, 0.08), (1e3, 1e3)):
        assert _run(baseline_naive_step, _naive_gains2(lim), model, meas_seq) == \
            _run(_naive_step_arrays, _naive_gains2(lim), model, meas_seq)


def test_mixed_entry_counts_raise_or_broadcast_as_the_array_code():
    """The projection and the certificate refuse vectors of another entry
    count than the box; a controller stage refuses mixed entry counts."""
    box1, box2 = BoxConstraint([LIMIT]), BoxConstraint([1.0, 1.0])
    y1, y2, y3 = _one(0.5), np.array([0.5, 4.0]), np.zeros(3)
    # a box of three entries is refused where it is built
    with pytest.raises(ValueError, match="^the controller takes one or two joints; "
                                         "the torque box has 3$"):
        BoxConstraint([1.0, 1.0, 1.0])
    # the projection names both shapes, as the array code does
    for y, box in ((y2, box1), (y1, box2), (y3, box2)):
        for project in (project_box, _project_box_arrays):
            with pytest.raises(ValueError, match=re.escape(
                    f"dimension mismatch: y has shape {y.shape}, box has {box.limits.shape}")):
                project(y, box)
    # the certificate refuses a y_star or y_proj of another entry count than
    # the box, naming both shapes
    for y_star, y_proj, box in ((y1, y2, box1), (y2, y1, box1), (y2, y2, box1),
                                (y2, y3, box2), (y3, y3, box2)):
        with pytest.raises(ValueError, match=re.escape(
                f"y_star has shape {y_star.shape} and y_proj {y_proj.shape}, "
                f"box has {box.limits.shape}")):
            variational_residual(y_star, y_proj, box)
    # a controller stage refuses vectors of mixed entry counts
    g, g2 = _gains(), _gains2()
    state, state2 = _state(0.001, -0.002, 0.003, -0.004, 0.005), _state2()
    model = _ESTIMATES["constant"]
    loop = _evaluate_loop(model, y1, state, g)
    for stage in (lambda: proxy_predict(state, y2, y1, g),
                  lambda: proxy_predict(state, y1, y2, g),
                  lambda: proxy_predict(state2, y2, y1, g2),
                  lambda: proxy_predict(state2, y2, y3, g2),
                  lambda: proxy_predict(state, y2, y2, g2),
                  lambda: sliding_variable(y1, y2, state, g),
                  lambda: sliding_variable(y2, y1, state2, g2),
                  lambda: sliding_variable(y2, y3, state2, g2),
                  lambda: sliding_variable(y2, y2, state, g),
                  lambda: inner_loop_candidate(y1, y2, y1, state, model, g, loop=loop),
                  lambda: inner_loop_candidate(y2, y2, y2, state, model, g, loop=loop)):
        with pytest.raises(ValueError):
            stage()
