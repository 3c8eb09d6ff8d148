"""The float path of each controller stage against its array code.

On a diagonal loop of one or two joints (every loop matrix diagonal, as with
a constant diagonal estimate) every stage of a controller period computes on
Python floats, one joint at a time; a non-diagonal loop (``estimate.kind =
exact`` on the two-link arm) keeps the array code, which each stage keeps as
a private helper.  The robust term has one float body for every loop, which
``tests/test_msta.py`` checks against its defining inclusion.
Bits matter (a one-ulp change of the torque moves the closed-loop traces
visibly), so every comparison here is of bytes: ``float.hex`` for a float,
``tobytes`` (with dtype and shape) for an array.  The inputs include signed
zeros, where numpy and Python floats disagree most easily: ``np.sign(-0.0)``
is +0.0, row i of a product with a diagonal matrix is ``0.0 + A_ii*x_i``
whatever the other entry's sign, and ``np.maximum``/``np.minimum`` break +-0
ties unlike ``max``/``min``.  Two sums are left to numpy: a norm is numpy's
dot of an array, and the certificate's dot of two entries is numpy's unless
its second product has a zero factor, because numpy's two-entry dot may
round once for a product and a sum (an FMA).  Where numpy's ``_solve`` hands
a two-entry b with an exact zero to ``np.linalg.solve`` (which may flip the
sign of a zero), or an entry is not finite (numpy adds 0 times the other
entry, NaN for inf), the float branch hands the stage to its array code.
"""

import itertools

import numpy as np
import pytest

from nonsmooth_adm import admittance, msta, setvalued
from nonsmooth_adm.admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    _evaluate_loop,
    _inner_loop_candidate_arrays,
    _proxy_predict_arrays,
    _robust_term,
    _sliding_variable_arrays,
    admittance_step,
    baseline_naive_step,
    initial_state,
    inner_loop_candidate,
    proxy_predict,
    sliding_variable,
)
from nonsmooth_adm.msta import MstaGains, MstaState
from nonsmooth_adm.plant import one_dof_model, two_link_model
from nonsmooth_adm.setvalued import (
    BoxConstraint,
    _project_box_arrays,
    _unchecked,
    _variational_residual_arrays,
    project_box,
    variational_residual,
)

LIMIT = 3.0
LIMITS2 = (3.0, 4.0)


def _bits(x) -> bytes:
    """Bytes of a float, an array (with its dtype and shape), a tuple of
    them, or of the solver diagnostics' fields (None as such)."""
    if isinstance(x, tuple):
        return b"|".join(_bits(a) for a in x)
    if x is None:
        return b"None"
    if isinstance(x, msta.SolverDiagnostics):
        return _bits((float(x.iterations), float(x.residual), float(x.converged), x.shat, x.m2))
    if isinstance(x, MstaState):
        return _bits(x.v)
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
                           MstaState.zero(1))


def _state2(qx_prev=(0.0, 0.0), qxd_prev=(0.0, 0.0), ux_prev=(0.0, 0.0), q_prev=(0.0, 0.0),
            qe_prev=(0.0, 0.0), v=(0.0, 0.0)):
    return AdmittanceState(*map(np.array, (qx_prev, qxd_prev, ux_prev, q_prev, qe_prev)),
                           MstaState(np.array(v)))


def _gains(us_coupling="direct", k1=30.0, us_mode="auto", limit=LIMIT):
    return AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=k1,
                           msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0),
                           box=BoxConstraint([limit]), h=1e-3, us_mode=us_mode,
                           us_coupling=us_coupling)


def _gains2(us_coupling="direct", k1=30.0, us_mode="explicit", limits=LIMITS2, k4=0.0):
    return AdmittanceGains(mx=np.diag([0.5, 0.3]), bx=np.diag([1.0, 2.0]), lam=10.0, k1=k1,
                           msta=MstaGains(k2=11.6, k3=66.0, k4=k4, gamma1=40.0),
                           box=BoxConstraint(list(limits)), h=1e-3, us_mode=us_mode,
                           us_coupling=us_coupling)


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
        probes = [np.sign(y_star - y_proj), _one(0.5), _one(-0.0), [0.0], _one(-1.0)]
        expected = _variational_residual_arrays(y_star, y_proj, box, probes)
        assert _bits(variational_residual(y_star, y_proj, box, probes)) == _bits(expected)
        # a probe passed as a bare float is the same probe as a 1-entry array
        floats = [p.item() if isinstance(p, np.ndarray) else p[0] for p in probes]
        assert _bits(variational_residual(y_star, y_proj, box, floats)) == _bits(expected)


def test_variational_residual_two_entry_float_path_matches_arrays():
    """Projected and unprojected pairs over many scales, with the worst
    probe (a zero factor in every product), probes whose second product has
    a zero factor, and random probes that leave the sum to numpy's dot."""
    gen = np.random.default_rng(12)
    box = BoxConstraint(list(LIMITS2))
    values = _values(gen, 12, LIMITS2[0])
    pairs = [np.array(v) for v in itertools.product(values, values)]
    for y_star in pairs[::3]:
        for y_proj in (project_box(y_star, box), pairs[gen.integers(len(pairs))]):
            probes = [np.sign(y_star - y_proj), np.array([0.5, -0.0]), np.array([-0.0, 0.0]),
                      gen.uniform(-1.0, 1.0, 2), [float(gen.uniform(-1, 1)), 0.0]]
            expected = _variational_residual_arrays(y_star, y_proj, box, probes)
            assert _bits(variational_residual(y_star, y_proj, box, probes)) == _bits(expected)
            # probes as lists of floats, as the steps build them
            lists = [[float(x) for x in p] for p in probes]
            assert _bits(variational_residual(y_star, y_proj, box, lists)) == _bits(expected)


def test_worst_probe_sign_matches_numpy():
    for x in (0.0, -0.0, 2.5, -2.5, 5e-324, -5e-324, np.inf, -np.inf):
        for y in (0.0, -0.0):
            assert _bits(admittance._clip_flags(1.0, x, y)[1]) == _bits(float(np.sign(x - y)))
    assert np.isnan(admittance._clip_flags(1.0, np.nan, 0.0)[1])


def test_diagonal_product_is_entrywise_until_an_entry_is_not_finite():
    """Row i of numpy's product with a diagonal 2 x 2 matrix is
    ``0.0 + A_ii*x_i`` for every sign of the off-diagonal zero and of the
    other entry, zeros included; a non-finite other entry makes it NaN,
    which is why a two-joint stage with a non-finite result redoes its arrays."""
    entries = (0.0, -0.0, 1.5, -1.5, 5e-324, -2.5e-300)
    for a0, a1, z in itertools.product((0.3, -0.7, 0.0), (2.0, -0.0), (0.0, -0.0)):
        A = np.array([[a0, z], [z, a1]])
        for x0, x1 in itertools.product(entries, entries):
            x = np.array([x0, x1])
            assert _bits(A @ x) == _bits(np.array([0.0 + a0 * x0, 0.0 + a1 * x1]))
    with np.errstate(invalid="ignore"):
        row = (np.diag([2.0, 3.0]) @ np.array([np.inf, 1.0]))[1]
    assert np.isnan(row)


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


@pytest.mark.parametrize("us_coupling,k1,estimate", itertools.product(
    ("direct", "inertia-scaled"), (30.0, "structured"), sorted(_ESTIMATES)))
def test_inner_loop_candidate_float_path_matches_arrays(us_coupling, k1, estimate):
    g = _gains(us_coupling, k1)
    model = _ESTIMATES[estimate]
    for qx_star, q, u_s, qx_prev, ux_prev, q_prev in _inputs(
            np.random.default_rng(5), [0.01, 0.01, 5.0, 0.01, 0.1, 0.01]):
        state = _state(qx_prev=qx_prev, ux_prev=ux_prev, q_prev=q_prev)
        qx_star, q, u_s = _one(qx_star), _one(q), _one(u_s)
        loop = _evaluate_loop(model, q, state, g)
        assert loop.diag is not None
        expected = _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, u_s, state, model, g)) == \
            _bits(expected)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, u_s, state, model, g,
                                          loop=loop)) == _bits(expected)


@pytest.mark.parametrize("us_coupling,k1,estimate", itertools.product(
    ("direct", "inertia-scaled"), (30.0, "structured"), sorted(_ESTIMATES2)))
def test_two_joint_inner_loop_candidate_float_path_matches_arrays(us_coupling, k1, estimate):
    g = _gains2(us_coupling, k1)
    model = _ESTIMATES2[estimate]
    for qx_star, q, u_s, qx_prev, ux_prev, q_prev in _pairs(
            np.random.default_rng(15), [0.01, 0.01, 5.0, 0.01, 0.1, 0.01], n=200):
        state = _state2(qx_prev=qx_prev, ux_prev=ux_prev, q_prev=q_prev)
        loop = _evaluate_loop(model, q, state, g)
        assert (loop.diag is None) == (estimate == "exact")
        expected = _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, u_s, state, model, g,
                                          loop=loop)) == _bits(expected)


def test_non_scalar_diagonal_iteration_matrix_takes_the_root(monkeypatch):
    """A diagonal but non-scalar iteration matrix (G = diag(1.25, 1.2)) sends
    a solve outside the dead band to the scalar root, and one just outside
    the band converges too; a scalar G takes the radial closed form."""
    g = _gains2(us_mode="implicit-vector")
    calls = []

    def counting(*args, _fn=msta._root):
        calls.append(args[0])
        return _fn(*args)

    monkeypatch.setattr(msta, "_root", counting)
    s = np.array([0.02, -0.01])
    loop = _evaluate_loop(_ESTIMATES2["unequal"], np.zeros(2), _state2(), g)
    assert loop.diag is not None and loop.iteration.scale is None
    assert np.allclose(loop.iteration.G, np.diag([1.25, 1.2]), rtol=0.0, atol=1e-15)
    # s = (2.79e-6, -7.69e-5) sits just above the band h^2 k3 = 6.6e-5
    for s_in in (s, np.array([2.79e-6, -7.69e-5])):
        u_s, _, diag = _robust_term(s_in, loop, _state2(), g)
        assert diag.converged and 1 < diag.iterations <= 8
    assert len(calls) == 2
    calls.clear()
    loop = _evaluate_loop(_ESTIMATES2["equal"], np.zeros(2), _state2(), g)
    _, _, diag = _robust_term(s, loop, _state2(), g)
    assert calls == [] and diag.iterations == 1


def test_two_joint_exact_zero_hands_the_stage_to_np_linalg_solve(monkeypatch):
    """A two-entry b with an exact zero: ``_solve`` calls np.linalg.solve,
    which may give a zero another sign than division does, so the float
    branch hands the stage to its arrays, which make that call."""
    b = np.array([-0.0, -1.0])
    P = np.diag([0.52, 0.304])
    assert _bits(np.linalg.solve(P, b)) != _bits(b / P.diagonal())
    solves = []

    def counting(A, b, _fn=np.linalg.solve):
        solves.append(b.copy())
        return _fn(A, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    g = _gains2()
    state = _state2(qxd_prev=(0.0, 0.2))
    # b = mx @ qxd_prev + h*(fc + fd) = (0, 0.06): one solve against mx + bx*h
    out = proxy_predict(state, np.zeros(2), np.zeros(2), g)
    assert len(solves) == 1 and solves[0][0] == 0.0
    assert _bits(out) == _bits(_proxy_predict_arrays(state, np.zeros(2), np.zeros(2), g))
    # an all-zero first period: every solve of the step meets an exact zero
    solves.clear()
    admittance_step(initial_state(np.zeros(2)), Measurement(np.zeros(2), np.zeros(2),
                                                            np.zeros(2)),
                    _ESTIMATES2["zero-gravity"], g)
    assert len(solves) == 3


def test_two_joint_non_finite_entry_redoes_the_arrays():
    g = _gains2()
    state = _unchecked(AdmittanceState, qx_prev=np.zeros(2), qxd_prev=np.array([np.inf, 0.1]),
                       ux_prev=np.zeros(2), q_prev=np.zeros(2), qe_prev=np.zeros(2),
                       msta_state=MstaState.zero(2))
    fc = np.array([1.0, 2.0])
    with np.errstate(invalid="ignore"):
        expected = _proxy_predict_arrays(state, fc, fc, g)
        assert np.isnan(expected[0][1])
        assert _bits(proxy_predict(state, fc, fc, g)) == _bits(expected)
        u_s = np.array([np.inf, 1.0])
        loop = _evaluate_loop(_ESTIMATES2["equal"], np.zeros(2), state, g)
        for gains in (g, _gains2("inertia-scaled")):
            expected = _inner_loop_candidate_arrays(fc, fc, u_s, state, gains, loop)
            assert _bits(inner_loop_candidate(fc, fc, u_s, u_s, state, None, gains,
                                              loop=loop)) == _bits(expected)


def _step_bits(out) -> bytes:
    tau, st, d = out
    parts = [tau, st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev, st.msta_state.v,
             d.tau_star, d.tau, d.qx_star, d.q1_star, d.s, d.qe, d.u_s, d.saturated,
             float(d.lambda_vi_residual), d.solver]
    return _bits(tuple(parts))


def _candidate_arrays(qx_star, q, s, u_s, state, model, g, *, loop=None):
    """``inner_loop_candidate`` with the public signature, on arrays."""
    if loop is None:
        loop = _evaluate_loop(model, q, state, g)
    return _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)


def _arrays_only(monkeypatch):
    """Make every stage and the step's own code run the array code, for
    steps with gains passed through ``_array_box``."""
    for name, arrays in (("proxy_predict", _proxy_predict_arrays),
                         ("sliding_variable", _sliding_variable_arrays),
                         ("inner_loop_candidate", _candidate_arrays),
                         ("project_box", _project_box_arrays),
                         ("variational_residual", _variational_residual_arrays)):
        monkeypatch.setattr(admittance, name, arrays)
    monkeypatch.setattr(admittance, "_diag_loop", lambda *args: None)


def _array_box(g):
    """``g`` with its box's float limits removed."""
    object.__setattr__(g.box, "_floats", None)
    return g


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


@pytest.mark.parametrize("us_coupling,k1,estimate,us_mode", itertools.product(
    ("direct", "inertia-scaled"), (30.0, "structured"), sorted(_ESTIMATES),
    ("scalar-implicit", "explicit", "implicit-vector")))
def test_one_joint_step_matches_array_code(monkeypatch, us_coupling, k1, estimate, us_mode):
    """Whole periods, nearly all saturated (small limit) or about a third
    (large limit), against the same periods with every stage and the step's
    own code on arrays."""
    meas_seq = _measurements(np.random.default_rng(6))
    model = _ESTIMATES[estimate]
    fast = [_run(admittance_step, _gains(us_coupling, k1, us_mode, limit), model, meas_seq)
            for limit in (0.05, 1e3)]
    with monkeypatch.context() as m:
        _arrays_only(m)
        slow = [_run(admittance_step, _array_box(_gains(us_coupling, k1, us_mode, limit)),
                     model, meas_seq) for limit in (0.05, 1e3)]
    assert fast == slow


@pytest.mark.parametrize("us_coupling,k1,estimate,us_mode", itertools.product(
    ("direct", "inertia-scaled"), (30.0, "structured"), ("equal", "unequal", "zero-gravity"),
    ("explicit", "implicit-vector")))
def test_two_joint_step_matches_array_code(monkeypatch, us_coupling, k1, estimate, us_mode):
    """As the one-joint test, on a diagonal two-joint loop: both joints
    saturated, or some, or none."""
    meas_seq = _measurements(np.random.default_rng(18), dof=2)
    model = _ESTIMATES2[estimate]
    limits = ((0.05, 0.08), (0.5, 1e3), (1e3, 1e3))
    fast = [_run(admittance_step, _gains2(us_coupling, k1, us_mode, lim), model, meas_seq)
            for lim in limits]
    with monkeypatch.context() as m:
        _arrays_only(m)
        slow = [_run(admittance_step, _array_box(_gains2(us_coupling, k1, us_mode, lim)),
                     model, meas_seq) for lim in limits]
    assert fast == slow


@pytest.mark.parametrize("estimate", sorted(_ESTIMATES))
def test_one_joint_naive_step_matches_array_code(monkeypatch, estimate):
    meas_seq = _measurements(np.random.default_rng(7))
    model = _ESTIMATES[estimate]
    fast = [_run(baseline_naive_step, _naive_gains(limit), model, meas_seq)
            for limit in (0.05, 1e3)]
    with monkeypatch.context() as m:
        _arrays_only(m)
        slow = [_run(baseline_naive_step, _array_box(_naive_gains(limit)), model, meas_seq)
                for limit in (0.05, 1e3)]
    assert fast == slow


@pytest.mark.parametrize("estimate", sorted(_ESTIMATES2))
def test_two_joint_naive_step_matches_array_code(monkeypatch, estimate):
    meas_seq = _measurements(np.random.default_rng(19), dof=2)
    model = _ESTIMATES2[estimate]
    limits = ((0.05, 0.08), (1e3, 1e3))
    fast = [_run(baseline_naive_step, _naive_gains2(lim), model, meas_seq) for lim in limits]
    with monkeypatch.context() as m:
        _arrays_only(m)
        slow = [_run(baseline_naive_step, _array_box(_naive_gains2(lim)), model, meas_seq)
                for lim in limits]
    assert fast == slow


_HELPERS = ((admittance, "_proxy_predict_arrays"), (admittance, "_sliding_variable_arrays"),
            (admittance, "_inner_loop_candidate_arrays"), (setvalued, "_project_box_arrays"),
            (setvalued, "_variational_residual_arrays"))
# the robust term's one body per inner-loop mode, on any loop
_ROBUST = ((admittance, "_explicit"), (admittance, "_solve_inclusion"))


def test_array_helper_calls_follow_the_loop(monkeypatch):
    """A diagonal two-joint loop calls no array helper.  The arm's own
    (full) mass matrix calls those of the loop and the candidate; the proxy,
    the sliding variable, the projection and the certificate do not see the
    loop, and stay on floats for the diagonal proxy and the two-joint box.
    The robust term calls its one body once on either loop."""
    calls = []
    for module, name in _HELPERS + _ROBUST:
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    meas = Measurement([2.5, -1.5], [1.0, -2.0], [0.5, 0.3])
    for us_mode, robust in (("explicit", "_explicit"), ("implicit-vector", "_solve_inclusion")):
        for estimate, expected in (("equal", [robust]),
                                   ("exact", [robust, "_inner_loop_candidate_arrays"])):
            calls.clear()
            admittance_step(initial_state(np.array([2.4, -1.4])), meas, _ESTIMATES2[estimate],
                            _gains2(us_mode=us_mode))
            assert calls == expected
    calls.clear()
    meas1 = Measurement([0.01], [1.0], [0.5])
    admittance_step(initial_state(np.zeros(1)), meas1, ModelEstimate.constant((0.1,)), _gains())
    assert calls == []


def test_mixed_entry_counts_raise_or_broadcast_as_the_array_code():
    box1 = BoxConstraint([LIMIT])
    y1, y2 = _one(0.5), np.array([0.5, 4.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        project_box(y2, box1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        project_box(y1, BoxConstraint([1.0, 1.0]))
    # a 2-entry y_proj against a 1-entry y_star and box broadcasts, as before
    probe2 = [np.array([1.0, -1.0])]
    assert _bits(variational_residual(y1, y2, box1, probe2)) == \
        _bits(_variational_residual_arrays(y1, y2, box1, probe2))
    for probes, message in (([np.array([1.0, 0.0])], "probe dimension mismatch"),
                            ([_one(1.5)], "outside the unit box"),
                            ([1.5], "outside the unit box"),
                            ([], "at least one probe")):
        for residual in (variational_residual, _variational_residual_arrays):
            with pytest.raises(ValueError, match=message):
                residual(y1, y1, box1, probes)
    box2 = BoxConstraint([1.0, 1.0])
    for probes, message in (([0.5], "probe dimension mismatch"),
                            ([[0.5]], "probe dimension mismatch"),
                            ([[0.5, 1.5]], "outside the unit box"),
                            ([[1, 0]], None)):
        for residual in (variational_residual, _variational_residual_arrays):
            if message is None:
                assert _bits(residual(y2, y2, box2, probes)) == \
                    _bits(_variational_residual_arrays(y2, y2, box2, probes))
                continue
            with pytest.raises(ValueError, match=message):
                residual(y2, y2, box2, probes)
    g = _gains()
    state = _state(0.001, -0.002, 0.003, -0.004, 0.005)
    # 2-entry forces or positions against a one-joint controller broadcast
    assert _bits(proxy_predict(state, y2, y1, g)) == _bits(_proxy_predict_arrays(state, y2, y1, g))
    assert _bits(sliding_variable(y1, y2, state, g)) == \
        _bits(_sliding_variable_arrays(y1, y2, state, g))
    model = _ESTIMATES["constant"]
    loop = _evaluate_loop(model, y1, state, g)
    # ... but a 2-entry position cannot meet the 1 x 1 loop matrices
    for candidate in (lambda: inner_loop_candidate(y1, y2, y1, y1, state, model, g, loop=loop),
                      lambda: _inner_loop_candidate_arrays(y1, y2, y1, state, g, loop)):
        with pytest.raises(ValueError, match="matmul"):
            candidate()
