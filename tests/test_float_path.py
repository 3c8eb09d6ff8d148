"""The one-joint float path of each controller stage against its array code.

With one joint every stage of a controller period computes on Python floats;
two or more joints keep the array code, which each stage keeps as a private
helper.  Bits matter (a one-ulp change of the torque moves the closed-loop
traces visibly), so every comparison here is of bytes: ``float.hex`` for a
float, ``tobytes`` (with dtype and shape) for an array.  The inputs include
signed zeros, where numpy and Python floats disagree most easily:
``np.sign(-0.0)`` is +0.0, a 1 x 1 product ``A @ x`` is ``0.0 + A*x``, and
``np.maximum``/``np.minimum`` break +-0 ties unlike ``max``/``min``.
"""

import itertools

import numpy as np
import pytest

from nonsmooth_adm import admittance, setvalued
from nonsmooth_adm.admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    _evaluate_loop,
    _inner_loop_candidate_arrays,
    _proxy_predict_arrays,
    _sliding_variable_arrays,
    admittance_step,
    baseline_naive_step,
    initial_state,
    inner_loop_candidate,
    proxy_predict,
    sliding_variable,
)
from nonsmooth_adm.msta import MstaGains, MstaState
from nonsmooth_adm.plant import one_dof_model
from nonsmooth_adm.setvalued import (
    BoxConstraint,
    _project_box_arrays,
    _variational_residual_arrays,
    project_box,
    variational_residual,
)

LIMIT = 3.0


def _bits(x) -> bytes:
    """Bytes of a float, an array (with its dtype and shape) or a tuple of them."""
    if isinstance(x, tuple):
        return b"|".join(_bits(a) for a in x)
    if isinstance(x, float):
        return float.hex(x).encode()
    return f"{x.dtype.str}{x.shape}".encode() + x.tobytes()


def _values(gen, n=60):
    """Random floats over many scales, both zeros, and the box's limits."""
    special = [0.0, -0.0, LIMIT, -LIMIT, np.nextafter(LIMIT, np.inf), np.nextafter(-LIMIT, 0.0),
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


def _state(qx_prev=0.0, qxd_prev=0.0, ux_prev=0.0, q_prev=0.0, qe_prev=0.0):
    return AdmittanceState(*map(_one, (qx_prev, qxd_prev, ux_prev, q_prev, qe_prev)),
                           MstaState.zero(1))


def _gains(us_coupling="direct", k1=30.0, us_mode="auto", limit=LIMIT):
    return AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=k1,
                           msta=MstaGains(k2=11.6, k3=66.0, gamma1=40.0),
                           box=BoxConstraint([limit]), h=1e-3, us_mode=us_mode,
                           us_coupling=us_coupling)


def _naive_gains(limit=LIMIT):
    return NaiveGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), kp=300.0, kd=31.0,
                      box=BoxConstraint([limit]), h=1e-3)


_PLANT = one_dof_model()
_ESTIMATES = {
    "constant": ModelEstimate.constant((0.1,), (2.0,)),
    "exact": ModelEstimate(_PLANT.mass_fn, _PLANT.coriolis_fn, _PLANT.gravity_fn),
    # evaluated every period; its -0.0 gravity keeps the sign of an all-zero sum
    "zero-gravity": ModelEstimate(lambda q: np.array([[0.1]]), lambda q, qd: np.array([[2.0]]),
                                  lambda q: np.array([-0.0])),
}


def test_project_box_float_path_matches_arrays():
    gen = np.random.default_rng(1)
    box = BoxConstraint([LIMIT])
    for v in _values(gen) + [np.inf, -np.inf, np.nan]:
        y = _one(v)
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


def test_worst_probe_sign_matches_numpy():
    for x in (0.0, -0.0, 2.5, -2.5, 5e-324, -5e-324, np.inf, -np.inf):
        assert _bits(admittance._sign(x)) == _bits(float(np.sign(x)))
    assert np.isnan(admittance._sign(np.nan))


@pytest.mark.parametrize("naive", [False, True])
def test_proxy_predict_float_path_matches_arrays(naive):
    g = _naive_gains() if naive else _gains()
    for qx_prev, qxd_prev, fc, fd in _inputs(np.random.default_rng(3), [0.01, 0.1, 5.0, 3.0]):
        state, fc, fd = _state(qx_prev, qxd_prev), _one(fc), _one(fd)
        assert (_bits(proxy_predict(state, fc, fd, g))
                == _bits(_proxy_predict_arrays(state, fc, fd, g)))


def test_sliding_variable_float_path_matches_arrays():
    g = _gains()
    for qx_star, q, qe_prev in _inputs(np.random.default_rng(4), [0.01, 0.01, 0.01]):
        state, qx_star, q = _state(qe_prev=qe_prev), _one(qx_star), _one(q)
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
        assert loop.one is not None
        expected = _inner_loop_candidate_arrays(qx_star, q, u_s, state, g, loop)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, u_s, state, model, g)) == \
            _bits(expected)
        assert _bits(inner_loop_candidate(qx_star, q, u_s, u_s, state, model, g,
                                          loop=loop)) == _bits(expected)


def _step_bits(out) -> bytes:
    tau, st, d = out
    parts = [tau, st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev, st.msta_state.v,
             d.tau_star, d.tau, d.qx_star, d.q1_star, d.s, d.qe, d.u_s, d.saturated,
             float(d.lambda_vi_residual)]
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
    monkeypatch.setattr(admittance, "_one_loop", lambda *args: None)


def _array_box(g):
    """``g`` with its box's one-joint float limit removed."""
    object.__setattr__(g.box, "_limit", None)
    return g


def _run(step, g, model, meas_seq):
    state = initial_state(np.array([-0.0]))
    out = []
    for meas in meas_seq:
        res = step(state, meas, model, g)
        out.append(_step_bits(res))
        state = res[1]
    return out


def _measurements(gen, n=150):
    seq = [Measurement(_one(-0.0), _one(-0.0), _one(0.0)), Measurement(_one(0.0), _one(0.0),
                                                                          _one(-0.0))]
    for q, fc, fd in (gen.normal(size=(n, 3)) * [0.02, 5.0, 3.0]).tolist():
        seq.append(Measurement(_one(q), _one(fc), _one(fd)))
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


def test_two_joints_run_the_array_code(monkeypatch):
    calls = []
    for module, name in ((admittance, "_proxy_predict_arrays"),
                         (admittance, "_sliding_variable_arrays"),
                         (admittance, "_inner_loop_candidate_arrays"),
                         (setvalued, "_project_box_arrays"),
                         (setvalued, "_variational_residual_arrays")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    meas = Measurement([0.01, -0.02], [1.0, -2.0], [0.5, 0.0])
    g2 = AdmittanceGains(mx=np.diag([0.3, 0.3]), bx=np.diag([2.0, 2.0]), lam=10.0, k1=30.0,
                         msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0, 3.0]),
                         h=1e-3)
    admittance_step(initial_state(np.zeros(2)), meas, ModelEstimate.constant((0.1, 0.2)), g2)
    assert sorted(calls) == sorted(["_proxy_predict_arrays", "_sliding_variable_arrays",
                                    "_inner_loop_candidate_arrays", "_project_box_arrays",
                                    "_variational_residual_arrays"])
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
