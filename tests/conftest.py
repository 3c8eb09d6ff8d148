import hashlib
import math
import time

import numpy as np
import pytest

from nonsmooth_adm.admittance import _evaluate_loop, admittance_step
from nonsmooth_adm.plant import OneDofParams, TwoLinkParams
from nonsmooth_adm.sim import compute_metrics, naive_variant, presets, run_scenario
from nonsmooth_adm.verify import admittance_reference


@pytest.fixture(scope="session")
def fig3_run():
    """(scenario, trace, metrics, wall_seconds) for the bundled one-joint impact."""
    sc = presets()["fig3_one_dof"]
    t0 = time.perf_counter()
    trace = run_scenario(sc)
    elapsed = time.perf_counter() - t0
    return sc, trace, compute_metrics(trace, sc), elapsed


@pytest.fixture(scope="session")
def fig3_naive_run():
    sc = naive_variant(presets()["fig3_one_dof"])
    trace = run_scenario(sc)
    return sc, trace, compute_metrics(trace, sc)


@pytest.fixture(scope="session")
def fig5_run():
    sc = presets()["fig5_two_dof"]
    trace = run_scenario(sc)
    return sc, trace, compute_metrics(trace, sc)


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from the SHA-256 of its node id:
    a test's draws do not depend on which tests run before it, and stay the
    same from run to run (Python's ``hash`` of a str is salted per process)."""
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))


def _straight_line_deviation(g, est, mhat, chat, st, meas, us_mode) -> float:
    """Largest deviation of one ``admittance_step`` from the straight-line
    ``verify.admittance_reference``, in units of its allowance (at most 1
    passes).  qx is allowed 1e-12, s and u_s 1e-12 times 1 + their size.
    tau_star = W (qx_star - q1_star) multiplies the roundoff of q1_star by W
    (1e5 to 5e5 at h = 1 ms), so tau and tau_star are allowed 1e-12 times
    1 + |tau_star| plus 8 units of |W| eps cond(W) times the largest position
    entry: the unit and the bound of ``tests/test_float_path.py``."""
    tau, st2, diag = admittance_step(st, meas, est, g)
    ref = admittance_reference(st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev,
                               st.qe_prev, st.v_prev, meas.q, meas.fc, meas.fd,
                               g.mx, g.bx, g.lam, g.k1, mhat, chat, np.zeros(len(meas.q)),
                               g.box.limits, g.h, us_mode, g.msta.k2, g.msta.k3,
                               gamma1=g.msta.gamma1)
    n = len(meas.q)
    W = np.array(_evaluate_loop(est, meas.q, st, g).W).reshape(n, n)
    unit = np.finfo(float).eps * np.linalg.cond(W) * max(
        float(np.abs(x).max()) for x in (meas.q, ref["qx_star"], ref["q1_star"]))
    tau_tol = 1e-12 * (1.0 + float(np.abs(ref["tau_star"]).max())) + 8.0 * unit * np.abs(W).sum(1)
    errors = [np.abs(tau - ref["tau"]) / tau_tol,
              np.abs(diag.tau_star - ref["tau_star"]) / tau_tol,
              np.abs(st2.qx_prev - ref["qx"]) / 1e-12]
    for got, want in ((diag.s, ref["s"]), (diag.u_s, ref["u_s"])):
        errors.append(np.abs(got - want) / (1e-12 * (1.0 + float(np.abs(want).max()))))
    return max(float(e.max()) for e in errors)


@pytest.fixture
def straight_line_deviation():
    """``_straight_line_deviation``, for the tests that compare a step with
    the straight-line reference."""
    return _straight_line_deviation


def _ee_kinematics(params, q: np.ndarray) -> tuple[tuple[float, float], np.ndarray]:
    """The end-effector pose and the 2 x dof Jacobian, at q, of the plant
    with parameters ``params`` (a linear stage for any other type), in
    closed form."""
    if isinstance(params, OneDofParams):
        s, c = math.sin(q[0]), math.cos(q[0])
        return (params.l1 * c, params.l1 * s), np.array([[-params.l1 * s], [params.l1 * c]])
    if isinstance(params, TwoLinkParams):
        l1, l2 = params.l1, params.l2
        s1, c1 = math.sin(q[0]), math.cos(q[0])
        s12, c12 = math.sin(q[0] + q[1]), math.cos(q[0] + q[1])
        ex = l1 * c1 + l2 * c12
        return (ex, l1 * s1 + l2 * s12), np.array([[-l1 * s1 - l2 * s12, -l2 * s12],
                                                   [ex, l2 * c12]])
    return (0.0, float(q[0])), np.array([[0.0], [1.0]])


@pytest.fixture
def ee_kinematics():
    """``_ee_kinematics``, the closed-form kinematics the plant and runner
    oracles take the pose and the Jacobian from."""
    return _ee_kinematics
