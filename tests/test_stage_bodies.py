"""A controller period carries floats from stage to stage and builds arrays
only for what it returns; each public stage function is an array wrapper
over the same float body the period calls.

Both are checked on periods of the trace digest's standard runs
(``tools/trace_digest.py``): the arrays a period builds are counted by
wrapping numpy's constructors, and each public stage function, called on a
period's own inputs, must give back bit for bit what the period computed.
"""

import copy
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nonsmooth_adm import sim
from nonsmooth_adm.admittance import (
    _STATE_VECTORS,
    _evaluate_loop,
    _robust_term,
    inner_loop_candidate,
    proxy_predict,
    sliding_variable,
)
from nonsmooth_adm.msta import (
    msta_explicit_step,
    msta_implicit_step,
    solve_shat_vector,
    sta_scalar_implicit_step,
)
from nonsmooth_adm.setvalued import project_box, variational_residual

TRACE_DIGEST = Path(__file__).resolve().parents[1] / "tools" / "trace_digest.py"


@pytest.fixture(scope="module")
def standard_runs():
    spec = importlib.util.spec_from_file_location("trace_digest", TRACE_DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.standard_runs()


def _periods(monkeypatch, sc, count: int) -> list:
    """The first ``count`` controller periods of a run of ``sc``, as
    ((state, meas, model, gains), (tau, next_state, diag)) pairs.  The run
    lasts ``count + 50`` controller periods, of which the approach phase of
    ``linmotor_steps`` leaves fewer than ``count``, but at least 200, to the
    controller."""
    name = "baseline_naive_step" if sc.controller.kind == "naive" else "admittance_step"
    step, periods = getattr(sim, name), []

    def recording(*args):
        out = step(*args)
        if len(periods) < count:
            periods.append((args, out))
        return out

    monkeypatch.setattr(sim, name, recording)
    sc = copy.deepcopy(sc)
    sc.duration = min(sc.duration, (count + 50) * sc.h)
    sim.run_scenario(sc)
    monkeypatch.undo()
    assert len(periods) >= 200
    return periods


def _bits(x) -> bytes:
    """Bytes of a float or of an array, with its dtype and shape."""
    if isinstance(x, float):
        return float.hex(x).encode()
    return f"{x.dtype.str}{x.shape}".encode() + x.tobytes()


# ----------------------------------------------------------------- arrays built

# (standard run, us_mode override or None), one and two joints: every
# us_mode, the naive baseline, and the implicit solve's dead band, radial
# closed form (the preset's estimate: G = 1.25 I) and scalar root (the
# unequal diagonal estimate: G = diag(1.25, 1.2))
_COUNT_RUNS = [
    ("fig3_one_dof", None), ("fig3_one_dof", "auto"), ("fig3_one_dof", "explicit"),
    ("fig3_one_dof", "implicit-vector"), ("fig3_one_dof_naive", None),
    ("fig5_two_dof", None), ("fig5_two_dof", "auto"), ("fig5_two_dof_naive", None),
    ("fig5_two_dof:implicit-vector", None),
    ("fig5_two_dof:implicit-vector-unequal-diag", None),
]
# enough periods to reach the first saturated one of each run (about 350)
_COUNT_PERIODS = 450


def _returned_arrays(out) -> dict:
    """The distinct ndarrays reachable from a step's (tau, state, diag,
    diag.solver), by id."""
    tau, state, diag = out
    values = [tau] + [getattr(state, f) for f in _STATE_VECTORS] + \
        [getattr(diag, f.name) for f in dataclasses.fields(diag)]
    if diag.solver is not None:
        values += [diag.solver.shat, diag.solver.m2]
    return {id(a): a for a in values if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("run,us_mode", _COUNT_RUNS)
def test_a_period_builds_no_array_it_does_not_return(monkeypatch, standard_runs, run, us_mode):
    """Each period, stepped again from its recorded inputs (the constant
    estimate's loop already built), constructs through ``np.array`` and
    ``np.zeros`` exactly the new arrays it returns: the distinct ndarrays
    reachable from (tau, state, diag, diag.solver) that are not its inputs.
    An array built some other way, or built and dropped, breaks the count.
    The naive step hands the state's v back as it is; the proposed step
    returns no input array."""
    sc = copy.deepcopy(standard_runs[run])
    if us_mode is not None:
        sc.controller.us_mode = us_mode
    periods = _periods(monkeypatch, sc, _COUNT_PERIODS)
    built = [0]
    counting = [False]
    for name in ("array", "zeros"):
        def wrapped(*args, _fn=getattr(np, name), **kwargs):
            built[0] += counting[0]
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, wrapped)
    step = sim.baseline_naive_step if sc.controller.kind == "naive" else sim.admittance_step
    seen = set()
    for (state, meas, model, g), _ in periods:
        built[0], counting[0] = 0, True
        out = step(state, meas, model, g)
        counting[0] = False
        inputs = {id(getattr(state, f)) for f in _STATE_VECTORS} | \
            {id(meas.q), id(meas.fc), id(meas.fd)}
        returned = _returned_arrays(out)
        shared = set(returned) & inputs
        assert shared == ({id(state.v_prev)} if sc.controller.kind == "naive" else set())
        assert built[0] == len(returned) - len(shared)
        solver = out[2].solver
        kind = None if solver is None else "dead band" if not solver.shat.any() else \
            "radial" if g._cached_loop[1].iteration.scale is not None else "root"
        seen.add((bool(out[2].saturated.any()), kind))
    monkeypatch.undo()
    assert {saturated for saturated, _ in seen} == {False, True}
    if run == "fig5_two_dof:implicit-vector":
        assert {kind for _, kind in seen} == {"dead band", "radial"}
    elif run == "fig5_two_dof:implicit-vector-unequal-diag":
        assert {kind for _, kind in seen} == {"dead band", "root"}


# ----------------------------------------------------------------- one body per stage

_BODY_RUNS = ("fig3_one_dof", "fig3_one_dof_naive", "fig5_two_dof", "fig5_two_dof_naive",
              "fig5_two_dof:implicit-vector", "fig5_two_dof:implicit-vector-structured",
              "fig5_two_dof:implicit-vector-structured-k4", "fig5_two_dof:unequal-diag",
              "fig5_two_dof:implicit-vector-unequal-diag", "fig5_two_dof:implicit-vector-exact",
              "linmotor_steps", "linmotor_steps:sine")
# the first 200 periods, and on the fig runs their first saturated ones
_BODY_PERIODS = 400


def _iteration_inputs(model, q, state, g):
    """(Ak, Mk) of the implicit-vector loop at this period, as arrays: the
    iteration matrix is Mk^{-1} Ak with Ak = Mk + h*Ck + h*k1."""
    h = g.h
    Mk = model.mass_fn(q)
    Ck = model.coriolis_fn(q, (q - state.q_prev) / h)
    k1m = g._k1m if g._k1m is not None else -Ck + g.msta.gamma1 * Mk
    return Mk + Ck * h + h * k1m, Mk


@pytest.mark.parametrize("run", _BODY_RUNS)
def test_public_stage_functions_give_the_periods_own_bits(monkeypatch, standard_runs, run):
    """Each public stage function, on a period's own inputs, returns bit for
    bit what the period computed: ``proxy_predict`` the state's ux_prev and
    diag.qx_star, ``sliding_variable`` diag.qe and diag.s, the robust
    term's public step diag.u_s and the state's v_prev (and, for the
    implicit solve, the solver's diagnostics), ``inner_loop_candidate``
    diag.q1_star and diag.tau_star, ``project_box`` tau and
    ``variational_residual`` diag.lambda_vi_residual.  The naive step has the
    proxy, the projection and the certificate."""
    sc = standard_runs[run]
    naive = sc.controller.kind == "naive"
    saturated = 0
    for (state, meas, model, g), (tau, nxt, d) in _periods(monkeypatch, sc, _BODY_PERIODS):
        ux, qx = proxy_predict(state, meas.fc, meas.fd, g)
        assert _bits(ux) == _bits(nxt.ux_prev) and _bits(qx) == _bits(d.qx_star)
        assert _bits(project_box(d.tau_star, g.box)) == _bits(tau)
        assert _bits(variational_residual(d.tau_star, tau, g.box)) == _bits(d.lambda_vi_residual)
        saturated += bool(d.saturated.any())
        if naive:
            continue
        qe, s = sliding_variable(d.qx_star, meas.q, state, g)
        assert _bits(qe) == _bits(d.qe) and _bits(s) == _bits(d.s)
        q1, tau_star = inner_loop_candidate(d.qx_star, meas.q, d.u_s, state, model, g)
        assert _bits(q1) == _bits(d.q1_star) and _bits(tau_star) == _bits(d.tau_star)
        h, mode = g.h, g.resolved_us_mode()
        loop = _evaluate_loop(model, meas.q, state, g)
        if mode == "explicit":
            u_s, v_next = msta_explicit_step(d.s, state.v_prev, g.msta, h)
        elif mode == "scalar-implicit":
            u, v, _, _ = sta_scalar_implicit_step(d.s.item(), g.msta, loop.beta, h,
                                                  state.v_prev.item())
            u_s, v_next = np.array([u]), np.array([v])
        else:
            Ak, Mk = _iteration_inputs(model, meas.q, state, g)
            solver = solve_shat_vector(d.s, Ak, Mk, g.msta, h)
            u_s, v_next, _ = _robust_term(d.s, loop, state, g)
            if g.k1 == "structured":
                u_s, v_next, solver = msta_implicit_step(d.s, Mk, model.coriolis_fn(
                    meas.q, (meas.q - state.q_prev) / h), g.msta, h, state.v_prev)
            for f in ("iterations", "residual", "converged"):
                assert getattr(solver, f) == getattr(d.solver, f)
            assert _bits(solver.shat) == _bits(d.solver.shat)
            assert _bits(solver.m2) == _bits(d.solver.m2)
        assert _bits(u_s) == _bits(d.u_s) and _bits(v_next) == _bits(nxt.v_prev)
    if run.startswith("fig"):
        assert saturated > 0
