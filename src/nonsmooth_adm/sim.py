"""Closed-loop scenarios: fixed-step runner, traces, metrics, presets, sweeps.

A ``Scenario`` is a fully declarative description (JSON-serializable) of one
closed-loop experiment: plant, environment, disturbance, controller, rough
model estimate, desired-force schedule, optional velocity-servo approach
phase, and timing.  ``run_scenario`` executes it deterministically: the
controller runs at period h and the plant integrates under zero-order-hold
torque with Heun substeps that step the Coulomb friction as a trapezoid of
implicit clamps and split at contact onset.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .admittance import (
    AdmittanceGains,
    AdmittanceState,
    ModelEstimate,
    NaiveGains,
    _loop_for,
    _measurement,
    admittance_step,
    baseline_naive_step,
    initial_state,
)
from .msta import MstaGains, SolverConvergenceError, msta_explicit_step, sta_scalar_implicit_step
from .plant import (
    Disturbance,
    EnvironmentModel,
    LinearMotorParams,
    ManipulatorModel,
    OneDofParams,
    PlantState,
    SimulationBlowUp,
    TwoLinkParams,
    contact_wrench,
    integrate_substep,
    linear_motor_model,
    one_dof_model,
    two_link_model,
)
from .setvalued import BoxConstraint, _require_finite

__all__ = [
    "ScenarioError",
    "DisturbanceSpec",
    "ControllerSpec",
    "EstimateSpec",
    "ApproachSpec",
    "Scenario",
    "Trace",
    "Metrics",
    "run_scenario",
    "compute_metrics",
    "sweep",
    "presets",
    "naive_variant",
    "build_model",
    "apply_override",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "trace_to_csv",
    "write_trace_csv",
    "trace_from_csv",
    "metrics_to_dict",
    "double_integrator_bench",
]


# --------------------------------------------------------------------------- scenarios

class ScenarioError(ValueError):
    """A scenario whose model, disturbance, estimate or gains cannot be built;
    the message names the offending field."""


@dataclass
class DisturbanceSpec:
    """Declarative unmeasured-force profile (the linear motor plant adds its
    own rail friction to it)."""

    kind: str = "none"          # none | sine | ramp_hold
    amplitude: float = 0.0      # N (sine)
    freq_hz: float = 1.0
    rate: float = 0.0           # N/s during the ramp (ramp_hold)
    level: float = 0.0          # N plateau reached by the ramp (ramp_hold)
    t_start: float = 0.0


@dataclass
class ControllerSpec:
    """Controller parameters as plain numbers (materialized at run time)."""

    kind: str = "proposed"      # proposed | naive
    mx: tuple = (0.3,)          # proxy inertia diagonal
    bx: tuple = (2.0,)          # proxy damping diagonal
    lam: float = 10.0
    k1: float | str = 30.0      # scalar gain or "structured"
    k2: float = 11.6
    k3: float = 66.0
    k4: float = 0.0
    gamma1: float = 0.0
    mu: float = 0.5             # checked, has no effect (see MstaGains)
    fp_tol: float = 1e-12       # tolerance and iteration cap of the implicit root
    fp_max_iter: int = 100
    torque_limits: tuple = (3.0,)
    us_mode: str = "auto"
    us_coupling: str = "direct"  # checked, "direct" only (see AdmittanceGains)
    kp: float | None = None     # naive baseline PD; derived from k1 if None
    kd: float | None = None


@dataclass
class EstimateSpec:
    """Model knowledge handed to the controller."""

    kind: str = "diag"          # diag | exact
    mass_diag: tuple = (0.1,)
    coriolis_diag: tuple = (0.0,)


@dataclass
class ApproachSpec:
    """Pre-impact phase: none (force control from t=0) or a velocity servo
    that hands over at the first nonzero contact force."""

    mode: str = "none"          # none | velocity
    v_ref: float = 0.0          # m/s along the actuated axis
    kv: float = 0.0             # N s/m servo gain
    hold_force: float = 0.0     # N feedforward (e.g. estimated weight)


# the most plant substeps per controller period (h_s / dt_sub_s); the arms'
# presets take 5, linmotor_steps and msta_bench 10
MAX_SUBSTEPS = 10_000


@dataclass
class Scenario:
    name: str
    plant: str                              # one_dof | two_link | linear_motor
    env: EnvironmentModel
    controller: ControllerSpec
    estimate: EstimateSpec
    fd_schedule: tuple = ((0.0, 0.0, 0.0),)  # (t_s, fx_N, fy_N), piecewise constant
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    approach: ApproachSpec = field(default_factory=ApproachSpec)
    plant_params: object | None = None
    q0: tuple = (0.0,)
    qd0: tuple | None = None
    duration: float = 5.0
    h: float = 1e-3
    dt_sub: float = 1e-4

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check timing, force schedule, approach and disturbance values;
        ``run_scenario`` repeats this because overrides change fields after
        construction."""
        if not all(0.0 < x < math.inf for x in (self.duration, self.h, self.dt_sub)):
            raise ValueError("duration_s, h_s and dt_sub_s must be positive and finite")
        ratio = self.h / self.dt_sub
        if not 0.5 < ratio < MAX_SUBSTEPS + 0.5:
            # run_scenario makes round(h / dt_sub) substeps per period
            raise ValueError(f"dt_sub_s = {self.dt_sub} s makes {ratio:.6g} plant substeps per "
                             f"controller period h_s = {self.h} s; at least 1 and at most "
                             f"{MAX_SUBSTEPS} are allowed")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"h_s = {self.h} s must be an integer multiple of dt_sub_s = "
                             f"{self.dt_sub} s")
        if self.duration / self.h <= 0.5:
            # run_scenario makes round(duration / h) steps
            raise ValueError(f"duration_s = {self.duration} s rounds to 0 controller steps "
                             f"of h_s = {self.h} s")
        t_prev = -math.inf
        for i, entry in enumerate(self.fd_schedule):
            if len(entry) != 3 or not all(map(math.isfinite, entry)):
                raise ValueError(f"fd_schedule_N entry {i} must be finite [t_s, fx_N, fy_N], "
                                 f"got {entry!r}")
            if entry[0] < t_prev:
                raise ValueError(f"fd_schedule_N must be sorted by time: entry {i} at "
                                 f"t = {entry[0]} s follows t = {t_prev} s")
            t_prev = entry[0]
        if self.approach.mode not in ("none", "velocity"):
            raise ValueError(f"approach.mode must be 'none' or 'velocity', got {self.approach.mode!r}")
        for section, keys in (("approach", _APPROACH_KEYS), ("disturbance", _DISTURBANCE_KEYS)):
            spec = getattr(self, section)
            for key, attr in keys:
                if attr not in ("mode", "kind") and not math.isfinite(getattr(spec, attr)):
                    raise ValueError(f"{section}.{key} must be finite, got {getattr(spec, attr)}")


# plant kind -> (model constructor, its parameter type)
_PLANTS = {"one_dof": (one_dof_model, OneDofParams), "two_link": (two_link_model, TwoLinkParams),
           "linear_motor": (linear_motor_model, LinearMotorParams)}


def _plant_kind(plant: str) -> tuple:
    if plant not in _PLANTS:
        raise ValueError(f"unknown plant kind: {plant!r}")
    return _PLANTS[plant]


def build_model(sc: Scenario) -> ManipulatorModel:
    make, params = _plant_kind(sc.plant)
    if sc.plant_params is not None and type(sc.plant_params) is not params:
        raise ValueError(f"plant_params is {type(sc.plant_params).__name__}; plant {sc.plant!r} "
                         f"takes {params.__name__}")
    model = make() if sc.plant_params is None else make(sc.plant_params)
    n = len(sc.controller.torque_limits)
    if n != model.dof:
        raise ValueError(f"controller.torque_limits_Nm has {n} entries; plant "
                         f"{sc.plant!r} has {model.dof} joint(s)")
    return model


def _build_disturbance(sc: Scenario, model: ManipulatorModel) -> Disturbance | None:
    """The declared disturbance; the linear stage applies its rail friction
    itself."""
    spec = sc.disturbance
    base: Disturbance | None = None
    if spec.kind == "sine":
        amp, om, t0 = spec.amplitude, 2.0 * math.pi * spec.freq_hz, spec.t_start

        def base(t, q, qd):
            return amp * math.sin(om * (t - t0)) if t >= t0 else 0.0

    elif spec.kind == "ramp_hold":
        rate, level, t0 = spec.rate, spec.level, spec.t_start

        def base(t, q, qd):
            if t <= t0:
                return 0.0
            return min(level, rate * (t - t0)) if rate > 0.0 else level

    elif spec.kind != "none":
        raise ValueError(f"unknown disturbance kind: {spec.kind!r}")
    if base is not None and model.dof != 1:
        raise ValueError(f"disturbance.kind {spec.kind!r} acts on one-joint plants only; "
                         f"plant {sc.plant!r} has {model.dof} joints")
    return base


def _build_estimate(sc: Scenario, model: ManipulatorModel) -> ModelEstimate:
    est = sc.estimate
    if est.kind == "exact":
        return ModelEstimate(model.mass_fn, model.coriolis_fn, model.gravity_fn)
    if est.kind == "diag":
        try:
            return ModelEstimate.constant(est.mass_diag, est.coriolis_diag, dof=model.dof)
        except ValueError as exc:
            raise _section_error("estimate", exc) from exc
    raise ValueError(f"unknown estimate.kind: {est.kind!r}")


def _build_gains(sc: Scenario) -> AdmittanceGains:
    c = sc.controller
    msta = MstaGains(k2=c.k2, k3=c.k3, k4=c.k4, gamma1=c.gamma1, mu=c.mu,
                     fp_tol=c.fp_tol, fp_max_iter=c.fp_max_iter)
    return AdmittanceGains(mx=np.diag(c.mx), bx=np.diag(c.bx), lam=c.lam, k1=c.k1, msta=msta,
                           box=BoxConstraint(list(c.torque_limits)), h=sc.h,
                           us_mode=c.us_mode, us_coupling=c.us_coupling)


def _section_error(section: str, exc: ValueError, keys=None, top=()) -> ValueError:
    """An error from building one scenario section, restated with the
    scenario file's dotted names of that section's fields (``keys``, the
    section's ``(key, attribute)`` pairs, default from ``_SECTION_KEYS``) and
    the names of the top-level fields ``top`` it also reads (same pairs)."""
    keys = _SECTION_KEYS[section][1] if keys is None else keys
    names = {attr: f"{section}.{key}" for key, attr in keys}
    names.update((attr, key) for key, attr in top)
    return ValueError(re.sub(r"\w+", lambda m: names.get(m[0], m[0]), str(exc)))


def _build_naive_gains(sc: Scenario) -> NaiveGains:
    c = sc.controller
    mbar = float(np.mean(sc.estimate.mass_diag))
    cbar = float(np.mean(sc.estimate.coriolis_diag))
    # kp and kd derive from k1 (or gamma1), so a bad value is named at its source
    if isinstance(c.k1, str) and c.k1 != "structured":
        raise ValueError('k1 must be a scalar or "structured"')
    _require_finite(c, "gamma1" if isinstance(c.k1, str) else "k1")
    k1 = float(c.k1) if not isinstance(c.k1, str) else c.gamma1 * mbar - cbar
    kp = c.kp if c.kp is not None else (k1 + cbar) * c.lam
    kd = c.kd if c.kd is not None else k1 + mbar * c.lam
    return NaiveGains(mx=np.diag(c.mx), bx=np.diag(c.bx), kp=kp, kd=kd,
                      box=BoxConstraint(list(c.torque_limits)), h=sc.h)


def _fd_lookup(schedule, t: float) -> tuple[float, float]:
    fx = fy = 0.0
    for entry in schedule:
        t0, x, y = entry
        if t >= t0:
            fx, fy = x, y
    return fx, fy


# --------------------------------------------------------------------------- trace

@dataclass
class Trace:
    """Per-controller-step log; vector fields have shape (steps, dof).  The
    float channels of a trace that ``run_scenario`` or ``trace_from_csv``
    returns are views of one (steps, columns) table."""

    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qx: np.ndarray
    qxd: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    fc_joint: np.ndarray
    fc_cart: np.ndarray          # (steps, 2)
    penetration: np.ndarray      # (steps,), y_s - ee_y, m; positive inside the surface
    s: np.ndarray
    v: np.ndarray
    u_s: np.ndarray
    saturated: np.ndarray        # bool, (steps, dof)
    contact: np.ndarray          # bool, (steps,)

    @property
    def dof(self) -> int:
        return self.q.shape[1]

    def last_window(self, seconds: float) -> np.ndarray:
        return self.t >= self.t[-1] - seconds + 1e-12

    def column_names(self) -> list[str]:
        return _trace_columns(self.dof)


# The trace layout, in CSV column order: (Trace attribute, column names, bool
# channel).  A name with {} gives one column per joint, a tuple gives fixed
# columns, and a plain name is a per-step channel of shape (steps,).
_TRACE_CHANNELS = (
    ("t", "t_s", False),
    ("q", "q{}_rad", False),
    ("qd", "qd{}_rad_per_s", False),
    ("qx", "qx{}_rad", False),
    ("qxd", "qxd{}_rad_per_s", False),
    ("tau", "tau{}_Nm", False),
    ("tau_star", "tau_star{}_Nm", False),
    ("fc_joint", "fc_joint{}_Nm", False),
    ("s", "s{}", False),
    ("v", "v{}", False),
    ("u_s", "u_s{}", False),
    ("fc_cart", ("fcx_N", "fcy_N"), False),
    ("penetration", "penetration_m", False),
    ("saturated", "saturated{}", True),
    ("contact", "contact", True),
)


def _trace_layout(n: int):
    """Each channel for n joints: (attribute, column names, bool, per-step)."""
    for attr, names, is_bool in _TRACE_CHANNELS:
        if isinstance(names, tuple):
            yield attr, list(names), is_bool, False
        elif "{}" in names:
            yield attr, [names.format(i) for i in range(n)], is_bool, False
        else:
            yield attr, [names], is_bool, True


def _trace_columns(n: int) -> list[str]:
    return [c for _, cols, _, _ in _trace_layout(n) for c in cols]


# Rows per formatted block of the trace CSV writer.
_CSV_BLOCK_ROWS = 256


def _csv_blocks(trace: Trace):
    """The CSV text of a trace in pieces: the header line, then the rows
    ``_CSV_BLOCK_ROWS`` at a time, each block formatted from one ``tolist()``."""
    layout = list(_trace_layout(trace.dof))
    arrays = [getattr(trace, attr) for attr, *_ in layout]
    row = ",".join("%d" if is_bool else "%.17g" for _, cols, is_bool, _ in layout for _ in cols)
    yield ",".join(trace.column_names()) + "\r\n"
    for start in range(0, trace.t.size, _CSV_BLOCK_ROWS):
        block = np.column_stack([a[start:start + _CSV_BLOCK_ROWS] for a in arrays])
        yield ((row + "\r\n") * len(block)) % tuple(block.ravel().tolist())


def trace_to_csv(trace: Trace) -> str:
    """The CSV text of a trace; floats keep full precision so the round trip
    is exact.  ``write_trace_csv`` writes this text to a file."""
    return "".join(_csv_blocks(trace))


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write the CSV text of a trace to ``path``, each block of rows as soon
    as it is formatted, so the writer holds one block, never the whole text.
    The file holds exactly the text ``trace_to_csv`` returns, CRLF line ends
    included, on every platform.
    """
    with open(path, "w", newline="") as f:
        f.writelines(_csv_blocks(trace))


def trace_from_csv(path: str) -> Trace:
    """Parse the trace file that ``write_trace_csv`` wrote at ``path``.

    The header must be the channel table's columns for one or two joints;
    otherwise ValueError names the first column that differs.  The rows are
    parsed from the open file, a line at a time, so the file is never held
    in memory.  A file with no row after its header raises ValueError,
    naming the path; a missing file raises FileNotFoundError.
    """
    with open(path) as f:
        line = f.readline()
        header = line.rstrip("\n").split(",") if line else []
        n = 2 if header[2:3] == _trace_columns(2)[2:3] else 1   # the layouts part at column 3
        for i, (got, want) in enumerate(itertools.zip_longest(header, _trace_columns(n))):
            if got != want:
                raise ValueError(f"not a trace header: column {i + 1} is {got!r}, expected {want!r}")
        first = next((row for row in f if row.strip()), None)
        if first is None:
            raise ValueError(f"no row follows the header of trace file {path!r}")
        table = np.loadtxt(itertools.chain((first,), f), delimiter=",", comments=None,
                           ndmin=2).reshape(-1, len(header))
    return _trace_from_table(table, n)


def _trace_from_table(table: np.ndarray, n: int) -> Trace:
    """The trace of n joints whose rows are the rows of the float ``table``,
    its columns in ``_trace_columns(n)`` order: each float channel is a view
    of the table, each bool channel a copy."""
    fields, col = {}, 0
    for attr, cols, is_bool, per_step in _trace_layout(n):
        block = table[:, col] if per_step else table[:, col:col + len(cols)]
        fields[attr] = block.astype(bool) if is_bool else block
        col += len(cols)
    return Trace(**fields)


# --------------------------------------------------------------------------- runner

def _build_run(sc: Scenario) -> tuple:
    """Build everything a run of ``sc`` needs before its first step: (model,
    disturbance, estimate, gains, q0, initial plant state).  A scenario that
    cannot be built raises ScenarioError, naming the field."""
    try:
        sc.validate()
        model = build_model(sc)
        n = model.dof
        disturbance = _build_disturbance(sc, model)
        estimate = _build_estimate(sc, model)
        q0 = np.asarray(sc.q0, dtype=float)
        qd0 = np.zeros(n) if sc.qd0 is None else np.asarray(sc.qd0, dtype=float)
        for key, x in (("q0_rad", q0), ("qd0_rad_per_s", qd0)):
            if x.size != n or not np.all(np.isfinite(x)):
                raise ValueError(f"{key} needs {n} finite entries for plant {sc.plant!r}, "
                                 f"got {x.tolist()}")
        proposed = sc.controller.kind == "proposed"
        if sc.controller.kind not in ("proposed", "naive"):
            raise ValueError(f"unknown controller.kind: {sc.controller.kind!r}")
        try:
            gains = _build_gains(sc) if proposed else _build_naive_gains(sc)
        except ValueError as exc:   # the gains also check the period, h_s
            raise _section_error("controller", exc, top=(("h_s", "h"),)) from exc
        if proposed and sc.estimate.kind == "diag":
            try:    # the constant estimate's loop, built now: the first step reuses it
                _loop_for(estimate, q0, initial_state(q0), gains)
            except SolverConvergenceError as exc:
                raise ValueError(f"with estimate.mass_diag_kgm2, estimate.coriolis_diag_Nms "
                                 f"and controller.k1 as given, the {exc}") from None
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return model, disturbance, estimate, gains, q0, PlantState(q0.copy(), qd0.copy())


def _ee_velocity(jac: tuple, qd: list) -> tuple[float, float]:
    """J qd on floats, for the Jacobian's entries row by row (x row, then y
    row) and one or two joint rates; each row is 0.0 + j_0 qd_0 (+ j_1 qd_1),
    the package's row convention."""
    if len(qd) == 1:
        jx, jy = jac
        (w,) = qd
        return 0.0 + jx * w, 0.0 + jy * w
    jx0, jx1, jy0, jy1 = jac
    w0, w1 = qd
    return 0.0 + jx0 * w0 + jx1 * w1, 0.0 + jy0 * w0 + jy1 * w1


def _joint_forces(jac: tuple, fx: float, fy: float) -> list[float]:
    """J^T [fx, fy] on floats, for the Jacobian's entries row by row (x row,
    then y row) of one or two joints; joint i's force is 0.0 + jx_i fx +
    jy_i fy, so a zero force maps to +0.0 whatever the zeros' signs."""
    if len(jac) == 2:
        jx, jy = jac
        return [0.0 + jx * fx + jy * fy]
    jx0, jx1, jy0, jy1 = jac
    return [0.0 + jx0 * fx + jy0 * fy, 0.0 + jx1 * fx + jy1 * fy]


def run_scenario(sc: Scenario) -> Trace:
    """Execute a scenario; deterministic, raises SimulationBlowUp (with the
    failing step index) if the plant state leaves the finite range.

    Everything the run needs is built before the first step; a scenario that
    cannot be built raises ScenarioError, naming the field.  Each step's
    bookkeeping (kinematics, the joint-space forces, the trace row) is done
    on floats, and its trace values go to one preallocated table as one row.
    """
    model, disturbance, estimate, gains, q0, state = _build_run(sc)
    n = model.dof
    env = sc.env
    terms, e = model.terms, model.pose_at
    controller_step = admittance_step if sc.controller.kind == "proposed" else baseline_naive_step

    steps = int(round(sc.duration / sc.h))
    n_sub = int(round(sc.h / sc.dt_sub))
    ap = sc.approach
    in_force_phase = ap.mode == "none"
    ctrl_state: AdmittanceState | None = initial_state(q0) if in_force_phase else None
    # the approach servo drives the last joint within its torque limit
    limit = float(gains.box.limits[-1])
    zeros, unsaturated = [0.0] * n, [False] * n
    # the force schedule (sorted by validate) and a sentinel; the level is
    # the last breakpoint reached, read once when the run reaches it
    schedule = (*sc.fd_schedule, (math.inf, 0.0, 0.0))
    fdx = fdy = 0.0
    nxt = 0
    t_next = schedule[0][0]
    # one row per step, in _TRACE_CHANNELS order
    table = np.zeros((steps, len(_trace_columns(n))))

    for k in range(steps):
        t = k * sc.h
        while t >= t_next:
            _, fdx, fdy = schedule[nxt]
            nxt += 1
            t_next = schedule[nxt][0]
        q, qd = state.q.tolist(), state.qd.tolist()
        kinematics = terms(*q, *qd)     # its pose and Jacobian do not depend on qd
        ee, jac = kinematics[e:e + 2], kinematics[e + 2:]
        fx, fy = contact_wrench(ee, _ee_velocity(jac, qd), env)
        fc = _joint_forces(jac, fx, fy)

        if not in_force_phase and fy != 0.0:
            in_force_phase = True
            ctrl_state = initial_state(state.q)

        if in_force_phase:
            # float vectors of the plant state, finite-checked every period
            # and new every period (so not copied), and of the validated force
            # schedule: not checked again
            meas = _measurement(state.q, np.array(fc), np.array(_joint_forces(jac, fdx, fdy)))
            tau, ctrl_state, diag = controller_step(ctrl_state, meas, estimate, gains)
            qx, qxd, v = (ctrl_state.qx_prev.tolist(), ctrl_state.qxd_prev.tolist(),
                          ctrl_state.v_prev.tolist())
            applied, tau_star = tau.tolist(), diag.tau_star.tolist()
            s, u_s, sat = diag.s.tolist(), diag.u_s.tolist(), diag.saturated.tolist()
        else:
            cmd = ap.kv * (ap.v_ref - qd[-1]) + ap.hold_force
            applied = tau_star = [*zeros[1:], max(-limit, min(limit, cmd))]
            tau = np.array(applied)
            qx, qxd, s, v, u_s, sat = q, zeros, zeros, zeros, zeros, unsaturated
        table[k] = [t, *q, *qd, *qx, *qxd, *applied, *tau_star, *fc, *s, *v, *u_s, fx, fy,
                    env.y_s - ee[1], *sat, fy > 0.0]

        try:
            state = integrate_substep(model, state, tau, env, disturbance, t, sc.dt_sub, n_sub)
        except SimulationBlowUp:
            raise SimulationBlowUp(step=k, t=t) from None

    return _trace_from_table(table, n)


# --------------------------------------------------------------------------- metrics

@dataclass
class Metrics:
    """Quantitative scores of one run; NaN marks undefined entries."""

    steady_force_err: float     # mean |fcy - |fd|| / |fd| over the last second
    steady_force_mean: float    # mean fcy over the last second, N
    settle_time: float          # s after first contact until 5 % band held 0.5 s
    rebound_count: int          # contact losses after 0.2 s of sustained contact
    torque_violations: int      # steps with any |tau_i| > F_i
    chattering_index: float     # max over joints of std(u_s) over the last second
    max_penetration: float      # largest penetration channel value, or 0 m


def compute_metrics(trace: Trace, sc: Scenario) -> Metrics:
    if trace.t.size == 0:
        raise ValueError("empty trace")
    limits = np.asarray(sc.controller.torque_limits, dtype=float)
    if limits.size != trace.dof:
        raise ValueError(f"the trace has {trace.dof} joint(s); torque_limits has {limits.size}")
    fd_mag = abs(_fd_lookup(sc.fd_schedule, trace.t[-1])[1])
    window = trace.last_window(1.0)
    fcy = trace.fc_cart[:, 1]

    if fd_mag > 0.0:
        steady_err = float(np.mean(np.abs(fcy[window] - fd_mag)) / fd_mag)
    else:
        steady_err = math.nan
    steady_mean = float(np.mean(fcy[window]))

    # the step loops index Python lists: a numpy scalar per element costs more
    t = trace.t.tolist()
    contact = trace.contact.tolist()
    settle = math.nan
    if fd_mag > 0.0 and True in contact:
        ok = (np.abs(fcy - fd_mag) <= 0.05 * fd_mag).tolist()
        need = max(1, int(round(0.5 / sc.h)))
        start = contact.index(True)
        run = 0
        for k in range(start, len(t)):
            run = run + 1 if ok[k] else 0
            if run >= need:
                settle = t[k - need + 1] - t[start]
                break

    rebounds = 0
    run = 0
    sustain = int(round(0.2 / sc.h))
    for c in contact:
        if c:
            run += 1
        else:
            if run >= sustain:
                rebounds += 1
            run = 0

    violations = int(np.sum(np.any(np.abs(trace.tau) > limits[None, :], axis=1)))
    chatter = float(np.max(np.std(trace.u_s[window], axis=0))) if np.any(window) else math.nan
    pen = max([0.0, *trace.penetration.tolist()])
    return Metrics(steady_err, steady_mean, settle, rebounds, violations, chatter, pen)


def metrics_to_dict(m: Metrics) -> dict:
    out = {}
    for key, val in asdict(m).items():
        if isinstance(val, float) and math.isnan(val):
            out[key] = None
        else:
            out[key] = val
    return out


# --------------------------------------------------------------------------- sweeps

# what a JSON value must be for each declared type name of a scenario field
_TYPE_WORDS = {"float": "a number", "int": "an integer", "str": "a string",
               "tuple": "a list of numbers", "None": "null",
               "rows": "a list of [t_s, fx_N, fy_N] rows"}
# the declared type of the force schedule, whose rows are lists of numbers
_ROWS = ("rows",)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _typed(value, declared: tuple[str, ...], key: str):
    """``value``, read from JSON, as a value of a field declared with the
    type names ``declared`` (e.g. ``("float", "str")``): a number as a float
    (an int field takes an integral number, as an int), a list of numbers as
    a tuple of floats, and for ``_ROWS`` a list of such lists as a tuple of
    tuples (the rows' length and order are ``Scenario.validate``'s to check).
    Anything else, a bool for a number included, raises ValueError naming
    ``key``."""
    try:
        if value is None and "None" in declared:
            return None
        if _is_number(value) and "float" in declared:
            return float(value)
        if _is_number(value) and "int" in declared and float(value).is_integer():
            return int(value)
        if isinstance(value, str) and "str" in declared:
            return value
        if (isinstance(value, (list, tuple)) and "tuple" in declared
                and all(map(_is_number, value))):
            return tuple(map(float, value))
        if isinstance(value, (list, tuple)) and "rows" in declared:
            return tuple(_typed(row, ("tuple",), f"{key} entry {i}")
                         for i, row in enumerate(value))
    except OverflowError:
        pass
    wanted = " or ".join(_TYPE_WORDS.get(name, name) for name in declared)
    raise ValueError(f"{key} must be {wanted}, got {value!r}")


def _coerce(value, declared: tuple[str, ...], key: str):
    """A ``--set`` value for a field declared with the type names ``declared``.

    Strings (from the CLI) are read as JSON.  For a field declared to take
    strings a JSON string or a bare word that is not JSON is kept as the
    string, a JSON number becomes a float where the field also takes one, and
    other JSON text stays the word it is: so ``controller.k1=structured``
    stores the word and ``controller.k1=30`` the number, whatever k1 held
    before.  A single number for a list field is a one-entry list.  The value
    is then checked by ``_typed``, which raises ValueError naming ``key``.
    """
    if isinstance(value, str):
        text = value.strip()
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            if "str" in declared:
                return text
            raise ValueError(f"{key} needs a JSON value, got {text!r}") from None
        if "str" in declared:
            if isinstance(value, str):
                return value
            return float(text) if _is_number(value) and "float" in declared else text
    if _is_number(value) and "tuple" in declared:
        value = [value]
    return _typed(value, declared, key)


def _declared_types(holder, leaf: str) -> tuple[str, ...]:
    """The type names the dataclass field ``leaf`` of ``holder`` is declared
    with, e.g. ``("float", "str")``; empty when it is no such field."""
    if is_dataclass(holder):
        for f in fields(holder):
            if f.name == leaf:
                return tuple(str(f.type).split(" | "))
    return ()


def apply_override(sc: Scenario, key: str, value) -> None:
    """Set a scenario field addressed by a dotted path, in place.

    Accepts both attribute paths (``env.k_s``) and the scenario file's names
    (``env.ks_N_per_m``); the special key ``fd_y`` replaces the desired
    force schedule with a constant level.  Values may arrive as strings (CLI);
    one that does not convert to the field's type raises ValueError.
    """
    if key == "fd_y":
        sc.fd_schedule = ((0.0, 0.0, _coerce(value, ("float",), key)),)
        return
    path = _JSON_PATHS.get(key, key)
    parts = path.split(".")
    chain = [sc]
    for part in parts:
        if not hasattr(chain[-1], part):
            raise KeyError(f"override path {key!r} does not resolve")
        chain.append(getattr(chain[-1], part))
    holder, leaf = chain[-2], parts[-1]
    declared = _ROWS if path == "fd_schedule" else _declared_types(holder, leaf)
    if not declared:
        raise KeyError(f"override path {key!r} does not name a scenario field")
    value = _coerce(value, declared, key)
    if is_dataclass(holder) and holder.__dataclass_params__.frozen:
        setattr(chain[-3], parts[-2], replace(holder, **{leaf: value}))
    else:
        setattr(holder, leaf, value)


def sweep(sc_template: Scenario, param_path: str, values: Sequence) -> list[tuple[object, Metrics]]:
    """Run the template once per value of the addressed parameter, in order.

    Every value is set on its own copy of the template, and the copy is built
    as its run will build it, before the first run; a value that its field or
    the scenario's build rejects (or a path that names no field) raises
    ScenarioError naming the path and the value."""
    scenarios = [copy.deepcopy(sc_template) for _ in values]
    for s, v in zip(scenarios, values):
        try:
            apply_override(s, param_path, v)
            _build_run(s)
        except (KeyError, ValueError) as exc:
            # the message itself: str() of a KeyError quotes it
            reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            raise ScenarioError(f"bad sweep value {v!r} for {param_path}: {reason}") from exc
    return [(v, compute_metrics(run_scenario(s), s)) for v, s in zip(values, scenarios)]


# --------------------------------------------------------------------------- presets

LINMOTOR_STIFFNESS_LEVELS = (400.0, 160.0, 60.0)


def presets() -> dict[str, Scenario]:
    """Bundled scenarios.

    fig3_one_dof   -- rotary arm impacting a 2 kN/m surface, 2 N force command;
    fig5_two_dof   -- planar two-link arm, same surface, per-joint limits 3/4 Nm;
    linmotor_steps -- vertical linear stage, velocity approach then force steps;
    msta_bench     -- disturbance-rejection benchmark on a unit stage.
    """
    fig3 = Scenario(
        name="fig3_one_dof",
        plant="one_dof",
        plant_params=OneDofParams(g=0.0),   # horizontal plane; 3 Nm cannot hold 12 Nm of gravity
        env=EnvironmentModel(k_s=2e3, y_s=-0.5 * math.sin(0.1), mu_fric=0.1),
        controller=ControllerSpec(kind="proposed", mx=(0.3,), bx=(2.0,), lam=10.0,
                                  k1=30.0, k2=11.6, k3=66.0, k4=0.0,
                                  torque_limits=(3.0,), us_mode="scalar-implicit"),
        estimate=EstimateSpec(kind="diag", mass_diag=(0.1,), coriolis_diag=(0.0,)),
        fd_schedule=((0.0, 0.0, -2.0),),
        q0=(0.0,),
        duration=5.0, h=1e-3, dt_sub=2e-4,
    )
    # start with the end-effector almost above the base so the contact normal
    # loads the distal joint; the proximal joint (5.9 kg m^2 against a 3 Nm
    # limit) has too little authority to damp a contact bounce on its own
    fig5 = Scenario(
        name="fig5_two_dof",
        plant="two_link",
        plant_params=TwoLinkParams(),
        env=EnvironmentModel(k_s=2e3, y_s=0.724, mu_fric=0.1),
        controller=ControllerSpec(kind="proposed", mx=(0.5, 0.5), bx=(1.0, 1.0), lam=10.0,
                                  k1=30.0, k2=11.6, k3=66.0, k4=0.0,
                                  torque_limits=(3.0, 4.0), us_mode="explicit"),
        estimate=EstimateSpec(kind="diag", mass_diag=(0.2, 0.2), coriolis_diag=(20.0, 20.0)),
        fd_schedule=((0.0, 0.0, -2.0),),
        q0=(2.5, -1.5),
        duration=5.0, h=1e-3, dt_sub=2e-4,
    )
    # soft-pad stiffness stand-ins for the three test materials, stiffest first;
    # at h = 4 ms an undamped spring beyond ~500 N/m rings the discrete sliding
    # band (h^2 k3) into a visible force cycle, so the levels keep the ordering
    # at desk scale
    linmotor = Scenario(
        name="linmotor_steps",
        plant="linear_motor",
        plant_params=LinearMotorParams(),
        env=EnvironmentModel(k_s=LINMOTOR_STIFFNESS_LEVELS[0], y_s=0.0, mu_fric=0.1),
        controller=ControllerSpec(kind="proposed", mx=(0.2,), bx=(4.0,), lam=10.0,
                                  k1=60.0, k2=22.25, k3=242.0, k4=0.0,
                                  torque_limits=(12.5,), us_mode="scalar-implicit"),
        estimate=EstimateSpec(kind="diag", mass_diag=(0.22,), coriolis_diag=(0.0,)),
        fd_schedule=((0.0, 0.0, -2.0),),
        approach=ApproachSpec(mode="velocity", v_ref=-0.04, kv=60.0,
                              hold_force=0.22 * 9.81),
        q0=(0.02,),
        duration=6.0, h=4e-3, dt_sub=4e-4,
    )
    bench = Scenario(
        name="msta_bench",
        plant="linear_motor",
        # the frictionless double integrator: no viscosity or gravity, unit drive gain
        plant_params=LinearMotorParams(mass=1.0, viscous=0.0, kappa=1.0, friction_coulomb=0.0,
                                       friction_viscous=0.0, g=0.0),
        env=EnvironmentModel(k_s=0.0, y_s=-1.0, mu_fric=0.0),
        controller=ControllerSpec(kind="proposed", mx=(1.0,), bx=(2.0,), lam=10.0,
                                  k1=30.0, k2=11.6, k3=66.0, k4=0.0,
                                  torque_limits=(50.0,), us_mode="scalar-implicit"),
        estimate=EstimateSpec(kind="diag", mass_diag=(1.0,), coriolis_diag=(0.0,)),
        fd_schedule=((0.0, 0.0, 0.0),),
        disturbance=DisturbanceSpec(kind="ramp_hold", rate=10.0, level=10.0, t_start=0.5),
        q0=(0.0,),
        duration=5.0, h=1e-3, dt_sub=1e-4,
    )
    return {s.name: s for s in (fig3, fig5, linmotor, bench)}


def naive_variant(sc: Scenario) -> Scenario:
    """Same scenario driven by the clamped proxy-PD baseline."""
    out = copy.deepcopy(sc)
    out.name = sc.name + "_naive"
    out.controller.kind = "naive"
    return out


# --------------------------------------------------------------------------- bench

def double_integrator_bench(us_mode: str, g: MstaGains, h: float, duration: float,
                            delta_max: float, t_ramp: float = 1.0,
                            t_start: float = 0.5) -> dict[str, np.ndarray]:
    """Inner-loop disturbance-rejection benchmark.

    The loop is sdot = -u_s + phi(t) where phi ramps at the full disturbance
    rate delta_max from t_start for t_ramp seconds and then holds, so
    |dphi/dt| <= delta_max everywhere.  ``us_mode`` is "scalar-implicit" or
    "explicit"; returns arrays t, s, u, phi.
    """
    steps = int(round(duration / h))
    t = np.arange(steps) * h
    phi = delta_max * np.clip(t - t_start, 0.0, t_ramp)
    s = np.zeros(steps)
    u = np.zeros(steps)
    sk = 0.0
    if us_mode == "scalar-implicit":
        v = 0.0
        for k in range(steps):
            s[k] = sk
            uk, v, _, _ = sta_scalar_implicit_step(sk, g, 1.0, h, v)
            u[k] = uk
            sk = sk + h * (-uk + phi[k])
    elif us_mode == "explicit":
        v = np.zeros(1)
        for k in range(steps):
            s[k] = sk
            u_vec, v = msta_explicit_step(np.array([sk]), v, g, h)
            u[k] = u_vec[0]
            sk = sk + h * (-u[k] + phi[k])
    else:
        raise ValueError("us_mode must be 'scalar-implicit' or 'explicit'")
    return {"t": t, "s": s, "u": u, "phi": phi}


# --------------------------------------------------------------------------- JSON io

# (JSON key, attribute) of each scenario section: scenario_to_dict writes
# exactly these keys and scenario_from_dict accepts no others
_ENV_KEYS = (("ks_N_per_m", "k_s"), ("ys_m", "y_s"), ("mu_fric", "mu_fric"))
_CONTROLLER_KEYS = (
    ("kind", "kind"), ("mx_diag", "mx"), ("bx_diag", "bx"), ("lambda_per_s", "lam"),
    ("k1", "k1"), ("k2", "k2"), ("k3", "k3"), ("k4", "k4"), ("gamma1_per_s", "gamma1"),
    ("mu", "mu"), ("fp_tol", "fp_tol"), ("fp_max_iter", "fp_max_iter"),
    ("torque_limits_Nm", "torque_limits"), ("us_mode", "us_mode"),
    ("us_coupling", "us_coupling"), ("kp", "kp"), ("kd", "kd"),
)
_ESTIMATE_KEYS = (("kind", "kind"), ("mass_diag_kgm2", "mass_diag"),
                  ("coriolis_diag_Nms", "coriolis_diag"))
_APPROACH_KEYS = (("mode", "mode"), ("v_ref_m_per_s", "v_ref"), ("kv_N_s_per_m", "kv"),
                  ("hold_force_N", "hold_force"))
_DISTURBANCE_KEYS = tuple((f.name, f.name) for f in fields(DisturbanceSpec))
_HEAD_KEYS = (("name", "name"), ("plant", "plant"))
_TAIL_KEYS = (("q0_rad", "q0"), ("qd0_rad_per_s", "qd0"), ("duration_s", "duration"),
              ("h_s", "h"), ("dt_sub_s", "dt_sub"))
_TOP_KEYS = _HEAD_KEYS + _TAIL_KEYS
_SECTION_KEYS = {"env": (EnvironmentModel, _ENV_KEYS),
                 "disturbance": (DisturbanceSpec, _DISTURBANCE_KEYS),
                 "controller": (ControllerSpec, _CONTROLLER_KEYS),
                 "estimate": (EstimateSpec, _ESTIMATE_KEYS),
                 "approach": (ApproachSpec, _APPROACH_KEYS)}
_SECTIONS = ("plant_params", "fd_schedule_N", *_SECTION_KEYS)
# dotted JSON name -> attribute path, for apply_override
_JSON_PATHS = {"fd_schedule_N": "fd_schedule", **dict(_TOP_KEYS),
               **{f"{section}.{key}": f"{section}.{attr}"
                  for section, (_, keys) in _SECTION_KEYS.items() for key, attr in keys}}


def _section_to_dict(obj, keys) -> dict:
    out = {}
    for key, attr in keys:
        value = getattr(obj, attr)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _section_from_dict(d, cls, keys, where: str) -> dict:
    """Attribute keyword arguments of one section of dataclass ``cls``, each
    value checked against its field's declared types (``_typed``)."""
    if not isinstance(d, dict):
        raise ValueError(f"scenario key {where!r} must be an object")
    attrs = dict(keys)
    out = {}
    for key, value in d.items():
        dotted = f"{where}.{key}" if where else key
        if key not in attrs:
            raise ValueError(f"unknown scenario key {dotted!r}")
        out[attrs[key]] = _typed(value, _declared_types(cls, attrs[key]), dotted)
    return out


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        **_section_to_dict(sc, _HEAD_KEYS),
        "plant_params": None if sc.plant_params is None else asdict(sc.plant_params),
        "env": _section_to_dict(sc.env, _ENV_KEYS),
        "disturbance": _section_to_dict(sc.disturbance, _DISTURBANCE_KEYS),
        "controller": _section_to_dict(sc.controller, _CONTROLLER_KEYS),
        "estimate": _section_to_dict(sc.estimate, _ESTIMATE_KEYS),
        "fd_schedule_N": [list(e) for e in sc.fd_schedule],
        "approach": _section_to_dict(sc.approach, _APPROACH_KEYS),
        **_section_to_dict(sc, _TAIL_KEYS),
    }


def scenario_from_dict(d: dict) -> Scenario:
    """Inverse of ``scenario_to_dict``; absent keys take their defaults, and an
    unknown key at any level is rejected with its dotted name."""
    if not isinstance(d, dict):
        raise ValueError("a scenario must be a JSON object")
    kwargs = _section_from_dict({k: v for k, v in d.items() if k not in _SECTIONS},
                                Scenario, _TOP_KEYS, "")
    if "plant" not in d:
        raise ValueError("scenario key 'plant' is required")
    kwargs.setdefault("name", "scenario")
    if d.get("plant_params") is not None:
        cls = _plant_kind(d["plant"])[1]
        keys = tuple((f.name, f.name) for f in fields(cls))
        attrs = _section_from_dict(d["plant_params"], cls, keys, "plant_params")
        try:
            kwargs["plant_params"] = cls(**attrs)
        except ValueError as exc:
            raise _section_error("plant_params", exc, keys) from exc
    for key, (cls, keys) in _SECTION_KEYS.items():
        attrs = _section_from_dict(d.get(key, {}), cls, keys, key)
        try:
            kwargs[key] = cls(**attrs)
        except ValueError as exc:
            raise _section_error(key, exc) from exc
    if "fd_schedule_N" in d:
        kwargs["fd_schedule"] = _typed(d["fd_schedule_N"], _ROWS, "fd_schedule_N")
    return Scenario(**kwargs)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(sc), f, indent=2)


def load_scenario(path: str) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))
