"""Closed-loop scenarios: fixed-step runner, traces, metrics, presets, sweeps.

A ``Scenario`` is a fully declarative description (JSON-serializable) of one
closed-loop experiment: plant, environment, disturbance, controller, rough
model estimate, desired-force schedule, optional velocity-servo approach
phase, and timing.  ``run_scenario`` executes it deterministically: the
controller runs at period h and the plant integrates with semi-implicit Euler
substeps under zero-order-hold torque.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
import os
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    NaiveGains,
    _loop_for,
    admittance_step,
    baseline_naive_step,
    initial_state,
)
from .msta import (MstaGains, MstaState, SolverConvergenceError, msta_explicit_step,
                   sta_scalar_implicit_step)
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
    double_integrator_model,
    integrate_substep,
    linear_motor_model,
    one_dof_model,
    two_link_model,
)
from .setvalued import BoxConstraint, _require_finite, _unchecked

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
    us_coupling: str = "direct"
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


# the most plant substeps per controller period (h_s / dt_sub_s); the presets
# take 100
MAX_SUBSTEPS = 10_000


@dataclass
class Scenario:
    name: str
    plant: str                              # one_dof | two_link | linear_motor | double_integrator
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
    dt_sub: float = 1e-5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check timing, force schedule, approach and disturbance values;
        ``run_scenario`` repeats this because overrides change fields after
        construction."""
        if not all(0.0 < x < math.inf for x in (self.duration, self.h, self.dt_sub)):
            raise ValueError("duration_s, h_s and dt_sub_s must be positive and finite")
        ratio = self.h / self.dt_sub
        if not ratio < MAX_SUBSTEPS + 0.5:
            raise ValueError(f"dt_sub_s = {self.dt_sub} s makes {ratio:.6g} plant substeps per "
                             f"controller period h_s = {self.h} s; at most {MAX_SUBSTEPS} are "
                             f"allowed")
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


# plant kind -> (model constructor, its parameter type or None)
_PLANTS = {"one_dof": (one_dof_model, OneDofParams), "two_link": (two_link_model, TwoLinkParams),
           "linear_motor": (linear_motor_model, LinearMotorParams),
           "double_integrator": (double_integrator_model, None)}


def build_model(sc: Scenario) -> ManipulatorModel:
    if sc.plant not in _PLANTS:
        raise ValueError(f"unknown plant kind: {sc.plant!r}")
    make, params = _PLANTS[sc.plant]
    if sc.plant_params is not None and (params is None or type(sc.plant_params) is not params):
        takes = "no plant_params" if params is None else params.__name__
        raise ValueError(f"plant_params is {type(sc.plant_params).__name__}; plant {sc.plant!r} "
                         f"takes {takes}")
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


def _section_error(section: str, exc: ValueError, keys=None) -> ValueError:
    """An error from building one scenario section, restated with the
    scenario file's dotted names of that section's fields (``keys``, the
    section's ``(key, attribute)`` pairs, default from ``_SECTION_KEYS``)."""
    keys = _SECTION_KEYS[section][1] if keys is None else keys
    names = {attr: f"{section}.{key}" for key, attr in keys}
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
    """Per-controller-step log; vector fields have shape (steps, dof)."""

    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qx: np.ndarray
    qxd: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    fc_joint: np.ndarray
    fc_cart: np.ndarray          # (steps, 2)
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


def trace_to_csv(trace: Trace, path: str | None = None) -> str:
    """Serialize a trace; floats keep full precision so the round trip is exact."""
    layout = list(_trace_layout(trace.dof))
    table = np.column_stack([getattr(trace, attr) for attr, *_ in layout]).tolist()
    row = ",".join("%d" if is_bool else "%.17g" for _, cols, is_bool, _ in layout for _ in cols)
    lines = [",".join(trace.column_names())] + [row % tuple(r) for r in table]
    text = "".join(line + "\r\n" for line in lines)
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def trace_from_csv(source: str) -> Trace:
    """Parse a trace written by ``trace_to_csv`` (path or CSV text).

    The header must be the channel table's columns for one or two joints;
    otherwise ValueError names the first column that differs.
    """
    if "\n" not in source and os.path.exists(source):
        with open(source) as f:
            source = f.read()
    lines = source.splitlines()
    header = lines[0].split(",") if lines else []
    n = 2 if header[2:3] == _trace_columns(2)[2:3] else 1   # the layouts part at column 3
    for i, (got, want) in enumerate(itertools.zip_longest(header, _trace_columns(n))):
        if got != want:
            raise ValueError(f"not a trace header: column {i + 1} is {got!r}, expected {want!r}")
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2).reshape(-1, len(header))
    fields, col = {}, 0
    for attr, cols, is_bool, per_step in _trace_layout(n):
        block = table[:, col] if per_step else table[:, col:col + len(cols)]
        fields[attr] = block.astype(bool) if is_bool else block
        col += len(cols)
    return Trace(**fields)


# --------------------------------------------------------------------------- runner

def run_scenario(sc: Scenario) -> Trace:
    """Execute a scenario; deterministic, raises SimulationBlowUp (with the
    failing step index) if the plant state leaves the finite range.

    Everything the run needs is built before the first step; a scenario that
    cannot be built raises ScenarioError, naming the field.
    """
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
        state = PlantState(q0.copy(), qd0.copy())
        proposed = sc.controller.kind == "proposed"
        if sc.controller.kind not in ("proposed", "naive"):
            raise ValueError(f"unknown controller.kind: {sc.controller.kind!r}")
        try:
            gains = _build_gains(sc) if proposed else _build_naive_gains(sc)
        except ValueError as exc:
            raise _section_error("controller", exc) from exc
        if proposed and sc.estimate.kind == "diag":
            try:    # the constant estimate's loop, built now: the first step reuses it
                _loop_for(estimate, q0, initial_state(q0), gains)
            except SolverConvergenceError as exc:
                raise ValueError(f"with estimate.mass_diag_kgm2, estimate.coriolis_diag_Nms "
                                 f"and controller.k1 as given, the {exc}") from None
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    env = sc.env
    controller_step = admittance_step if proposed else baseline_naive_step

    steps = int(round(sc.duration / sc.h))
    n_sub = int(round(sc.h / sc.dt_sub))
    in_force_phase = sc.approach.mode == "none"
    ctrl_state: AdmittanceState | None = initial_state(q0) if in_force_phase else None
    tr = Trace(**{attr: np.zeros(steps if per_step else (steps, len(cols)),
                                 dtype=bool if is_bool else float)
                  for attr, cols, is_bool, per_step in _trace_layout(n)})

    for k in range(steps):
        t = k * sc.h
        ee, jac = model._pose_jacobian(state.q)
        ee_vel = jac @ state.qd
        fx, fy = contact_wrench(ee, (ee_vel[0], ee_vel[1]), env)
        fc_joint = jac.T @ np.array([fx, fy])
        fdx, fdy = _fd_lookup(sc.fd_schedule, t)
        fd_joint = jac.T @ np.array([fdx, fdy])

        if not in_force_phase and fy != 0.0:
            in_force_phase = True
            ctrl_state = initial_state(state.q)

        if in_force_phase:
            # float vectors of the plant state, finite-checked every period,
            # and of the validated force schedule: not checked again
            meas = _unchecked(Measurement, q=state.q.copy(), fc=fc_joint, fd=fd_joint)
            tau, ctrl_state, diag = controller_step(ctrl_state, meas, estimate, gains)
            tr.qx[k] = ctrl_state.qx_prev
            tr.qxd[k] = ctrl_state.qxd_prev
            tr.tau_star[k] = diag.tau_star
            tr.s[k] = diag.s
            tr.v[k] = ctrl_state.msta_state.v
            tr.u_s[k] = diag.u_s
            tr.saturated[k] = diag.saturated
        else:
            ap = sc.approach
            cmd = ap.kv * (ap.v_ref - state.qd[-1]) + ap.hold_force
            tau = np.zeros(n)
            tau[-1] = max(-gains.box.limits[-1], min(gains.box.limits[-1], cmd))
            tr.qx[k] = state.q
            tr.tau_star[k] = tau

        tr.t[k] = t
        tr.q[k] = state.q
        tr.qd[k] = state.qd
        tr.tau[k] = tau
        tr.fc_joint[k] = fc_joint
        tr.fc_cart[k] = (fx, fy)
        tr.contact[k] = fy > 0.0

        try:
            state = integrate_substep(model, state, tau, env, disturbance, t, sc.dt_sub, n_sub)
        except SimulationBlowUp:
            raise SimulationBlowUp(step=k, t=t) from None

    return tr


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
    max_penetration: float      # m


def compute_metrics(trace: Trace, sc: Scenario) -> Metrics:
    if trace.t.size == 0:
        raise ValueError("empty trace")
    limits = np.asarray(sc.controller.torque_limits, dtype=float)
    fd_mag = abs(_fd_lookup(sc.fd_schedule, trace.t[-1])[1])
    window = trace.last_window(1.0)
    fcy = trace.fc_cart[:, 1]

    if fd_mag > 0.0:
        steady_err = float(np.mean(np.abs(fcy[window] - fd_mag)) / fd_mag)
    else:
        steady_err = math.nan
    steady_mean = float(np.mean(fcy[window]))

    settle = math.nan
    contact_idx = np.flatnonzero(trace.contact)
    if fd_mag > 0.0 and contact_idx.size:
        ok = np.abs(fcy - fd_mag) <= 0.05 * fd_mag
        need = max(1, int(round(0.5 / sc.h)))
        start = contact_idx[0]
        run = 0
        for k in range(start, trace.t.size):
            run = run + 1 if ok[k] else 0
            if run >= need:
                settle = float(trace.t[k - need + 1] - trace.t[start])
                break

    rebounds = 0
    run = 0
    sustain = int(round(0.2 / sc.h))
    for k in range(trace.t.size):
        if trace.contact[k]:
            run += 1
        else:
            if run >= sustain:
                rebounds += 1
            run = 0

    violations = int(np.sum(np.any(np.abs(trace.tau) > limits[None, :], axis=1)))
    chatter = float(np.max(np.std(trace.u_s[window], axis=0))) if np.any(window) else math.nan

    model = build_model(sc)
    pen = max([0.0, *(sc.env.y_s - model.ee_pose_fn(q)[1] for q in trace.q)])
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
    """Run the template once per value of the addressed parameter, in order."""
    scenarios = [copy.deepcopy(sc_template) for _ in values]
    for s, v in zip(scenarios, values):
        apply_override(s, param_path, v)
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
        duration=5.0, h=1e-3, dt_sub=1e-5,
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
        duration=5.0, h=1e-3, dt_sub=1e-5,
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
        duration=6.0, h=4e-3, dt_sub=4e-5,
    )
    bench = Scenario(
        name="msta_bench",
        plant="double_integrator",
        env=EnvironmentModel(k_s=0.0, y_s=-1.0, mu_fric=0.0),
        controller=ControllerSpec(kind="proposed", mx=(1.0,), bx=(2.0,), lam=10.0,
                                  k1=30.0, k2=11.6, k3=66.0, k4=0.0,
                                  torque_limits=(50.0,), us_mode="scalar-implicit"),
        estimate=EstimateSpec(kind="diag", mass_diag=(1.0,), coriolis_diag=(0.0,)),
        fd_schedule=((0.0, 0.0, 0.0),),
        disturbance=DisturbanceSpec(kind="ramp_hold", rate=10.0, level=10.0, t_start=0.5),
        q0=(0.0,),
        duration=5.0, h=1e-3, dt_sub=1e-5,
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
        state = MstaState.zero(1)
        for k in range(steps):
            s[k] = sk
            u_vec, state = msta_explicit_step(np.array([sk]), state, g, h)
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
        cls = _PLANTS.get(d["plant"], (None, None))[1]
        if cls is None:
            raise ValueError(f"plant_params: plant {d['plant']!r} takes no parameters")
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
