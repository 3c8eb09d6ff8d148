"""The benchmark's workloads: seeded inputs, set-up, one timed pass, audit.

Every workload is built from the bundled presets plus a few overrides drawn
from the seed.  Seed 0 reproduces the preset values exactly; any other seed
scales the surface stiffness and the force command of each scenario by a
factor in [0.995, 1.005].  The perturbation is kept small on purpose: it varies
the inputs without moving the behaviour metrics (steady error, settle time)
far from their preset values, so their run-to-run spread stays inside the
benchmark's bounds.

Nothing here imports the package at module level: ``ensure_src`` must first
put the checkout's source on the import path.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERTURB = 0.005
CHUNK = 250   # controller steps per timed segment

# demos/05: the three pad stiffness levels come from the package, the
# commands are the demo's own
SWEEP_COMMANDS = (-1.5, -2.0, -2.5)


class MissingProgram(RuntimeError):
    """The checkout holds no package source to benchmark."""


def ensure_src() -> None:
    """Put the checkout's ``src`` first on the import path, and make sure the
    package imported from it is the one in this checkout."""
    if not (SRC / "nonsmooth_adm" / "__init__.py").is_file():
        raise MissingProgram(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nonsmooth_adm

    if Path(nonsmooth_adm.__file__).resolve().parent != SRC / "nonsmooth_adm":
        raise MissingProgram(f"nonsmooth_adm imported from {nonsmooth_adm.__file__}, not {SRC}")


def factors(seed: int, n: int) -> list[float]:
    if seed == 0:
        return [1.0] * n
    rng = random.Random(seed)
    return [1.0 + PERTURB * rng.uniform(-1.0, 1.0) for _ in range(n)]


# --------------------------------------------------------------------------- audit

def audit_rows(tau, tau_star, limits):
    """Per controller step, True when the applied torque passes the audit.

    Written without the package's own checkers:
    * box membership |tau_i| <= F_i, exact;
    * transparency: tau == tau_star bitwise when no joint's candidate is
      outside its limit;
    * on saturated steps the closed-form certificate of the box projection,
      sum |d_i| - d . (tau / F) <= tol with d = tau_star - tau, which is the
      maximum over the unit box of the variational-inequality residual.
    A NaN anywhere fails the box test.
    """
    tau = np.asarray(tau, dtype=float).reshape(len(tau), -1)
    tau_star = np.asarray(tau_star, dtype=float).reshape(tau.shape)
    limits = np.asarray(limits, dtype=float)
    box = np.all(np.abs(tau) <= limits, axis=1)
    inside = np.all(np.abs(tau_star) <= limits, axis=1)
    same = np.all(tau.view(np.int64) == tau_star.view(np.int64), axis=1)
    d = tau_star - tau
    ad = np.abs(d).sum(axis=1)
    cert = ad - (d * (tau / limits)).sum(axis=1)
    return box & np.where(inside, same, cert <= 1e-12 * (1.0 + ad))


def metrics_complete(m: dict) -> bool:
    """No metric of a proposed run is NaN (written as null) or infinite."""
    return all(v is not None and math.isfinite(v) for v in m.values())


def _reference_kernel() -> float:
    """Fixed work, independent of the package: small 2x2 solves, clips and
    Python arithmetic, the same mix as one controller step.  About 1 ms on an
    idle core."""
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    b = np.array([1.0, -2.0])
    lim = np.array([3.0, 4.0])
    x, acc = b, 0.0
    for i in range(100):
        x = np.clip(np.linalg.solve(a, x + b), -lim, lim)
        acc += math.sqrt(float(x @ x)) + {"i": i}["i"] * 1e-9
    return acc


def reference_s() -> float:
    """Time one run of the reference kernel.

    Other tenants of a shared machine slow everything on it by up to half,
    for seconds to minutes at a time, so raw times of the same code spread
    by 20-40 % between runs.  Timings are therefore reported in units of this
    kernel's time, sampled next to the work they divide: both slow down
    together, and their ratio stays within a few per cent.
    """
    t0 = perf_counter()
    _reference_kernel()
    return perf_counter() - t0


def smoothed(refs: list[float], half: int = 2) -> list[float]:
    """Running median of consecutive reference samples: one 1 ms sample is
    noisy, the machine's speed changes over seconds."""
    return [statistics.median(refs[max(0, i - half):i + half + 1]) for i in range(len(refs))]


class StepLog:
    """Controller outputs of the runs in flight (one list per thread), the
    runs finished in the current pass, every reference sample, and every
    ``admittance_step`` latency of the run, raw and in reference units.

    The reference kernel runs before every block of CHUNK controller steps,
    outside the block's timing."""

    def __init__(self) -> None:
        self.local = threading.local()
        self.done: list[dict] = []
        self.refs_s: list[float] = []
        self.ctrl_ns = array("q")
        self.ctrl_ref = array("d")

    def recording_step(self, fn, timed: bool):
        def step(state, meas, model, g):
            steps = self.local.steps
            ref = reference_s() if len(steps) % CHUNK == 0 else 0.0
            t0 = perf_counter_ns()
            out = fn(state, meas, model, g)
            t1 = perf_counter_ns()
            steps.append((out[0], out[2].tau_star, t1 - t0 if timed else 0, t0, ref))
            return out

        return step

    def recording_run(self, fn, errors: tuple):
        def run(sc, *args, **kwargs):
            steps: list = []
            self.local.steps = steps
            entry = {"sc": sc, "steps": steps, "error": None}
            try:
                trace = fn(sc, *args, **kwargs)
            except errors as exc:
                entry["error"] = repr(exc)
                raise
            finally:
                entry["end"] = perf_counter_ns()
                self.local.steps = None
                self.done.append(entry)
            return trace

        return run

    def audit_done(self) -> dict:
        """Audit every finished run; keyed by (name, k_s, fd_y).

        Also sets ``blocks``: per finished run, in order, (raw seconds,
        reference units) of each block of CHUNK controller steps, from the
        start of its first call to the start of the next block, less the
        reference sample taken in between; and ``ref_spent``, the reference
        time spent inside each run."""
        out = {}
        self.blocks, self.ref_spent = [], []
        for e in self.done:
            steps = e["steps"]
            heads = steps[::CHUNK]
            samples = [st[4] for st in heads]
            starts = [st[3] for st in heads] + [e["end"]]
            raw = [(b - a) / 1e9 - r
                   for a, b, r in zip(starts, starts[1:], samples[1:] + [0.0])]
            refs = smoothed(samples)
            self.blocks.append([(w, w / r) for w, r in zip(raw, refs)])
            self.refs_s += samples
            self.ref_spent.append(sum(samples))
            sc = e["sc"]
            ok = e["error"] is None and bool(steps)
            if ok:
                tau = np.array([st[0] for st in steps])
                tau_star = np.array([st[1] for st in steps])
                ok = bool(np.all(audit_rows(tau, tau_star, sc.controller.torque_limits)))
            if ok and sc.controller.kind == "proposed":
                lat = [st[2] for st in steps]
                self.ctrl_ns.extend(lat)
                self.ctrl_ref.extend(t / 1e9 / refs[k // CHUNK] for k, t in enumerate(lat))
            key = (sc.name, sc.env.k_s, sc.fd_schedule[-1][2])
            out[key] = {"ok": ok, "error": e["error"], "kind": sc.controller.kind}
        self.done = []
        return out


class PassResult:
    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.ok = 0
        self.problems: list[str] = []
        self.behaviour: dict | None = None   # steady_force_err, settle_time_s, rebound_count

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def _behaviour(proposed_metrics: list[dict]) -> dict:
    """Means, not maxima: settle time jumps with the inputs (one sweep cell
    goes from 0.29 s to 0.53 s for 2 seeds in 10), and a max would carry
    that jump whole into the metric."""
    n = len(proposed_metrics)
    return {
        "steady_force_err": sum(m["steady_force_err"] for m in proposed_metrics) / n,
        "settle_time_s": sum(m["settle_time"] for m in proposed_metrics) / n,
        "rebound_count": sum(m["rebound_count"] for m in proposed_metrics),
    }


# --------------------------------------------------------------------------- workloads

class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.log = StepLog()
        self.cli_import_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def setup(self) -> None:
        """Imports, scenarios and gains, one warm-up call (timed as set-up)."""

    def generate(self) -> None:
        """The benchmark's own input generation (not part of set-up)."""

    def install(self) -> None:
        """Put the audit's recorders in place (after set-up)."""

    def run_pass(self) -> None:
        """One timed pass.  After ``finish_pass``, ``segments`` holds each
        piece of work of the pass as (wall seconds, reference units)."""
        raise NotImplementedError

    def finish_pass(self) -> PassResult:
        raise NotImplementedError

    def trace_points(self, tracer) -> None:
        """Workload-specific spans on top of the common layer points."""

    def _timed_call(self, fn, *args):
        """Call ``fn`` after a reference sample; remember its wall time."""
        ref = reference_s()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.calls.append((perf_counter() - t0, len(self.log.done), ref))

    def _call_segments(self) -> None:
        """Segments of a pass made of calls that run scenarios: per call, its
        time outside its runs' step blocks and reference samples, then every
        step block of its runs."""
        log = self.log
        self.segments, first = [], 0
        for wall, last, ref in self.calls:
            blocks = [b for run in log.blocks[first:last] for b in run]
            rest = wall - sum(b[0] for b in blocks) - sum(log.ref_spent[first:last])
            self.segments += [(rest, rest / ref)] + blocks
            log.refs_s.append(ref)
            first = last

    def _patch(self, namespace, attr: str, value) -> None:
        self._restore.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)


class Replay2Dof(Workload):
    name = "replay_2dof"

    def setup(self) -> None:
        from nonsmooth_adm import admittance, msta, setvalued, sim

        self.adm, self.sim = admittance, sim
        sc = copy.deepcopy(sim.presets()["fig5_two_dof"])
        sc.controller.us_mode = "implicit-vector"
        f_ks, f_fd = factors(self.seed, 2)
        sim.apply_override(sc, "env.k_s", sc.env.k_s * f_ks)
        sim.apply_override(sc, "fd_y", sc.fd_schedule[-1][2] * f_fd)
        self.scenario = sc
        c = sc.controller
        gains = msta.MstaGains(k2=c.k2, k3=c.k3, k4=c.k4, gamma1=c.gamma1, mu=c.mu,
                               fp_tol=c.fp_tol, fp_max_iter=c.fp_max_iter)
        self.gains = admittance.AdmittanceGains(
            mx=np.diag(c.mx), bx=np.diag(c.bx), lam=c.lam, k1=c.k1, msta=gains,
            box=setvalued.BoxConstraint(list(c.torque_limits)), h=sc.h,
            us_mode=c.us_mode, us_coupling=c.us_coupling)
        self.estimate = admittance.ModelEstimate.constant(
            sc.estimate.mass_diag, sc.estimate.coriolis_diag, dof=len(c.torque_limits))
        q0 = np.asarray(sc.q0, dtype=float)
        zero = np.zeros(q0.size)
        admittance.admittance_step(admittance.initial_state(q0),
                                   admittance.Measurement(q0, zero, zero),
                                   self.estimate, self.gains)
        self.step = admittance.admittance_step

    def generate(self) -> None:
        """Record one closed-loop run: every measurement and applied torque."""
        sim = self.sim
        original = sim.admittance_step
        recorded = []

        def record(state, meas, model, g):
            out = original(state, meas, model, g)
            recorded.append((meas, out[0]))
            return out

        sim.admittance_step = record
        try:
            trace = sim.run_scenario(self.scenario)
        finally:
            sim.admittance_step = original
        self.recorded = recorded
        self.behaviour = _behaviour([sim.metrics_to_dict(
            sim.compute_metrics(trace, self.scenario))])
        self.q0 = recorded[0][0].q.copy()
        meas = [r[0] for r in recorded]
        self.blocks = [meas[i:i + CHUNK] for i in range(0, len(meas), CHUNK)]

    def run_pass(self) -> None:
        from nonsmooth_adm.msta import SolverConvergenceError

        step, est, g = self.step, self.estimate, self.gains
        initial_state = self.adm.initial_state
        self.lat = lat = []
        self.outputs = outputs = []
        self.timed = timed = []
        self.error = None
        try:
            for _ in range(2):
                state = initial_state(self.q0)
                for block in self.blocks:
                    ref = reference_s()
                    c0 = perf_counter()
                    for meas in block:
                        t0 = perf_counter_ns()
                        tau, state, diag = step(state, meas, est, g)
                        lat.append(perf_counter_ns() - t0)
                        outputs.append((tau, diag.tau_star))
                    timed.append((perf_counter() - c0, ref))
        except (SolverConvergenceError, ValueError) as exc:
            self.error = repr(exc)

    def finish_pass(self) -> PassResult:
        res = PassResult(2 * len(self.recorded))
        n = len(self.outputs)
        if n:
            tau = np.array([o[0] for o in self.outputs])
            tau_star = np.array([o[1] for o in self.outputs])
            ok = audit_rows(tau, tau_star, self.scenario.controller.torque_limits)
            rec = np.array([r[1] for r in self.recorded] * 2)[:n]
            ok &= np.all(tau.view(np.int64) == rec.view(np.int64), axis=1)
            res.ok = int(ok.sum())
            if ok.all() and n == res.attempted:
                log = self.log
                log.refs_s += [r for _, r in self.timed]
                refs = smoothed([r for _, r in self.timed])
                log.ctrl_ns.extend(self.lat)
                log.ctrl_ref.extend(t / 1e9 / refs[k // CHUNK] for k, t in enumerate(self.lat))
            else:
                res.problems.append(f"{int((~ok).sum())} replayed steps failed the audit "
                                    "or differ from the recorded torques")
        if self.error:
            res.problems.append(self.error)
        if not metrics_complete(self.behaviour):
            res.ok = 0
            res.problems.append("recorded run has undefined metrics")
        res.behaviour = dict(self.behaviour)
        refs = smoothed([r for _, r in self.timed])
        self.segments = [(w, w / r) for (w, _), r in zip(self.timed, refs)]
        return res

    def trace_points(self, tracer) -> None:
        name = "admittance.admittance_step"
        self.step = tracer.wrap(self.step, name, HOOKS[name])


class ImpactCompare(Workload):
    name = "impact_compare"

    CASES = ("fig3_one_dof", "fig5_two_dof")

    def setup(self) -> None:
        t0 = perf_counter()
        from nonsmooth_adm import cli

        self.cli_import_s = perf_counter() - t0
        self.main = cli.main
        bundled = cli.presets()
        fs = factors(self.seed, 2 * len(self.CASES))
        self.argv = []
        for i, name in enumerate(self.CASES):
            sc = bundled[name]
            ks = sc.env.k_s * fs[2 * i]
            fd = sc.fd_schedule[-1][2] * fs[2 * i + 1]
            out = self.workdir / name
            self.argv.append(["compare", "--scenario", name,
                              "--set", f"env.ks_N_per_m={ks!r}", "--set", f"fd_y={fd!r}",
                              "--out", str(out), "--plot"])
        last = bundled[self.CASES[-1]]
        self.plot_src = self.workdir / self.CASES[-1] / "proposed_trace.csv"
        self.plot_out = self.workdir / "replot"
        self.plot_argv = ["plot", "--scenario", str(self.plot_src), "--out", str(self.plot_out),
                          "--limits", ",".join(repr(x) for x in last.controller.torque_limits)]
        warm = self.workdir / "warmup"
        with _quiet():
            rc = cli.main(["run", "--scenario", self.CASES[0], "--set", "duration_s=0.05",
                           "--out", str(warm), "--plot"])
        shutil.rmtree(warm, ignore_errors=True)
        if rc != 0:
            raise RuntimeError(f"warm-up run exited with {rc}")

    def install(self) -> None:
        from nonsmooth_adm import cli, sim
        from nonsmooth_adm.msta import SolverConvergenceError
        from nonsmooth_adm.plant import SimulationBlowUp

        errors = (SimulationBlowUp, SolverConvergenceError)
        self._patch(cli, "run_scenario", self.log.recording_run(cli.run_scenario, errors))
        self._patch(sim, "admittance_step",
                    self.log.recording_step(sim.admittance_step, timed=True))
        self._patch(sim, "baseline_naive_step",
                    self.log.recording_step(sim.baseline_naive_step, timed=False))
        self.first = None

    def run_pass(self) -> None:
        self.rcs, self.calls = [], []
        with _quiet():
            for argv in self.argv + [self.plot_argv]:
                self.rcs.append(self._timed_call(self.main, argv))

    def finish_pass(self) -> PassResult:
        res = PassResult(2 * len(self.CASES) + 1)
        runs = self.log.audit_done()
        self._call_segments()
        proposed = []
        for name, argv, rc in zip(self.CASES, self.argv, self.rcs):
            path = Path(argv[argv.index("--out") + 1]) / "metrics_compare.json"
            m = json.loads(path.read_text()) if rc == 0 and path.is_file() else None
            for key, r in runs.items():
                if key[0] not in (name, name + "_naive"):
                    continue
                good = r["ok"]
                if r["kind"] == "proposed":
                    good = good and m is not None and metrics_complete(m["proposed"])
                    if good:
                        proposed.append(m["proposed"])
                res.ok += good
                if not good:
                    res.problems.append(f"{key[0]}: {r['error'] or 'audit failed'}")
        svgs = [self.plot_out / f for f in ("position.svg", "force.svg", "torque.svg")]
        if self.rcs[-1] == 0 and all(p.is_file() and p.stat().st_size for p in svgs):
            res.ok += 1
        else:
            res.problems.append(f"plot exited with {self.rcs[-1]}")
        if len(proposed) == len(self.CASES):
            res.behaviour = _behaviour(proposed)
        return _same_every_pass(self, res)

    def trace_points(self, tracer) -> None:
        from nonsmooth_adm import cli

        for attr in ("run_scenario", "compute_metrics", "trace_to_csv", "trace_from_csv",
                     "save_scenario", "metrics_to_dict", "naive_variant", "presets",
                     "apply_override"):
            tracer.patch(cli, attr, f"sim.{attr}", HOOKS.get(f"sim.{attr}"))
        for attr in ("trace_panels", "compare_panels"):
            tracer.patch(cli, attr, f"plotting.{attr}")
        self.main = tracer.wrap(self.main, "cli.main")


class SweepMap(Workload):
    name = "sweep_map"

    def setup(self) -> None:
        from nonsmooth_adm import sim

        self.sim = sim
        self.sweep = sim.sweep
        base = sim.presets()["linmotor_steps"]
        levels = sim.LINMOTOR_STIFFNESS_LEVELS
        fs = factors(self.seed, len(levels) + len(SWEEP_COMMANDS))
        self.templates = []
        for ks, f in zip(levels, fs):
            sc = copy.deepcopy(base)
            sim.apply_override(sc, "env.k_s", ks * f)
            self.templates.append(sc)
        self.commands = [c * f for c, f in zip(SWEEP_COMMANDS, fs[len(levels):])]
        warm = copy.deepcopy(self.templates[0])
        warm.duration = 0.6
        sim.compute_metrics(sim.run_scenario(warm), warm)

    def install(self) -> None:
        from nonsmooth_adm import sim
        from nonsmooth_adm.msta import SolverConvergenceError
        from nonsmooth_adm.plant import SimulationBlowUp

        self.errors = (SimulationBlowUp, SolverConvergenceError)
        self._patch(sim, "run_scenario", self.log.recording_run(sim.run_scenario, self.errors))
        self._patch(sim, "admittance_step",
                    self.log.recording_step(sim.admittance_step, timed=True))
        self.first = None

    def run_pass(self) -> None:
        self.rows, self.calls = [], []
        self.error = None
        for tmpl in self.templates:
            try:
                rows = self._timed_call(self.sweep, tmpl, "fd_y", self.commands)
                self.rows.append((tmpl.env.k_s, rows))
            except self.errors as exc:
                self.error = repr(exc)

    def finish_pass(self) -> PassResult:
        res = PassResult(len(self.templates) * len(self.commands))
        runs = self.log.audit_done()
        self._call_segments()
        proposed = []
        name = self.templates[0].name
        for ks, rows in self.rows:
            for fd, m in rows:
                m = self.sim.metrics_to_dict(m)
                r = runs.get((name, ks, fd))
                if r is not None and r["ok"] and metrics_complete(m):
                    res.ok += 1
                    proposed.append(m)
                else:
                    res.problems.append(f"k_s={ks} fd={fd}: audit failed or metrics undefined")
        if self.error:
            res.problems.append(self.error)
        if res.ok == res.attempted:
            res.behaviour = _behaviour(proposed)
        return _same_every_pass(self, res)

    def trace_points(self, tracer) -> None:
        self.sweep = tracer.wrap(self.sweep, "sim.sweep")


def _same_every_pass(wl: Workload, res: PassResult) -> PassResult:
    """Identical inputs must give identical outputs on every pass."""
    if wl.first is None:
        wl.first = res.behaviour
    elif res.behaviour != wl.first:
        res.problems.append("outputs differ from the first pass")
        res.ok = 0
    return res


@contextlib.contextmanager
def _quiet():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


# --------------------------------------------------------------------------- trace points

def _hook_saturation(tracer, args, out) -> None:
    tracer.count("admittance.saturated", bool(out[2].saturated.any()))


def _solve(tracer, iterations: int) -> None:
    tracer.count("msta.solves")
    tracer.count("msta.fp_iters", iterations)
    tracer.maximum("msta.fp_iters_max", iterations)
    tracer.count("msta.closed_form", iterations == 1)


# counts taken at a span's boundary, keyed by span name
HOOKS = {
    "admittance.admittance_step": _hook_saturation,
    "plant.integrate_substep": lambda tr, args, out: tr.count("plant.substeps", args[7]),
    "sim.run_scenario": lambda tr, args, trace: tr.count("sim.steps", trace.t.size),
    "sim.trace_to_csv": lambda tr, args, text: tr.count("sim.trace_bytes", len(text)),
    "msta.sta_scalar_implicit_step": lambda tr, args, out: _solve(tr, 1),
    "msta.solve_shat_vector": lambda tr, args, diag: _solve(tr, diag.iterations),
    "msta.msta_implicit_decoupled_step": lambda tr, args, out: _solve(tr, out[2].iterations),
    "setvalued.variational_residual":
        lambda tr, args, out: tr.count("setvalued.vi_probes", len(args[3])),
    "plotting.line_chart": lambda tr, args, svg: tr.count("plotting.svg_bytes", len(svg)),
}

# (module, attribute, span name) for every layer boundary the package itself
# crosses; each is patched in the module that calls it
LAYER_POINTS = (
    ("sim", "admittance_step", "admittance.admittance_step"),
    ("sim", "baseline_naive_step", "admittance.baseline_naive_step"),
    ("sim", "integrate_substep", "plant.integrate_substep"),
    ("sim", "contact_wrench", "plant.contact_wrench"),
    ("sim", "build_model", "plant.build_model"),
    ("sim", "run_scenario", "sim.run_scenario"),
    ("sim", "compute_metrics", "sim.compute_metrics"),
    ("admittance", "proxy_predict", "admittance.proxy_predict"),
    ("admittance", "inner_loop_candidate", "admittance.inner_loop_candidate"),
    ("admittance", "msta_explicit_step", "msta.msta_explicit_step"),
    ("admittance", "sta_scalar_implicit_step", "msta.sta_scalar_implicit_step"),
    ("admittance", "solve_shat_vector", "msta.solve_shat_vector"),
    ("admittance", "msta_implicit_decoupled_step", "msta.msta_implicit_decoupled_step"),
    ("admittance", "project_box", "setvalued.project_box"),
    ("admittance", "variational_residual", "setvalued.variational_residual"),
    ("plotting", "line_chart", "plotting.line_chart"),
)


def install_trace_points(tracer, wl: Workload) -> None:
    import importlib

    for module, attr, name in LAYER_POINTS:
        tracer.patch(importlib.import_module(f"nonsmooth_adm.{module}"), attr, name,
                     HOOKS.get(name))
    wl.trace_points(tracer)


WORKLOADS = {w.name: w for w in (Replay2Dof, ImpactCompare, SweepMap)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
