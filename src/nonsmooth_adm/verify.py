"""Independent reference implementations and the runtime verification suite.

The references here deliberately re-derive their results along different
routes than the library code (bisection for the scalar implicit step, the
residual of the defining inclusion for the vector step, a single flat
evaluation for the full controller period) so each pair of implementations
cross-checks the other.
``run_verification`` executes grouped invariant checks and is what the
``verify`` CLI command calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import (
    AdmittanceGains,
    AdmittanceState,
    Measurement,
    ModelEstimate,
    admittance_step,
    initial_state,
)
from .msta import (
    MstaGains,
    msta_error_recursion_step,
    msta_implicit_step,
    norm_quad_value,
    solve_shat_vector,
    sta_scalar_implicit_step,
)
from .plant import EnvironmentModel, OneDofParams, contact_wrench, one_dof_model, two_link_model
from .setvalued import BoxConstraint, project_box, variational_residual

__all__ = [
    "CheckResult",
    "sta_bisection_reference",
    "admittance_reference",
    "GROUPS",
    "run_verification",
]


# ------------------------------------------------------------------ references

def sta_bisection_reference(s: float, k2: float, k3: float, h: float,
                            v: float) -> tuple[float, float, float, float]:
    """Scalar implicit step computed from the defining inclusion (beta = 1).

    The nominal magnitude r solves r + h*k2*sqrt(r) + h^2*k3 = |s| by
    bisection; the selections follow from the inclusion branches.
    """
    band = h * h * k3
    if abs(s) <= band:
        r = 0.0
        sel = s / band
    else:
        lo, hi = 0.0, abs(s)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + h * k2 * math.sqrt(mid) + band > abs(s):
                hi = mid
            else:
                lo = mid
        r = 0.5 * (lo + hi)
        sel = 1.0 if s > 0 else -1.0
    phi2 = sel
    sgn = (s > 0) - (s < 0)
    phi1 = sgn * ((h * k3 / k2) * min(1.0, abs(s) / band) + math.sqrt(r))
    v_next = v + h * k3 * phi2
    u = k2 * phi1 + v_next
    return u, v_next, phi1, phi2


def admittance_reference(qx_prev, qxd_prev, ux_prev, q_prev, qe_prev, v_prev,
                         q, fc, fd, mx, bx, lam, k1, mhat, chat, ghat, limits, h,
                         us_mode="scalar-implicit", k2=11.6, k3=66.0,
                         gamma1=None) -> dict:
    """Flat single-pass evaluation of one controller period.

    Independent of the admittance module: explicit matrix inverses, inline
    robust-term formulas, entrywise clamping.  Constant estimate matrices
    mhat / chat and a constant gravity vector ghat are assumed.
    """
    n = len(q)
    eye = np.eye(n)
    inv = np.linalg.inv

    ux_star = inv(mx + bx * h) @ (mx @ qxd_prev + h * (fc + fd))
    qx_star = qx_prev + h * ux_star
    qe = qx_star - q
    qed = (qe - qe_prev) / h
    s = qed + lam * qe

    if us_mode == "scalar-implicit":
        beta = 1.0 + h * ((k1 + chat[0, 0]) / mhat[0, 0]) if not isinstance(k1, str) \
            else 1.0 + h * gamma1
        beta = max(1.0, beta)
        band = h * h * k3
        sv = float(s[0])
        p2 = min(1.0, max(-1.0, sv / band))
        sgn = (sv > 0) - (sv < 0)
        p1 = sgn * ((h * k3 / k2) * min(1.0, abs(sv) / band) - h * k2 / (2 * beta)
                    + math.sqrt(h * h * k2 * k2 + 4.0 * max(0.0, abs(sv) - band)) / (2 * beta))
        v_next = v_prev + np.array([h * k3 * p2])
        u_s = np.array([k2 * p1]) + v_next
    elif us_mode == "explicit":
        ns = float(np.linalg.norm(s))
        if ns > 0.0:
            u_half = k2 * s / math.sqrt(ns)
            v_next = v_prev + h * k3 * s / ns
        else:
            u_half = np.zeros(n)
            v_next = v_prev.copy()
        u_s = v_prev + u_half
    else:
        raise ValueError("reference supports scalar-implicit and explicit modes")

    k1m = (-chat + gamma1 * mhat) if isinstance(k1, str) else k1 * eye
    B = mhat * lam + k1m
    K = (chat + k1m) * lam
    Bhat = B + chat
    Khat = Bhat / h + K
    W = mhat / (h * h) + Khat
    phi_a = ((mhat + chat * h) @ q + h * (B @ q_prev)) / (h * h) + ghat + u_s
    phi_b = (mhat @ (qx_prev + h * ux_prev)) / (h * h) + (Bhat @ qx_prev) / h
    q1_star = q + inv(W) @ (phi_b - phi_a)
    tau_star = W @ (qx_star - q1_star)
    tau = np.array([max(-limits[i], min(limits[i], tau_star[i])) for i in range(n)])
    qx = inv(W) @ tau + q1_star
    qxd = (qx - qx_prev) / h
    return {"ux_star": ux_star, "qx_star": qx_star, "qe": qe, "s": s, "u_s": u_s,
            "v_next": v_next, "q1_star": q1_star, "tau_star": tau_star, "tau": tau,
            "qx": qx, "qxd": qxd}


# ------------------------------------------------------------------ check harness

@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


def _check(group: str, name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(group, name, value <= bound, f"{value:.3e} <= {bound:.3e}")


def _group_projection() -> list[CheckResult]:
    rng = np.random.default_rng(12)
    out = []
    worst_idem = worst_nonexp = worst_vi = 0.0
    for _ in range(300):
        n = int(rng.choice([1, 2]))
        box = BoxConstraint(rng.uniform(0.5, 5.0, size=n))
        y = rng.normal(scale=5.0, size=n)
        p = project_box(y, box)
        worst_idem = max(worst_idem, float(np.linalg.norm(project_box(p, box) - p)))
        y2 = rng.normal(scale=5.0, size=n)
        p2 = project_box(y2, box)
        worst_nonexp = max(worst_nonexp, float(np.linalg.norm(p - p2) - np.linalg.norm(y - y2)))
        worst_vi = max(worst_vi, variational_residual(y, p, box))
    out.append(_check("projection", "idempotent", worst_idem, 1e-15))
    out.append(_check("projection", "non-expansive", worst_nonexp, 1e-12))
    out.append(_check("projection", "variational-inequality", worst_vi, 1e-12))
    return out


def _group_sta_scalar() -> list[CheckResult]:
    rng = np.random.default_rng(13)
    out = []
    worst = 0.0
    for _ in range(300):
        k2 = rng.uniform(0.5, 30.0)
        k3 = rng.uniform(1.0, 300.0)
        h = 10.0 ** rng.uniform(-4, -2)
        s = float(rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5))
        v = float(rng.uniform(-5, 5))
        g = MstaGains(k2=k2, k3=k3)
        got = sta_scalar_implicit_step(s, g, 1.0, h, v)
        ref = sta_bisection_reference(s, k2, k3, h, v)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)))
    out.append(_check("sta-scalar", "bisection-oracle", worst, 1e-10))

    g = MstaGains(k2=1.0, k3=1.0)
    u, vn, p1, p2 = sta_scalar_implicit_step(5e-5, g, 1.0, 0.01, 0.0)
    branch = max(abs(p2 - 0.5), abs(p1 - 0.005))
    out.append(_check("sta-scalar", "sliding-branch", branch, 1e-15))

    worst = 0.0
    for _ in range(200):
        s = float(rng.normal(scale=10.0 ** rng.uniform(-6, 1)))
        _, _, p1, p2 = sta_scalar_implicit_step(s, g, float(rng.uniform(1, 3)), 0.001, 0.0)
        worst = max(worst, abs(p2) - 1.0, -np.sign(p1) * np.sign(s))
    out.append(_check("sta-scalar", "selection-bounds", worst, 1e-12))
    return out


def _group_msta_vector() -> list[CheckResult]:
    rng = np.random.default_rng(14)
    out = []
    worst = 0.0
    for _ in range(300):
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200), gamma1=0.0)
        h = 10.0 ** rng.uniform(-3.5, -2)
        m = rng.uniform(0.1, 5.0)
        s = np.array([rng.uniform(-2, 2) * 10.0 ** rng.uniform(-6, 0.5)])
        v = np.array([rng.uniform(-3, 3)])
        u_vec, v_vec, diag = msta_implicit_step(s, np.array([[m]]), np.array([[0.0]]), g, h, v)
        u_sc, v_sc, _, _ = sta_scalar_implicit_step(float(s[0]), g, 1.0, h, float(v[0]))
        worst = max(worst, abs(float(u_vec[0]) - u_sc), abs(float(v_vec[0]) - v_sc))
    out.append(_check("msta-vector", "n1-matches-scalar", worst, 1e-8))

    # s inside and outside the band: G x + h*gamma(x)*m2 = s, relative to
    # ||s||, and m2 - alpha2*x in the subdifferential of ||.|| at x, for a
    # non-symmetric G = S + K (S symmetric positive definite, K skew) and for
    # G = beta*I with beta = 1 + h*gamma1 (the structured gain of
    # msta_implicit_step), whose u and v+ must also be gamma(x)*m2 + v+ and
    # v + h*k3*m2
    worst = 0.0
    for k in range(400):
        radial = k % 2 == 1
        n = 1 + k // 2 % 2 if radial else 2      # the robust term takes one or two entries
        g = MstaGains(k2=rng.uniform(1, 20), k3=rng.uniform(5, 200),
                      k4=rng.uniform(0.1 if radial else 0.0, 5), gamma1=rng.uniform(0, 50))
        h = 10.0 ** rng.uniform(-3.5, -2)
        s = rng.normal(size=n)
        s *= h * h * g.k3 * (rng.uniform() if k % 8 < 2 else 1.0 + 10.0 ** rng.uniform(-6, 4)) \
            / np.linalg.norm(s)
        if radial:
            v = rng.normal(size=n)
            R = rng.normal(size=(n, n))
            u, v_plus, d = msta_implicit_step(s, R @ R.T + np.eye(n), rng.normal(size=(n, n)),
                                              g, h, v)
            G = (1.0 + h * g.gamma1) * np.eye(n)
        else:
            R, K = rng.normal(size=(n, n)), rng.normal(scale=rng.uniform(0.0, 3.0), size=(n, n))
            G = R @ R.T + rng.uniform(0.05, 2.0) * np.eye(n) + K - K.T
            d = solve_shat_vector(s, G, np.eye(n), g, h)
        gamma = g.k2 * math.sqrt(np.linalg.norm(d.shat)) + h * g.k3
        inclusion = np.linalg.norm(G @ d.shat + h * gamma * d.m2 - s) / (1.0 + np.linalg.norm(s))
        worst = max(worst, float(inclusion), _subdifferential_gap(d.shat, d.m2, g.alpha2))
        if radial:
            v_next = v + h * g.k3 * d.m2
            worst = max(worst, float(np.linalg.norm(v_plus - v_next)),
                        float(np.linalg.norm(u - (gamma * d.m2 + v_next))))
    out.append(_check("msta-vector", "general-G-inclusion", worst, 1e-9))
    return out


def _subdifferential_gap(x: np.ndarray, m2: np.ndarray, alpha2: float) -> float:
    """How far m2 - alpha2*x lies from the subdifferential of ||.|| at x: the
    unit ball at x = 0, the unit vector x/||x|| elsewhere."""
    ball, nx = m2 - alpha2 * x, float(np.linalg.norm(x))
    return float(np.linalg.norm(ball)) - 1.0 if nx == 0.0 else float(np.linalg.norm(ball - x / nx))


def _group_lyapunov() -> list[CheckResult]:
    rng = np.random.default_rng(15)
    worst = -math.inf
    for _ in range(20):
        n = int(rng.choice([1, 2]))
        g = MstaGains(k2=rng.uniform(1, 15), k3=rng.uniform(5, 100),
                      k4=rng.uniform(0, 2), gamma1=rng.uniform(0, 20))
        h = 1e-3
        s1 = rng.normal(scale=2.0, size=n)
        s2 = rng.normal(scale=2.0, size=n)
        v_prev = None
        for _ in range(400):
            s1, s2, shat, _, _ = msta_error_recursion_step(s1, s2, g, h)
            v = g.k3 * norm_quad_value(shat, g.alpha2) + 0.5 * float(s2 @ s2)
            if v_prev is not None:
                worst = max(worst, v - v_prev)
            v_prev = v
    return [_check("lyapunov", "nominal-decrease", worst, 1e-12)]


def _group_band() -> list[CheckResult]:
    g = MstaGains(k2=11.6, k3=66.0)
    h, delta3 = 1e-3, 10.0
    s1 = np.array([0.5])
    s2 = np.array([0.0])
    worst = 0.0
    for k in range(5000):
        delta = delta3 * math.sin(2.0 * math.pi * 1.0 * k * h)
        s1, s2, _, _, _ = msta_error_recursion_step(s1, s2, g, h, delta)
        if k * h > 1.0:
            worst = max(worst, float(np.linalg.norm(s1)))
    return [_check("band", "steady-band-2h2d3", worst, 2.0 * h * h * delta3)]


def _fig3_like_gains(h: float = 1e-3) -> AdmittanceGains:
    return AdmittanceGains(mx=np.array([[0.3]]), bx=np.array([[2.0]]), lam=10.0, k1=30.0,
                           msta=MstaGains(k2=11.6, k3=66.0), box=BoxConstraint([3.0]),
                           h=h, us_mode="scalar-implicit")


def _group_admittance() -> list[CheckResult]:
    rng = np.random.default_rng(16)
    out = []
    g = _fig3_like_gains()
    est = ModelEstimate.constant((0.1,), (0.0,))
    state = initial_state(np.zeros(1))
    tau, state2, diag = admittance_step(state, Measurement([0.0], [0.0], [0.0]), est, g)
    fixed = max(float(np.abs(tau).max()),
                float(np.abs(state2.qx_prev).max()),
                float(np.abs(state2.qxd_prev).max()))
    # off the origin the fixed point holds to roundoff of the 1/h^2 scale
    state = initial_state(np.array([0.2]))
    tau, state2, _ = admittance_step(state, Measurement([0.2], [0.0], [0.0]), est, g)
    fixed = max(fixed, 1e-3 * float(np.abs(tau).max()),
                float(np.abs(state2.qx_prev - 0.2).max()))
    out.append(_check("admittance", "zero-dynamics-fixed-point", fixed, 1e-12))

    worst_ref = worst_trans = worst_bound = worst_vi = 0.0
    for _ in range(50):
        h = 1e-3
        mhat = np.array([[rng.uniform(0.05, 0.5)]])
        chat = np.array([[rng.uniform(0.0, 2.0)]])
        gg = AdmittanceGains(mx=np.array([[rng.uniform(0.1, 1.0)]]),
                             bx=np.array([[rng.uniform(0.5, 5.0)]]),
                             lam=rng.uniform(1.0, 50.0), k1=rng.uniform(5.0, 80.0),
                             msta=MstaGains(k2=rng.uniform(2, 20), k3=rng.uniform(10, 200)),
                             box=BoxConstraint([rng.uniform(1.0, 6.0)]), h=h,
                             us_mode="scalar-implicit")
        est_i = ModelEstimate(lambda q, M=mhat: M, lambda q, qd, C=chat: C,
                              lambda q: np.zeros(1))
        st = AdmittanceState(rng.normal(size=1) * 0.3, rng.normal(size=1), rng.normal(size=1),
                             rng.normal(size=1) * 0.3, rng.normal(size=1) * 0.01,
                             rng.normal(size=1))
        meas = Measurement(rng.normal(size=1) * 0.3, rng.normal(size=1) * 4.0,
                           rng.normal(size=1) * 2.0)
        tau, st2, diag = admittance_step(st, meas, est_i, gg)
        ref = admittance_reference(st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev,
                                   st.v_prev, meas.q, meas.fc, meas.fd, gg.mx, gg.bx,
                                   gg.lam, gg.k1, mhat, chat, np.zeros(1),
                                   gg.box.limits, h, "scalar-implicit",
                                   gg.msta.k2, gg.msta.k3)
        scale = 1.0 + float(np.abs(ref["tau_star"]).max())
        worst_ref = max(worst_ref,
                        float(np.abs(tau - ref["tau"]).max()) / scale,
                        float(np.abs(st2.qx_prev - ref["qx"]).max()),
                        float(np.abs(diag.s - ref["s"]).max()) / (1 + float(np.abs(ref["s"]).max())))
        if not diag.saturated.any():
            worst_trans = max(worst_trans, float(np.abs(st2.qx_prev - diag.qx_star).max()))
        worst_bound = max(worst_bound, float((np.abs(tau) - gg.box.limits).max()))
        worst_vi = max(worst_vi, diag.lambda_vi_residual)
    # the coupled two-joint step: explicit inner loop, a random non-diagonal
    # SPD inertia estimate and a full Coriolis estimate, so that every loop
    # matrix is full and each solve eliminates
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        mhat = a @ a.T + 0.1 * np.eye(2)
        chat = rng.normal(size=(2, 2)) * 5.0
        gg = AdmittanceGains(mx=np.diag(rng.uniform(0.1, 1.0, 2)),
                             bx=np.diag(rng.uniform(0.5, 5.0, 2)), lam=rng.uniform(1.0, 50.0),
                             k1=rng.uniform(5.0, 80.0),
                             msta=MstaGains(k2=rng.uniform(2, 20), k3=rng.uniform(10, 200)),
                             box=BoxConstraint(rng.uniform(1.0, 6.0, 2)), h=1e-3,
                             us_mode="explicit")
        est_i = ModelEstimate(lambda q, M=mhat: M, lambda q, qd, C=chat: C,
                              lambda q: np.zeros(2))
        st = AdmittanceState(rng.normal(size=2) * 0.3, rng.normal(size=2), rng.normal(size=2),
                             rng.normal(size=2) * 0.3, rng.normal(size=2) * 0.01,
                             rng.normal(size=2))
        meas = Measurement(rng.normal(size=2) * 0.3, rng.normal(size=2) * 4.0,
                           rng.normal(size=2) * 2.0)
        tau, st2, diag = admittance_step(st, meas, est_i, gg)
        ref = admittance_reference(st.qx_prev, st.qxd_prev, st.ux_prev, st.q_prev, st.qe_prev,
                                   st.v_prev, meas.q, meas.fc, meas.fd, gg.mx, gg.bx,
                                   gg.lam, gg.k1, mhat, chat, np.zeros(2),
                                   gg.box.limits, gg.h, "explicit", gg.msta.k2, gg.msta.k3)
        scale = 1.0 + float(np.abs(ref["tau_star"]).max())
        worst_ref = max(worst_ref,
                        float(np.abs(tau - ref["tau"]).max()) / scale,
                        float(np.abs(diag.tau_star - ref["tau_star"]).max()) / scale,
                        float(np.abs(st2.qx_prev - ref["qx"]).max()),
                        float(np.abs(diag.u_s - ref["u_s"]).max())
                        / (1 + float(np.abs(ref["u_s"]).max())))
        worst_bound = max(worst_bound, float((np.abs(tau) - gg.box.limits).max()))
        worst_vi = max(worst_vi, diag.lambda_vi_residual)
    out.append(_check("admittance", "straight-line-reference", worst_ref, 1e-12))
    out.append(_check("admittance", "unsaturated-transparency", worst_trans, 1e-10))
    out.append(_check("admittance", "torque-hard-bound", worst_bound, 0.0))
    out.append(_check("admittance", "vi-residual", worst_vi, 1e-10))
    return out


def _group_plant() -> list[CheckResult]:
    out = []
    # at rest with no torque the acceleration is -g/m
    m, _, g = one_dof_model(OneDofParams()).terms(0.0, 0.0)[:3]
    out.append(_check("plant", "one-dof-rest-accel", abs(-g / m + 16.81714285714286), 1e-9))

    rng = np.random.default_rng(17)
    two = two_link_model()
    worst_skew = 0.0
    worst_spd = 0.0
    eps = 1e-6
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, size=2)
        qd = rng.normal(size=2)
        x = rng.normal(size=2)
        mdot = (two.mass_fn(q + eps * qd) - two.mass_fn(q - eps * qd)) / (2 * eps)
        c = two.coriolis_fn(q, qd)
        worst_skew = max(worst_skew, abs(float(x @ (mdot - 2 * c) @ x)) / (1e-12 + float(x @ x)))
        worst_spd = max(worst_spd, -float(np.linalg.eigvalsh(two.mass_fn(q)).min()))
    out.append(_check("plant", "two-link-skew-symmetry", worst_skew, 1e-6))
    out.append(_check("plant", "mass-matrix-spd", worst_spd, 0.0))

    env = EnvironmentModel(k_s=2e3, y_s=0.0, mu_fric=0.1)
    worst = 0.0
    for _ in range(200):
        y = rng.uniform(-0.01, 0.01)
        xd = rng.normal()
        fx, fy = contact_wrench((0.0, y), (xd, 0.0), env)
        worst = max(worst, -fy, fy * max(0.0, y), abs(fx) - env.mu_fric * fy)
    out.append(_check("plant", "contact-complementarity", worst, 1e-12))
    return out


def _group_determinism() -> list[CheckResult]:
    from .sim import presets, run_scenario

    sc = presets()["msta_bench"]
    sc.duration = 1.0
    a = run_scenario(sc)
    b = run_scenario(sc)
    same = all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("t", "q", "qd", "qx", "tau", "u_s", "s", "v"))
    return [CheckResult("determinism", "bit-identical-rerun", same,
                        "identical" if same else "traces differ")]


GROUPS = {
    "projection": _group_projection,
    "sta-scalar": _group_sta_scalar,
    "msta-vector": _group_msta_vector,
    "lyapunov": _group_lyapunov,
    "band": _group_band,
    "admittance": _group_admittance,
    "plant": _group_plant,
    "determinism": _group_determinism,
}


def run_verification(groups: list[str] | None = None) -> list[CheckResult]:
    names = list(GROUPS) if not groups else groups
    results: list[CheckResult] = []
    for name in names:
        if name not in GROUPS:
            raise KeyError(f"unknown verification group {name!r}; available: {', '.join(GROUPS)}")
        results.extend(GROUPS[name]())
    return results
