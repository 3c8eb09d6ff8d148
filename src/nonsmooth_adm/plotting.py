"""Static SVG line plots, no external plotting dependency.

Figures are plain polyline charts with autoscaled axes; enough to render the
position / force / torque panels of a trace and controller overlays.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = ["line_chart", "trace_panels", "compare_panels"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

_W, _H = 720, 360
_ML, _MR, _MT, _MB = 64, 16, 34, 44


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def line_chart(series, title: str, xlabel: str, ylabel: str, path: str | None = None,
               dashed: tuple[str, ...] = ()) -> str:
    """Render labelled (x, y) series to an SVG string; optionally write it.

    ``series`` is a list of (label, x, y); labels listed in ``dashed`` are
    drawn with a dash pattern (used for limit lines).
    """
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys = ys[np.isfinite(ys)]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi - x_lo < 1e-12:
        # one sample (a one-row trace) spans no x range to scale by
        x_lo -= 1.0
        x_hi += 1.0
    if y_hi - y_lo < 1e-12:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{_MT}" x2="{sx(tx):.1f}" y2="{_MT + ph}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{_MT + ph + 16}" text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML}" y1="{sy(ty):.1f}" x2="{_ML + pw}" y2="{sy(ty):.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{sy(ty) + 4:.1f}" text-anchor="end">{ty:g}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{_ML + pw / 2}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MT + ph / 2})">{ylabel}</text>')

    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(y)
        # sx and sy of every point at once, in their operation order; the
        # clamp's +-0 ties (np.maximum vs max) vanish when sy adds _MT
        px = _ML + (x[keep] - x_lo) / (x_hi - x_lo) * pw
        py = _MT + (y_hi - np.minimum(np.maximum(y[keep], y_lo), y_hi)) / (y_hi - y_lo) * ph
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        dash = ' stroke-dasharray="6 4"' if label in dashed else ""
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.3"{dash}/>')
        lx, lyy = _ML + pw - 120, _MT + 14 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{lyy - 4}" x2="{lx + 22}" y2="{lyy - 4}" '
                     f'stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{lx + 28}" y="{lyy}">{label}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        with open(path, "w") as f:
            f.write(svg)
    return svg


def trace_panels(trace, limits, outdir: str, prefix: str = "") -> list[str]:
    """Write the position / force / torque panels for one trace."""
    os.makedirs(outdir, exist_ok=True)
    n = trace.dof
    written = []

    series = []
    for i in range(n):
        series.append((f"q{i}", trace.t, trace.q[:, i]))
        series.append((f"qx{i}", trace.t, trace.qx[:, i]))
    p = os.path.join(outdir, f"{prefix}position.svg")
    line_chart(series, "positions and proxy positions", "t [s]", "position", p)
    written.append(p)

    p = os.path.join(outdir, f"{prefix}force.svg")
    line_chart([("fc_y", trace.t, trace.fc_cart[:, 1]),
                ("fc_x", trace.t, trace.fc_cart[:, 0])],
               "contact force", "t [s]", "force [N]", p)
    written.append(p)

    series = []
    dashed = []
    ones = np.ones_like(trace.t)
    for i in range(n):
        series.append((f"tau{i}", trace.t, trace.tau[:, i]))
    for i in range(n):
        series.append((f"+F{i}", trace.t, limits[i] * ones))
        series.append((f"-F{i}", trace.t, -limits[i] * ones))
        dashed += [f"+F{i}", f"-F{i}"]
    p = os.path.join(outdir, f"{prefix}torque.svg")
    line_chart(series, "applied torque and saturation levels", "t [s]", "torque",
               p, dashed=tuple(dashed))
    written.append(p)
    return written


def compare_panels(trace_a, trace_b, label_a: str, label_b: str, outdir: str) -> list[str]:
    """Overlay the contact-force and first-joint torque of two runs."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    p = os.path.join(outdir, "compare_force.svg")
    line_chart([(f"fc_y {label_a}", trace_a.t, trace_a.fc_cart[:, 1]),
                (f"fc_y {label_b}", trace_b.t, trace_b.fc_cart[:, 1])],
               "contact force comparison", "t [s]", "force [N]", p)
    written.append(p)
    p = os.path.join(outdir, "compare_torque.svg")
    line_chart([(f"tau0 {label_a}", trace_a.t, trace_a.tau[:, 0]),
                (f"tau0 {label_b}", trace_b.t, trace_b.tau[:, 0])],
               "torque comparison", "t [s]", "torque", p)
    written.append(p)
    return written
