import math
import re

import numpy as np
import pytest

from nonsmooth_adm.plotting import _H, _MB, _ML, _MR, _MT, _W, line_chart


def _points_one_by_one(series) -> list[str]:
    """Each series' polyline points, formatted one point at a time with the
    chart's autoscale: the reference for ``line_chart``'s array code."""
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys = ys[np.isfinite(ys)]
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi - y_lo < 1e-12:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    out = []
    for _, x, y in series:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        keep = np.isfinite(y)
        out.append(" ".join(f"{sx(a):.2f},{sy(min(max(b, y_lo), y_hi)):.2f}"
                            for a, b in zip(x[keep], y[keep])))
    return out


def _series(gen, n=500):
    t = np.linspace(0.0, 5.0, n)
    wild = gen.normal(size=n) * 10.0 ** gen.integers(-3, 3, n)
    wild[::17] = np.nan
    wild[5::31] = np.inf
    wild[7::37] = -np.inf
    wild[11::41] = -0.0
    return [("wild", t, wild), ("steady", t, np.full(n, 0.25)), ("zeros", t, np.zeros(n)),
            ("negzero", t, np.full(n, -0.0))]


@pytest.mark.parametrize("pick", [(0,), (1,), (2,), (3,), (0, 1), (1, 2, 3), (0, 1, 2, 3)])
def test_polylines_equal_the_per_point_formula(pick):
    """NaN and infinite values are dropped, constant series get the +-1
    range, and every point is formatted as the one-point-at-a-time loop did."""
    series = [_series(np.random.default_rng(9))[i] for i in pick]
    svg = line_chart(series, "t", "x", "y")
    assert re.findall(r'<polyline points="([^"]*)"', svg) == _points_one_by_one(series)


def test_polylines_equal_the_per_point_formula_on_a_trace(fig3_run):
    _, trace, _, _ = fig3_run
    series = [("fc_y", trace.t, trace.fc_cart[:, 1]), ("tau0", trace.t, trace.tau[:, 0]),
              ("limit", trace.t, np.full(trace.t.size, 3.0))]
    svg = line_chart(series, "t", "x", "y")
    points = re.findall(r'<polyline points="([^"]*)"', svg)
    assert points == _points_one_by_one(series)
    assert all(math.isfinite(float(v)) for p in points for v in p.replace(",", " ").split())
