import math

import numpy as np
import pytest

from nonsmooth_adm.setvalued import (
    BoxConstraint,
    _all_finite,
    _norm,
    NormQuadWeights,
    project_box,
    prox_norm_quad,
    sat,
    sign0,
    variational_residual,
)
from nonsmooth_adm.verify import prox_objective, prox_reference


def test_sat_branches():
    assert sat(0.5) == 0.5
    assert sat(-3.0) == -1.0
    assert sat(1.0) == 1.0
    assert sat(-1.0) == -1.0


def test_sign0_branches():
    assert sign0(2.5) == 1.0
    assert sign0(0.0) == 0.0
    assert sign0(-1e-300) == -1.0


def test_box_constraint_validation():
    with pytest.raises(ValueError):
        BoxConstraint([3.0, 0.0])
    with pytest.raises(ValueError):
        BoxConstraint([])
    assert BoxConstraint([3.0, 4.0]).dim == 2


def test_project_box_values():
    box = BoxConstraint([3.0, 4.0])
    assert np.allclose(project_box(np.array([-5.0, 2.0]), box), [-3.0, 2.0])
    assert np.allclose(project_box(np.array([0.0, 0.0]), box), [0.0, 0.0])
    assert np.allclose(project_box(np.array([10.0]), BoxConstraint([3.0])), [3.0])


def test_project_box_dimension_mismatch():
    with pytest.raises(ValueError):
        project_box(np.array([1.0, 2.0, 3.0]), BoxConstraint([3.0, 4.0]))


def test_project_box_identity_inside():
    box = BoxConstraint([1.0, 2.0, 3.0])
    y = np.array([0.5, -1.5, 2.9])
    assert np.array_equal(project_box(y, box), y)


def test_prox_norm_quad_examples():
    assert np.allclose(prox_norm_quad(np.array([3.0, 4.0]), 1.0, NormQuadWeights(1.0, 0.0)),
                       [2.4, 3.2])
    assert np.array_equal(prox_norm_quad(np.array([1.0, 0.0]), 1.0, NormQuadWeights(2.0, 0.0)),
                          [0.0, 0.0])
    assert np.allclose(prox_norm_quad(np.array([3.0, 4.0]), 1.0, NormQuadWeights(1.0, 1.0)),
                       [1.2, 1.6])


def test_prox_requires_positive_index():
    with pytest.raises(ValueError):
        prox_norm_quad(np.array([1.0]), 0.0, NormQuadWeights(1.0))


def test_prox_dead_zone_boundary(rng):
    for _ in range(100):
        a = rng.uniform(0.1, 3.0)
        index = rng.uniform(0.1, 3.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        inside = (index * a * 0.999) * direction
        outside = (index * a * 1.001) * direction
        assert np.linalg.norm(prox_norm_quad(inside, index, NormQuadWeights(a))) == 0.0
        assert np.linalg.norm(prox_norm_quad(outside, index, NormQuadWeights(a))) > 0.0


def test_prox_matches_numerical_minimizer(rng):
    # spot check; the full 1000-instance sweep runs in the acceptance suite
    worst = 0.0
    for _ in range(150):
        n = int(rng.choice([1, 2, 6]))
        z = rng.normal(scale=10.0 ** rng.uniform(-2, 1), size=n)
        index = 10.0 ** rng.uniform(-2, 1)
        a, b = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        if abs(np.linalg.norm(z) - index * a) < 1e-6:
            continue
        closed = prox_norm_quad(z, index, NormQuadWeights(a, b))
        ref = prox_reference(z, index, a, b)
        worst = max(worst, float(np.linalg.norm(closed - ref)))
        assert prox_objective(closed, z, index, a, b) <= prox_objective(ref, z, index, a, b) + 1e-12
    assert worst <= 1e-8


def test_prox_firmly_nonexpansive(rng):
    for _ in range(300):
        n = int(rng.choice([1, 2, 4]))
        w = NormQuadWeights(rng.uniform(0, 3), rng.uniform(0, 3))
        index = 10.0 ** rng.uniform(-1, 1)
        za, zb = rng.normal(size=n) * 3, rng.normal(size=n) * 3
        pa, pb = prox_norm_quad(za, index, w), prox_norm_quad(zb, index, w)
        lhs = float(np.sum((pa - pb) ** 2))
        rhs = float((pa - pb) @ (za - zb))
        assert lhs <= rhs + 1e-12


def test_projection_idempotent_and_nonexpansive(rng):
    for _ in range(300):
        n = int(rng.choice([1, 2, 5]))
        box = BoxConstraint(rng.uniform(0.2, 5.0, size=n))
        a, b = rng.normal(scale=5, size=n), rng.normal(scale=5, size=n)
        pa, pb = project_box(a, box), project_box(b, box)
        assert np.array_equal(project_box(pa, box), pa)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_variational_residual_certificates():
    box = BoxConstraint([3.0])
    probes = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
    assert variational_residual(np.array([10.0]), np.array([3.0]), box, probes) <= 0.0
    # interior point: the probe at the projection itself attains exactly zero
    res = variational_residual(np.array([1.0]), np.array([1.0]), box,
                               probes + [np.array([1.0 / 3.0])])
    assert res == 0.0


def test_variational_residual_random_grid(rng):
    grid = [np.array([x]) for x in np.linspace(-1, 1, 21)]
    for _ in range(200):
        box = BoxConstraint(rng.uniform(0.5, 4.0, size=1))
        y = rng.normal(scale=6, size=1)
        p = project_box(y, box)
        assert variational_residual(y, p, box, grid) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_variational_residual_of_a_nan_candidate_is_nan(n):
    """A NaN term wins over any other probe's term, and only a call without
    probes is told that it needs one."""
    box = BoxConstraint([1.0] * n)
    y_star, y_proj = np.array([np.nan, 0.0][:n]), np.array([0.5, 0.0][:n])
    for probes in ([np.ones(n)], [-np.ones(n), np.zeros(n)], [np.array([np.nan] * n)]):
        assert math.isnan(variational_residual(y_star, y_proj, box, probes))
    assert math.isnan(variational_residual(np.full(n, 0.5), y_proj, box,
                                           [np.ones(n), np.array([np.nan] * n)]))
    with pytest.raises(ValueError, match="at least one probe"):
        variational_residual(y_star, y_proj, box, [])


def test_variational_residual_rejects_bad_probe():
    box = BoxConstraint([2.0])
    with pytest.raises(ValueError):
        variational_residual(np.array([1.0]), np.array([1.0]), box, [np.array([1.5])])


def test_fast_primitives_match_numpy_bitwise():
    gen = np.random.default_rng(5)
    box = BoxConstraint([1.5, 0.5, 2.0])
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150):
        for _ in range(50):
            y = gen.normal(size=3) * scale
            assert _norm(y) == float(np.linalg.norm(y))
            assert np.array_equal(project_box(y, box), np.clip(y, -box.limits, box.limits))
    for v in ([1.0, 2.0], [np.nan, 0.0], [0.0, np.inf], [-np.inf], [[1.0, np.nan]]):
        v = np.array(v)
        assert _all_finite(v) == bool(np.isfinite(v).all())
    assert np.isnan(project_box(np.array([np.nan, 0.0, 9.0]), box)[0])
