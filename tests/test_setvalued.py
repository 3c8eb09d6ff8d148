import math

import numpy as np
import pytest

from nonsmooth_adm.setvalued import (
    BoxConstraint,
    _all_finite,
    _norm,
    project_box,
    sat,
    sign0,
    variational_residual,
)


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
    # the controller takes one or two joints, so the box does
    for n in (3, 4):
        with pytest.raises(ValueError, match=f"^the controller takes one or two joints; "
                                             f"the torque box has {n}$"):
            BoxConstraint([3.0] * n)


def test_project_box_values():
    box = BoxConstraint([3.0, 4.0])
    assert np.allclose(project_box(np.array([-5.0, 2.0]), box), [-3.0, 2.0])
    assert np.allclose(project_box(np.array([0.0, 0.0]), box), [0.0, 0.0])
    assert np.allclose(project_box(np.array([10.0]), BoxConstraint([3.0])), [3.0])


def test_project_box_dimension_mismatch():
    with pytest.raises(ValueError):
        project_box(np.array([1.0, 2.0, 3.0]), BoxConstraint([3.0, 4.0]))


def test_project_box_identity_inside():
    box = BoxConstraint([2.0, 3.0])
    y = np.array([-1.5, 2.9])
    assert np.array_equal(project_box(y, box), y)


@pytest.mark.parametrize("entries", [
    (0.0,), (-0.0,), (3.0,), (-3.0,), (1.25,), (math.nan,),
    (0.0, -0.0), (-0.0, 0.0), (3.0, -4.0), (-3.0, 4.0), (2.5, -0.0), (math.nan, 4.0),
])
def test_project_box_returns_its_candidate_when_nothing_is_clipped(entries):
    """Inside the box, signed zeros, the faces +-F and a NaN included, the
    projection is the float vector it was given, not a copy."""
    box = BoxConstraint([3.0, 4.0][:len(entries)])
    y = np.array(entries)
    before = y.tobytes()
    assert project_box(y, box) is y
    assert y.tobytes() == before


@pytest.mark.parametrize("entries", [
    (3.5,), (-math.inf,), (5.0, 0.0), (-0.0, -4.5), (-3.0, math.inf), (9.0, -9.0),
])
def test_project_box_returns_a_new_array_when_an_entry_is_clipped(entries):
    box = BoxConstraint([3.0, 4.0][:len(entries)])
    y = np.array(entries)
    before = y.tobytes()
    got = project_box(y, box)
    assert got is not y and y.tobytes() == before
    assert got.tobytes() == np.minimum(np.maximum(y, -box.limits), box.limits).tobytes()


def test_project_box_converts_a_candidate_that_is_not_a_float_vector():
    box = BoxConstraint([3.0, 4.0])
    for y in ([1.0, 2.0], np.array([1, 2]), (0.5, -0.5)):
        got = project_box(y, box)
        assert got is not y and got.dtype == float
        assert np.array_equal(got, np.asarray(y, dtype=float))


def test_projection_idempotent_and_nonexpansive(rng):
    for _ in range(300):
        n = int(rng.choice([1, 2]))
        box = BoxConstraint(rng.uniform(0.2, 5.0, size=n))
        a, b = rng.normal(scale=5, size=n), rng.normal(scale=5, size=n)
        pa, pb = project_box(a, box), project_box(b, box)
        assert np.array_equal(project_box(pa, box), pa)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_variational_residual_certificates():
    box = BoxConstraint([3.0])
    assert variational_residual(np.array([10.0]), np.array([3.0]), box) == 0.0
    # interior point: the projection is the point itself, d = 0
    assert variational_residual(np.array([1.0]), np.array([1.0]), box) == 0.0
    # a claimed projection short of the clamp: -2 at p = 0, +1 at the corner p = 1
    assert variational_residual(np.array([5.0]), np.array([2.0]), box) == 1.0


def test_variational_residual_dimension_mismatch():
    """A y_star or y_proj of another entry count than the box is refused,
    not broadcast against it."""
    box = BoxConstraint([3.0, 4.0])
    for y_star, y_proj in (([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0, 2.0], [1.0]), ([1.0], [1.0])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            variational_residual(np.array(y_star), np.array(y_proj), box)


def test_variational_residual_converts_inputs_that_are_not_float_vectors():
    """Lists, tuples, integer arrays and a scalar give the bits of the float
    vectors they convert to."""
    box, box1 = BoxConstraint([3.0, 4.0]), BoxConstraint([3.0])
    for y_star, y_proj in (([5, -1], [2, -1]), ((7.0, 0.5), (3.0, 0.5)), ([-9, 9], [-3, 4])):
        expected = variational_residual(np.array(y_star, dtype=float),
                                        np.array(y_proj, dtype=float), box)
        for a, b in ((y_star, y_proj), (np.array(y_star), np.array(y_proj))):
            assert variational_residual(a, b, box).hex() == expected.hex()
    assert variational_residual(5, 2, box1) == variational_residual(
        np.array([5.0]), np.array([2.0]), box1) == 1.0


def test_variational_residual_random_grid(rng):
    """On a true projection the certificate is no larger than on any point
    of a grid over the unit box, and is zero."""
    grid = np.linspace(-1, 1, 21).tolist()
    for _ in range(200):
        box = BoxConstraint(rng.uniform(0.5, 4.0, size=1))
        y = rng.normal(scale=6, size=1)
        p = project_box(y, box)
        res = variational_residual(y, p, box)
        d, x = float(y[0] - p[0]), float(p[0] / box.limits[0])
        assert res >= max(d * (c - x) for c in grid)
        assert res == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_variational_residual_of_a_nan_candidate_is_nan(n):
    """A NaN entry of the candidate makes the corner, and so the
    certificate, NaN."""
    box = BoxConstraint([1.0] * n)
    y_proj = np.array([0.5, 0.0][:n])
    for k in range(n):
        y_star = y_proj.copy()
        y_star[k] = np.nan
        assert math.isnan(variational_residual(y_star, y_proj, box))


def test_fast_primitives_match_numpy_bitwise():
    """The projection and the finiteness check equal numpy's bit for bit.
    The norm is the square root of the float row 0.0 + y0*y0 [+ y1*y1],
    whatever BLAS numpy loads: numpy's for one entry, and within an ulp of
    numpy's for two, whose dot the build may round once (an FMA)."""
    gen = np.random.default_rng(5)
    box = BoxConstraint([1.5, 0.5])
    for scale in (1e-300, 1e-8, 1.0, 1e8, 1e150):
        for _ in range(50):
            y = gen.normal(size=3) * scale
            y = y[:2]
            (y0, y1), one = y.tolist(), y[:1]
            assert _norm(one) == _norm(one.tolist()) == float(np.linalg.norm(one))
            assert _norm(y) == _norm(tuple(y.tolist())) == math.sqrt(0.0 + y0 * y0 + y1 * y1)
            assert _norm(y) == pytest.approx(float(np.linalg.norm(y)), rel=4e-16)
            assert np.array_equal(project_box(y, box), np.clip(y, -box.limits, box.limits))
    for v in ([1.0, 2.0], [np.nan, 0.0], [0.0, np.inf], [-np.inf], [[1.0, np.nan]]):
        v = np.array(v)
        assert _all_finite(v) == bool(np.isfinite(v).all())
    assert np.isnan(project_box(np.array([np.nan, 9.0]), box)[0])
