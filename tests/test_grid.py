"""Grid containers, interpolation, derivatives, and map algebra."""

import numpy as np
import pytest

from cardiomotion.errors import GridMismatchError
from cardiomotion.grid import (Grid2, MapField, ScalarField, VectorField, FieldSequence,
                               bilinear_adjoint_field, bilinear_apply, bilinear_prepare,
                               bilinear_sample, compose, coordinate_arrays, ddx, ddx_adjoint,
                               ddy, ddy_adjoint, displacement_to_map, divergence, identity_map,
                               interpolate, jacobian, jacobian_determinant, map_to_displacement,
                               warp_vector)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2(0, 8)
    with pytest.raises(ValueError):
        Grid2(3, 8)
    with pytest.raises(ValueError):
        Grid2(8, 8, spacing=0.0)
    g = Grid2(4, 6, spacing=2.0)
    assert g.shape == (4, 6)


def test_field_shape_checks():
    g = Grid2(4, 4)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((4, 4)), np.zeros((5, 4)))


def test_field_sequence_grid_consistency():
    g = Grid2(4, 4)
    a = ScalarField(g, np.zeros((4, 4)))
    b = ScalarField(Grid2(4, 5), np.zeros((4, 5)))
    with pytest.raises(GridMismatchError):
        FieldSequence([a, b])
    with pytest.raises(ValueError):
        FieldSequence([])
    assert len(FieldSequence([a, a])) == 2


def test_identity_map_and_coordinates():
    g = Grid2(4, 5)
    ident = identity_map(g)
    xs, ys = coordinate_arrays(g)
    assert np.array_equal(ident.x, xs)
    assert np.array_equal(ident.y, ys)
    assert ident.x[2, 4] == 4.0 and ident.y[2, 4] == 2.0


def test_interpolate_is_exact_on_grid_points():
    g = Grid2(8, 8)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.shape))
    out = interpolate(f, identity_map(g))
    assert np.allclose(out.values, f.values, atol=1e-14)


def test_interpolate_linear_function_exactly():
    # bilinear interpolation reproduces affine functions at any offset
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    f = ScalarField(g, 2.0 * xs - 3.0 * ys + 1.0)
    shift = MapField(g, VectorField(g, xs + 0.3, ys + 0.6))
    out = interpolate(f, shift)
    inside = (xs <= 6) & (ys <= 6)
    expect = 2.0 * (xs + 0.3) - 3.0 * (ys + 0.6) + 1.0
    assert np.allclose(out.values[inside], expect[inside], atol=1e-12)


def test_bilinear_sample_clamps_at_borders():
    g = Grid2(4, 4)
    vals = np.arange(16.0).reshape(4, 4)
    out = bilinear_sample(vals, np.array([[-5.0]]), np.array([[0.0]]))
    assert out[0, 0] == vals[0, 0]
    out = bilinear_sample(vals, np.array([[10.0]]), np.array([[10.0]]))
    assert out[0, 0] == vals[3, 3]


def test_bilinear_sample_on_a_stack_equals_per_slice_loop():
    rng = np.random.default_rng(40)
    vals = rng.standard_normal((3, 9, 7))
    ys, xs = np.mgrid[0:9, 0:7].astype(np.float64)
    mx = xs + rng.uniform(-3.0, 3.0, vals.shape)  # reaches past every edge
    my = ys + rng.uniform(-3.0, 3.0, vals.shape)
    stacked = bilinear_sample(vals, mx, my)
    looped = np.stack([bilinear_sample(vals[k], mx[k], my[k]) for k in range(3)])
    assert np.array_equal(stacked, looped)
    with pytest.raises(ValueError):
        bilinear_sample(vals, xs, ys)  # a stack needs per-slice coordinates


def test_finite_differences_on_a_stack_equal_per_slice_loop():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((3, 9, 7))
    for op in (ddx, ddy, ddx_adjoint, ddy_adjoint):
        assert np.array_equal(op(a), np.stack([op(a[k]) for k in range(3)])), op.__name__


@pytest.mark.parametrize("lead", [(), (3,)])
def test_bilinear_adjoint_identity(lead):
    # <A x, y> == <x, A^T y>, with coordinates clamped on every side
    rng = np.random.default_rng(42)
    shape = lead + (9, 7)
    mx = rng.uniform(-2.0, 9.0, lead + (5, 6))
    my = rng.uniform(-2.0, 11.0, lead + (5, 6))
    idx, tx, ty, _, _ = bilinear_prepare(shape, mx, my)
    for _ in range(3):
        x = rng.standard_normal(shape)
        y = rng.standard_normal(mx.shape)
        lhs = np.sum(bilinear_apply(x, idx, tx, ty) * y)
        rhs = np.sum(x * bilinear_adjoint_field(shape, idx, tx, ty, y))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_ddx_ddy_central_difference():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    f = 0.5 * xs**2
    d = ddx(f)
    # interior of x^2/2 differentiates to x
    assert np.allclose(d[:, 1:-1], xs[:, 1:-1], atol=1e-12)
    f2 = 0.5 * ys**2
    d2 = ddy(f2)
    assert np.allclose(d2[1:-1, :], ys[1:-1, :], atol=1e-12)


def test_derivative_adjoint_identity():
    # <D a, b> == <a, D^T b> for random fields, the discrete adjoint pairing
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((9, 7))
        b = rng.standard_normal((9, 7))
        assert abs(np.sum(ddx(a) * b) - np.sum(a * ddx_adjoint(b))) < 1e-10
        assert abs(np.sum(ddy(a) * b) - np.sum(a * ddy_adjoint(b))) < 1e-10


def test_jacobian_and_divergence_of_linear_field():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    v = VectorField(g, 2.0 * xs + ys, xs - 3.0 * ys)
    j = jacobian(v)
    interior = np.s_[1:-1, 1:-1]
    assert np.allclose(j[interior + (0, 0)], 2.0)
    assert np.allclose(j[interior + (0, 1)], 1.0)
    assert np.allclose(j[interior + (1, 0)], 1.0)
    assert np.allclose(j[interior + (1, 1)], -3.0)
    div = divergence(v)
    assert np.allclose(div.values[interior], -1.0)


def test_jacobian_determinant_of_uniform_scaling():
    g = Grid2(16, 16)
    xs, ys = coordinate_arrays(g)
    c = 7.5
    scale = 0.9
    m = MapField(g, VectorField(g, c + scale * (xs - c), c + scale * (ys - c)))
    jd = jacobian_determinant(m)
    assert np.allclose(jd.values[1:-1, 1:-1], scale**2, atol=1e-10)


def test_displacement_map_round_trip():
    g = Grid2(6, 6)
    rng = np.random.default_rng(3)
    u = VectorField(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    back = map_to_displacement(displacement_to_map(u))
    assert np.allclose(back.x_component, u.x_component, atol=1e-14)
    assert np.allclose(back.y_component, u.y_component, atol=1e-14)


def test_compose_with_identity():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    m = MapField(g, VectorField(g, xs + 0.25, ys - 0.5))
    out = compose(m, identity_map(g))
    assert np.allclose(out.x, m.x, atol=1e-12)
    assert np.allclose(out.y, m.y, atol=1e-12)


def test_warp_vector_constant_field_invariant():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    v = VectorField(g, np.full(g.shape, 1.5), np.full(g.shape, -2.0))
    m = MapField(g, VectorField(g, xs + 0.4, ys + 0.2))
    w = warp_vector(v, m)
    assert np.allclose(w.x_component, 1.5)
    assert np.allclose(w.y_component, -2.0)


def test_grid_mismatch_raises():
    a = VectorField(Grid2(4, 4), np.zeros((4, 4)), np.zeros((4, 4)))
    m = identity_map(Grid2(5, 5))
    with pytest.raises(GridMismatchError):
        warp_vector(a, m)
