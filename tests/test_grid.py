"""Grid containers, interpolation, derivatives, and map algebra."""

import numpy as np
import pytest

from cardiomotion.errors import GridMismatchError
from cardiomotion.grid import (Grid2, MapField, ScalarField, VectorField, FieldSequence,
                               bilinear_adjoint_field, bilinear_apply, bilinear_prepare,
                               bilinear_sample, coordinate_arrays, ddx, ddx_adjoint,
                               ddy, ddy_adjoint, jacobian, jacobian_determinant,
                               map_to_displacement, warp_vector)
from cardiomotion.strain import Mask, epe


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2(0, 8)
    with pytest.raises(ValueError):
        Grid2(3, 8)
    with pytest.raises(ValueError):
        Grid2(8, 8, spacing=0.0)
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        Grid2(4, 4, np.inf)
    g = Grid2(4, 6, spacing=2.0)
    assert g.shape == (4, 6)


def test_field_shape_checks():
    g = Grid2(4, 4)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((4, 4)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        MapField(g, np.zeros((4, 5)), np.zeros((4, 4)))


def test_vector_field_is_one_array_with_component_views():
    g = Grid2(5, 7)
    rng = np.random.default_rng(44)
    x, y = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    v = VectorField(g, x, y)
    assert v.values.shape == (2, 5, 7) and v.values.dtype == np.float64
    assert np.array_equal(v.values[0], x) and np.array_equal(v.values[1], y)
    assert np.shares_memory(v.x_component, v.values[0])
    assert np.shares_memory(v.y_component, v.values[1])
    with pytest.raises(AttributeError):
        v.x_component = y
    m = MapField(g, x, y)
    assert isinstance(m, VectorField) and m.values.shape == (2, 5, 7)
    assert np.shares_memory(m.x, m.values[0]) and np.shares_memory(m.y, m.values[1])
    assert np.array_equal(m.x, x) and np.array_equal(m.y, y)
    back = VectorField(g, *v.values)
    assert np.array_equal(back.values, v.values)
    assert not np.shares_memory(back.values, v.values)
    images = FieldSequence(g, np.stack([x, y, x]))
    assert images.values.shape == (3, 5, 7)
    assert np.array_equal(images.values[1], y)
    assert isinstance(images[1], ScalarField) and np.array_equal(images[1].values, y)
    stored = np.stack([v.values, VectorField(g, y, x).values])
    motions = FieldSequence(g, stored)
    assert motions.values is stored
    assert motions.values.shape == (2, 2, 5, 7)
    assert np.array_equal(motions.values[0], v.values)
    assert np.array_equal(motions[1].x_component, y) and len(motions.frames) == 2


def test_field_sequence_grid_consistency():
    g = Grid2(4, 4)
    with pytest.raises(ValueError, match="shape"):
        FieldSequence(g, np.zeros((2, 3, 4, 4)))
    with pytest.raises(ValueError, match="shape"):
        FieldSequence(g, np.zeros((2, 4, 5)))
    with pytest.raises(ValueError, match="shape"):
        FieldSequence(g, np.zeros((0, 4, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        FieldSequence(g, np.full((2, 2, 4, 4), np.nan))
    seq = FieldSequence(g, np.zeros((2, 4, 4)))
    assert len(seq) == 2 and seq.grid == g


def _identity(g):
    return MapField(g, *coordinate_arrays(g))


def test_identity_map_and_coordinates():
    g = Grid2(4, 5)
    ident = _identity(g)
    xs, ys = coordinate_arrays(g)
    assert np.array_equal(ident.x, xs)
    assert np.array_equal(ident.y, ys)
    assert ident.x[2, 4] == 4.0 and ident.y[2, 4] == 2.0


def test_interpolate_is_exact_on_grid_points():
    g = Grid2(8, 8)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal(g.shape))
    ident = _identity(g)
    out = bilinear_sample(f.values, ident.x, ident.y)
    assert np.allclose(out, f.values, atol=1e-14)


def test_interpolate_linear_function_exactly():
    # bilinear interpolation reproduces affine functions at any offset
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    f = ScalarField(g, 2.0 * xs - 3.0 * ys + 1.0)
    shift = MapField(g, xs + 0.3, ys + 0.6)
    out = bilinear_sample(f.values, shift.x, shift.y)
    inside = (xs <= 6) & (ys <= 6)
    expect = 2.0 * (xs + 0.3) - 3.0 * (ys + 0.6) + 1.0
    assert np.allclose(out[inside], expect[inside], atol=1e-12)


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


def _rows(op, a):
    """ddx-family kernel ``op`` by its 1-D formula, one row (last axis) at a time."""
    out = np.empty(a.shape)
    for index in np.ndindex(a.shape[:-1]):
        r = a[index]
        o = out[index]
        if op in ("ddx", "ddy"):
            o[1:-1] = 0.5 * (r[2:] - r[:-2])
            o[0] = r[1] - r[0]
            o[-1] = r[-1] - r[-2]
        else:
            h = 0.5 * r
            h[0], h[-1] = r[0], r[-1]
            o[1:-1] = h[:-2] - h[2:]
            o[0] = -(h[0] + h[1])
            o[-1] = h[-2] + h[-1]
    return out


def _layouts(rng):
    base = rng.standard_normal((3, 2, 9, 7))
    return {"C": base, "F": np.asfortranarray(base), "reversed": base[..., ::-1, ::-1],
            "broadcast": np.broadcast_to(base[0, 0], (3, 2, 9, 7))}


@pytest.mark.parametrize("layout", ["C", "F", "reversed", "broadcast"])
def test_finite_differences_are_bit_identical_to_row_formulas(layout):
    a = _layouts(np.random.default_rng(44))[layout]
    for op, fn in (("ddx", ddx), ("ddx_adjoint", ddx_adjoint)):
        assert np.array_equal(fn(a), _rows(op, a)), op
    # the y kernels are the same formulas along the rows' axis
    t = np.swapaxes(a, -1, -2)
    for op, fn in (("ddy", ddy), ("ddy_adjoint", ddy_adjoint)):
        assert np.array_equal(fn(a), np.swapaxes(_rows(op.replace("y", "x"), t), -1, -2)), op
    for fn in (ddx, ddy, ddx_adjoint, ddy_adjoint):
        assert fn(a).flags.c_contiguous, fn.__name__


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


def test_bilinear_coordinates_broadcast_over_leading_axes():
    # (3, 1, ...) coordinates read both components of a (3, 2, H, W) stack
    rng = np.random.default_rng(43)
    shape = (3, 2, 9, 7)
    mx = rng.uniform(-2.0, 9.0, (3, 1, 5, 6))
    my = rng.uniform(-2.0, 11.0, (3, 1, 5, 6))
    idx, tx, ty, _, _ = bilinear_prepare(shape, mx, my)
    assert idx.shape == (3, 2, 5, 6) and tx.shape == mx.shape
    x = rng.standard_normal(shape)
    looped = np.stack([np.stack([bilinear_sample(x[t, c], mx[t, 0], my[t, 0]) for c in range(2)])
                       for t in range(3)])
    assert np.array_equal(bilinear_apply(x, idx, tx, ty), looped)
    y = rng.standard_normal(idx.shape)
    lhs = np.sum(looped * y)
    rhs = np.sum(x * bilinear_adjoint_field(shape, idx, tx, ty, y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    with pytest.raises(ValueError):
        bilinear_prepare(shape, mx[:2], my[:2])  # 2 coordinate slices for 3 field slices


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


def test_jacobian_of_linear_field():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    v = VectorField(g, 2.0 * xs + ys, xs - 3.0 * ys)
    j = jacobian(v)
    interior = np.s_[1:-1, 1:-1]
    assert np.allclose(j[interior + (0, 0)], 2.0)
    assert np.allclose(j[interior + (0, 1)], 1.0)
    assert np.allclose(j[interior + (1, 0)], 1.0)
    assert np.allclose(j[interior + (1, 1)], -3.0)


def test_jacobian_determinant_of_uniform_scaling():
    g = Grid2(16, 16)
    xs, ys = coordinate_arrays(g)
    c = 7.5
    scale = 0.9
    m = MapField(g, c + scale * (xs - c), c + scale * (ys - c))
    jd = jacobian_determinant(m)
    assert np.allclose(jd.values[1:-1, 1:-1], scale**2, atol=1e-10)


def test_map_to_displacement_subtracts_identity():
    g = Grid2(6, 6)
    rng = np.random.default_rng(3)
    u = VectorField(g, rng.standard_normal(g.shape), rng.standard_normal(g.shape))
    xs, ys = coordinate_arrays(g)
    back = map_to_displacement(MapField(g, xs + u.x_component, ys + u.y_component))
    assert np.allclose(back.x_component, u.x_component, atol=1e-14)
    assert np.allclose(back.y_component, u.y_component, atol=1e-14)


def test_compose_with_identity():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    m = MapField(g, xs + 0.25, ys - 0.5)
    out = warp_vector(m, _identity(g))  # m composed with the identity
    assert np.allclose(out.x_component, m.x, atol=1e-12)
    assert np.allclose(out.y_component, m.y, atol=1e-12)


def test_warp_vector_constant_field_invariant():
    g = Grid2(8, 8)
    xs, ys = coordinate_arrays(g)
    v = VectorField(g, np.full(g.shape, 1.5), np.full(g.shape, -2.0))
    m = MapField(g, xs + 0.4, ys + 0.2)
    w = warp_vector(v, m)
    assert np.allclose(w.x_component, 1.5)
    assert np.allclose(w.y_component, -2.0)


def test_grid_mismatch_raises():
    a = VectorField(Grid2(4, 4), np.zeros((4, 4)), np.zeros((4, 4)))
    m = _identity(Grid2(5, 5))
    with pytest.raises(GridMismatchError):
        warp_vector(a, m)


@pytest.mark.parametrize("shape", [(9, 7), (16, 16)])
def test_field_kernels_equal_their_per_component_formulas(shape):
    # the stacked kernels do the same elementwise arithmetic, bit for bit
    g = Grid2(*shape, spacing=1.5)
    rng = np.random.default_rng(45)
    xs, ys = coordinate_arrays(g)
    v = VectorField(g, rng.standard_normal(shape), rng.standard_normal(shape))
    w = VectorField(g, rng.standard_normal(shape), rng.standard_normal(shape))
    phi = MapField(g, xs + rng.uniform(-2.0, 2.0, shape), ys + rng.uniform(-2.0, 2.0, shape))

    j = jacobian(v)
    assert j.shape == shape + (2, 2)
    assert np.array_equal(j[..., 0, 0], ddx(v.x_component))
    assert np.array_equal(j[..., 0, 1], ddy(v.x_component))
    assert np.array_equal(j[..., 1, 0], ddx(v.y_component))
    assert np.array_equal(j[..., 1, 1], ddy(v.y_component))

    det = ddx(phi.x) * ddy(phi.y) - ddy(phi.x) * ddx(phi.y)
    assert np.array_equal(jacobian_determinant(phi).values, det)

    warped = warp_vector(v, phi)
    assert np.array_equal(warped.x_component, bilinear_sample(v.x_component, phi.x, phi.y))
    assert np.array_equal(warped.y_component, bilinear_sample(v.y_component, phi.x, phi.y))

    mask = Mask(g, rng.uniform(size=shape) < 0.5)
    dist = np.hypot(v.x_component - w.x_component, v.y_component - w.y_component)
    assert epe(v, w, mask) == float(dist[mask.labels].mean() * g.spacing)
