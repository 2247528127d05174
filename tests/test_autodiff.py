"""Reverse-mode autodiff: every primitive against central finite differences."""

import numpy as np
import pytest

from cardiomotion.geodesic import epdiff_force_adjoint, epdiff_force_values
from cardiomotion.grid import Grid2, ddx, ddy
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.fieldops import bilinear_warp, fd_dx, fd_dy, spectral_multiply
from cardiomotion.nn.tensor import (Tensor, add, avgpool2, cast, concat_channels,
                                    conv2d, linear, mul, nearest_upsample2, no_grad,
                                    relu, reshape, scale_shift, smul, squared_error_sum,
                                    sum_all, take_index, upsample_conv2d)
from helpers import directional_probe_check, force_node, keep_away_from, keep_off_lattice


def _probe(f, leaves, seed, **kw):
    directional_probe_check(f, leaves, np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# elementwise arithmetic and reductions
# ---------------------------------------------------------------------------


def test_add_sub_mul_gradients():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
    _probe(lambda ts: sum_all(mul(add(ts[0], ts[1]), add(ts[0], smul(ts[1], -1.0)))), [a, b], 1)


def test_broadcast_operands_get_gradients_of_their_own_shape():
    rng = np.random.default_rng(6)
    a, b, c = rng.standard_normal(2), rng.standard_normal((3, 2)), rng.standard_normal((3, 1))
    ts = [Tensor(x, requires_grad=True) for x in (a, b, c)]
    sum_all(add(mul(add(ts[1], smul(ts[0], -1.0)), ts[2]), ts[0])).backward()
    # f = sum_ij (b_ij - a_j) c_i + a_j
    assert np.allclose(ts[0].grad, 3.0 - c.sum(), rtol=0, atol=1e-12)
    assert np.allclose(ts[1].grad, np.broadcast_to(c, (3, 2)), rtol=0, atol=1e-12)
    assert np.allclose(ts[2].grad, (b - a).sum(axis=1, keepdims=True), rtol=0, atol=1e-12)
    assert [t.grad.shape for t in ts] == [(2,), (3, 2), (3, 1)]


def test_smul_neg_gradients():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    _probe(lambda ts: sum_all(smul(ts[0], -2.5)), [a], 3)
    t = Tensor(a, requires_grad=True)
    sum_all(smul(t, -3.0)).backward()
    assert np.allclose(t.grad, -3.0)


def test_sum_all_gradient_is_ones():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    sum_all(t).backward()
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_relu_gradient_masks_negatives():
    rng = np.random.default_rng(6)
    a = keep_away_from(rng.standard_normal((6, 6)), 0.0)
    _probe(lambda ts: sum_all(mul(relu(ts[0]), relu(ts[0]))), [a], 7)
    t = Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    sum_all(relu(t)).backward()
    assert np.array_equal(t.grad, np.array([[0.0, 1.0]]))


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def test_reshape_gradient_round_trips():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 12))
    w = rng.standard_normal((2, 3, 4))
    _probe(lambda ts: sum_all(mul(reshape(ts[0], (2, 3, 4)), Tensor(w))), [a], 11)


def test_take_index_routes_gradient_to_slice():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4, 4))
    _probe(lambda ts: sum_all(mul(take_index(ts[0], 1), take_index(ts[0], 1))), [a], 13)
    t = Tensor(a, requires_grad=True)
    sum_all(take_index(t, 2)).backward()
    assert np.allclose(t.grad[2], 1.0) and np.allclose(t.grad[:2], 0.0)
    # a basic index tuple: a[:, 1]
    _probe(lambda ts: sum_all(mul(take_index(ts[0], (slice(None), 1)),
                                  take_index(ts[0], (slice(None), 2)))), [a], 44)
    t = Tensor(a, requires_grad=True)
    sum_all(take_index(t, (slice(None), 1))).backward()
    assert np.allclose(t.grad[:, 1], 1.0) and np.allclose(t.grad[:, [0, 2, 3]], 0.0)


def test_concat_channels_splits_gradient():
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((2, 2, 4, 4)), rng.standard_normal((2, 3, 4, 4))
    _probe(lambda ts: sum_all(mul(concat_channels(ts), concat_channels(ts))), [a, b], 15)


# ---------------------------------------------------------------------------
# network layers
# ---------------------------------------------------------------------------


def test_conv2d_gradients():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    b = rng.standard_normal(4)
    _probe(lambda ts: sum_all(mul(conv2d(*ts), conv2d(*ts))), [x, w, b], 17)
    _probe(lambda ts: sum_all(conv2d(ts[0], ts[1])), [x, w], 18)


def _central_difference_gradient(f, a, eps=1e-6):
    grad = np.zeros_like(a)
    for i in np.ndindex(a.shape):
        step = np.zeros_like(a)
        step[i] = eps
        grad[i] = (f(a + step) - f(a - step)) / (2.0 * eps)
    return grad


def test_conv2d_input_and_kernel_gradients_match_central_differences():
    rng = np.random.default_rng(46)
    x = rng.standard_normal((2, 2, 5, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    r = rng.standard_normal((2, 3, 5, 4))
    loss = lambda xv, wv: float(np.sum(conv2d(Tensor(xv), Tensor(wv)).values * r))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    sum_all(mul(conv2d(xt, wt), Tensor(r))).backward()
    assert np.allclose(xt.grad, _central_difference_gradient(lambda a: loss(a, w), x),
                       rtol=1e-7, atol=1e-8)
    assert np.allclose(wt.grad, _central_difference_gradient(lambda a: loss(x, a), w),
                       rtol=1e-7, atol=1e-8)


def test_conv2d_constant_input_gets_no_gradient():
    rng = np.random.default_rng(47)
    x = rng.standard_normal((2, 2, 4, 4))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    g = rng.standard_normal((2, 3, 4, 4))
    dx, dw, db = conv2d(Tensor(x), w, b)._vjp(g)
    assert dx is None
    _, dw_ref, db_ref = conv2d(Tensor(x, requires_grad=True), w, b)._vjp(g)
    assert np.array_equal(dw, dw_ref) and np.array_equal(db, db_ref)


def _conv2d_by_taps(x, w, b=None):
    """3x3 convolution with zero padding 1 by its definition: a loop over the nine taps."""
    n, c, h, wd = x.shape
    xpad = np.zeros((n, c, h + 2, wd + 2))
    xpad[:, :, 1:-1, 1:-1] = x
    y = np.zeros((n, w.shape[0], h, wd))
    for i in range(3):
        for j in range(3):
            y += np.einsum("oc,nchw->nohw", w[:, :, i, j], xpad[:, :, i:i + h, j:j + wd])
    return y if b is None else y + b[:, None, None]


@pytest.mark.parametrize("n,c,o,h,wd", [(3, 2, 4, 5, 7), (1, 1, 3, 4, 4), (2, 3, 1, 5, 7),
                                        (3, 4, 2, 7, 5)])
@pytest.mark.parametrize("biased", [False, True])
def test_conv2d_matches_tap_loop_definition(n, c, o, h, wd, biased):
    rng = np.random.default_rng([n, c, o, h, wd])
    x, w = rng.standard_normal((n, c, h, wd)), rng.standard_normal((o, c, 3, 3))
    b = rng.standard_normal(o) if biased else None
    g = rng.standard_normal((n, o, h, wd))
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    y = conv2d(xt, wt, None if b is None else Tensor(b, requires_grad=True))
    assert y.values.dtype == np.float64 and y.values.flags.c_contiguous
    np.testing.assert_allclose(y.values, _conv2d_by_taps(x, w, b), rtol=1e-12, atol=1e-12)
    dx, dw = y._vjp(g)[:2]
    assert dx.shape == x.shape and dw.shape == w.shape
    # <conv(x), g> = <x, dX> = <w, dW>: conv is linear in x and in w
    inner = float(np.sum(_conv2d_by_taps(x, w) * g))
    assert float(np.sum(x * dx)) == pytest.approx(inner, rel=1e-12, abs=1e-12)
    assert float(np.sum(w * dw)) == pytest.approx(inner, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,c,o,h,wd", [(3, 2, 4, 5, 7), (1, 1, 3, 4, 4), (2, 3, 1, 5, 7),
                                        (3, 4, 2, 7, 5)])
@pytest.mark.parametrize("biased", [False, True])
def test_float32_conv2d_matches_tap_loop_definition(n, c, o, h, wd, biased):
    # the networks' precision: float32 operands give a float32 output and
    # float32 gradients, within float32 round-off of the float64 definition
    rng = np.random.default_rng([n, c, o, h, wd, 32])
    x = rng.standard_normal((n, c, h, wd)).astype(np.float32)
    w = rng.standard_normal((o, c, 3, 3)).astype(np.float32)
    b = rng.standard_normal(o).astype(np.float32) if biased else None
    g = rng.standard_normal((n, o, h, wd)).astype(np.float32)
    y = conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
               None if b is None else Tensor(b, requires_grad=True))
    assert y.values.dtype == np.float32 and y.values.flags.c_contiguous
    np.testing.assert_allclose(y.values, _conv2d_by_taps(x, w, b), rtol=1e-5, atol=1e-5)
    dx, dw = y._vjp(g)[:2]
    assert dx.dtype == np.float32 and dw.dtype == np.float32
    inner = float(np.sum(_conv2d_by_taps(x, w) * g))
    assert float(np.sum(x * dx.astype(np.float64))) == pytest.approx(inner, rel=1e-5, abs=1e-5)
    assert float(np.sum(w * dw.astype(np.float64))) == pytest.approx(inner, rel=1e-5, abs=1e-5)


def test_cast_returns_the_gradient_in_the_source_dtype():
    rng = np.random.default_rng(48)
    a, r = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)).astype(np.float32)
    t = Tensor(a, requires_grad=True)
    y = cast(t, np.float32)
    assert y.values.dtype == np.float32 and np.array_equal(y.values, a.astype(np.float32))
    sum_all(mul(y, Tensor(r))).backward()
    assert t.grad.dtype == np.float64 and np.array_equal(t.grad, r.astype(np.float64))
    # and back: a float32 leaf through a float64 graph gets a float32 gradient
    t32 = Tensor(r, requires_grad=True)
    sum_all(mul(cast(t32, np.float64), Tensor(a))).backward()
    assert t32.grad.dtype == np.float32 and np.array_equal(t32.grad, a.astype(np.float32))
    # a float64 -> float64 cast is exact, in value and in gradient
    t = Tensor(a, requires_grad=True)
    same = cast(t, np.float64)
    assert same.values.dtype == np.float64 and np.array_equal(same.values, a)
    sum_all(mul(same, Tensor(a))).backward()
    assert np.array_equal(t.grad, a)
    # a Tensor keeps float32 values; anything else becomes float64
    assert Tensor(r).values.dtype == np.float32
    assert Tensor(np.arange(3)).values.dtype == np.float64
    t32 = Tensor(r, requires_grad=True)
    sum_all(take_index(t32, 1)).backward()
    assert t32.grad.dtype == np.float32


def test_conv2d_rejects_mismatched_kernel():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))))


def test_avgpool2_gradients():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 4, 6))
    _probe(lambda ts: sum_all(mul(avgpool2(ts[0]), avgpool2(ts[0]))), [x], 20)
    with pytest.raises(ValueError):
        avgpool2(Tensor(np.zeros((1, 1, 5, 4))))


def test_nearest_upsample2_gradients():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2, 3, 3))
    _probe(lambda ts: sum_all(mul(nearest_upsample2(ts[0]), nearest_upsample2(ts[0]))), [x], 22)
    t = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    sum_all(nearest_upsample2(t)).backward()
    assert np.allclose(t.grad, 4.0)  # each source pixel feeds 4 outputs


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("h, w", [(1, 1), (3, 5), (4, 4)])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("x_grad", [True, False])
def test_upsample_conv2d_equals_the_convolution_of_the_upsampled_input(n, h, w, bias, x_grad):
    rng = np.random.default_rng(47)
    x = rng.standard_normal((n, 3, h, w))
    k = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((n, 4, 2 * h, 2 * w))
    if not bias:
        # the convolution alone: a zero bias against the bias-free reference
        b = np.zeros(4)
    results = []
    for node in (upsample_conv2d,
                 lambda x, k, b: conv2d(nearest_upsample2(x), k, b if bias else None)):
        xt, kt = Tensor(x, requires_grad=x_grad), Tensor(k, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        y = node(xt, kt, bt)
        sum_all(mul(y, Tensor(r))).backward()
        results.append([y.values, xt.grad, kt.grad, bt.grad])
    got, want = results
    assert got[0].shape == (n, 4, 2 * h, 2 * w)
    assert (got[1] is None) == (not x_grad)
    assert np.abs(got[3] - r.sum(axis=(0, 2, 3))).max() < 1e-12
    for a, e in zip(got, want):
        if e is not None:
            assert np.abs(a - e).max() < 1e-12


def test_upsample_conv2d_gradients_and_float32():
    rng = np.random.default_rng(48)
    x = rng.standard_normal((2, 3, 3, 4))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    b = rng.standard_normal(4)
    _probe(lambda ts: sum_all(mul(upsample_conv2d(*ts), upsample_conv2d(*ts))), [x, w, b], 49)
    _probe(lambda ts: sum_all(upsample_conv2d(ts[0], ts[1], np.zeros(4))), [x, w], 50)
    leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in (x, w, b)]
    y = upsample_conv2d(*leaves)
    assert y.values.dtype == np.float32
    sum_all(y).backward()
    assert [t.grad.dtype for t in leaves] == [np.dtype(np.float32)] * 3
    with pytest.raises(ValueError):
        upsample_conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))),
                        Tensor(np.zeros(3)))


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float32, np.float64),
                                    (np.float64, np.float64)])
def test_squared_error_sum_is_the_sub_mul_sum_composition_bit_for_bit(dtypes):
    rng = np.random.default_rng(51)
    a = rng.standard_normal((3, 5, 7)).astype(dtypes[0])
    target = rng.standard_normal((3, 5, 7)).astype(dtypes[1])

    def chain(a, t):
        d = add(a, smul(t, -1.0))
        return sum_all(mul(d, d))

    results = []
    for loss in (squared_error_sum, chain):
        t = Tensor(a, requires_grad=True)
        out = smul(loss(t, target), 0.37)
        out.backward()
        results.append((out.values, t.grad))
    (got, got_grad), (want, want_grad) = results
    assert got.dtype == want.dtype == np.result_type(*dtypes)
    assert got.tobytes() == want.tobytes()
    assert got_grad.dtype == want_grad.dtype
    assert got_grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_and_upsample_adjoint_equal_the_reshape_reductions(dtype):
    # avgpool2 and the upsampling VJP add each 2x2 block in the order of numpy's
    # reduction over the reshaped block axes: the same bits, at any magnitude
    rng = np.random.default_rng(26)
    for n, c, h, w in ((1, 1, 4, 4), (2, 3, 6, 10), (3, 5, 8, 4), (1, 7, 32, 36)):
        for scale in (1e-30, 1.0, 1e30):
            spread = 10.0 ** rng.integers(-6, 7, (n, c, h, w))
            x = (scale * spread * rng.standard_normal((n, c, h, w))).astype(dtype)
            blocks = x.reshape(n, c, h // 2, 2, w // 2, 2)
            pooled = avgpool2(Tensor(x)).values
            assert pooled.dtype == dtype
            assert np.array_equal(pooled, blocks.mean(axis=(3, 5)))
            t = Tensor(np.zeros((n, c, h // 2, w // 2), dtype), requires_grad=True)
            sum_all(mul(nearest_upsample2(t), Tensor(x))).backward()
            assert t.grad.dtype == dtype
            assert np.array_equal(t.grad, blocks.sum(axis=(3, 5)))


def test_linear_gradients():
    rng = np.random.default_rng(23)
    x, w, b = rng.standard_normal((3, 5)), rng.standard_normal((5, 4)), rng.standard_normal(4)
    _probe(lambda ts: sum_all(mul(linear(*ts), linear(*ts))), [x, w, b], 24)
    _probe(lambda ts: sum_all(linear(ts[0], ts[1])), [x, w], 25)


def test_scale_shift_gradients():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((2, 3, 4, 4))
    scale, shift = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    _probe(lambda ts: sum_all(mul(scale_shift(*ts), scale_shift(*ts))), [x, scale, shift], 27)


# ---------------------------------------------------------------------------
# field primitives
# ---------------------------------------------------------------------------


def test_spectral_multiply_gradients():
    grid = Grid2(8, 8)
    op = MetricOperator(grid, alpha=2.0, gamma=1.0, power=2)
    rng = np.random.default_rng(28)
    x = rng.standard_normal((8, 8))
    _probe(lambda ts: sum_all(mul(spectral_multiply(op, ts[0]), ts[0])), [x], 29)


def test_finite_difference_gradients():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((7, 9))
    _probe(lambda ts: sum_all(mul(fd_dx(ts[0]), fd_dx(ts[0]))), [x], 32)
    _probe(lambda ts: sum_all(mul(fd_dy(ts[0]), fd_dy(ts[0]))), [x], 33)


def test_bilinear_warp_gradients():
    rng = np.random.default_rng(34)
    values = rng.standard_normal((8, 8))
    # keep sample points interior and off lattice lines (interpolation kinks)
    mx = keep_off_lattice(rng.uniform(1.3, 6.3, (8, 8)))
    my = keep_off_lattice(rng.uniform(1.3, 6.3, (8, 8)))
    _probe(lambda ts: sum_all(mul(bilinear_warp(*ts), bilinear_warp(*ts))), [values, mx, my], 35)


def test_field_primitives_on_a_stack_of_fields():
    rng = np.random.default_rng(48)
    values = rng.standard_normal((2, 8, 8))
    mx = keep_off_lattice(rng.uniform(1.3, 6.3, (2, 8, 8)))
    my = keep_off_lattice(rng.uniform(1.3, 6.3, (2, 8, 8)))
    _probe(lambda ts: sum_all(mul(bilinear_warp(*ts), fd_dx(fd_dy(ts[0])))), [values, mx, my],
           49)


def test_bilinear_warp_field_only_gradient():
    rng = np.random.default_rng(36)
    values = rng.standard_normal((6, 6))
    mx = keep_off_lattice(rng.uniform(1.2, 4.8, (6, 6)))
    my = keep_off_lattice(rng.uniform(1.2, 4.8, (6, 6)))
    _probe(lambda ts: sum_all(bilinear_warp(ts[0], Tensor(mx), Tensor(my))), [values], 37)


def test_bilinear_warp_with_shared_coordinates_equals_per_channel_warps():
    # one set of coordinates for both components of a (..., 2, H, W) stack
    rng = np.random.default_rng(50)
    for lead in ((), (3,)):
        values = rng.standard_normal(lead + (2, 7, 9))
        ys, xs = np.mgrid[0:7, 0:9].astype(np.float64)
        mx = xs + rng.uniform(-3.0, 3.0, lead + (1, 7, 9))  # reaches past every edge
        my = ys + rng.uniform(-3.0, 3.0, lead + (1, 7, 9))
        g = rng.standard_normal(values.shape)
        shared = [Tensor(a, requires_grad=True) for a in (values, mx, my)]
        out = bilinear_warp(*shared)
        sum_all(mul(out, Tensor(g))).backward()
        split = [Tensor(a, requires_grad=True) for a in (values, mx, my)]
        parts = [bilinear_warp(take_index(split[0], np.s_[..., c:c + 1, :, :]), split[1],
                               split[2]) for c in range(2)]
        sum_all(add(mul(parts[0], Tensor(g[..., 0:1, :, :])),
                    mul(parts[1], Tensor(g[..., 1:2, :, :])))).backward()
        assert np.array_equal(out.values, np.concatenate([p.values for p in parts], axis=-3))
        for a, b in zip(shared, split):
            assert a.grad.shape == b.grad.shape
            assert np.array_equal(a.grad, b.grad)


def _epdiff_force_by_components(v, m):
    # row r: sum_c dv_c/dx_r m_c + sum_c dm_r/dx_c v_c + m_r dv_c/dx_c
    d = (ddx, ddy)
    out = np.zeros_like(v)
    for r in range(2):
        for c in range(2):
            out[..., r, :, :] += (d[r](v[..., c, :, :]) * m[..., c, :, :]
                                  + d[c](m[..., r, :, :]) * v[..., c, :, :]
                                  + m[..., r, :, :] * d[c](v[..., c, :, :]))
    return out


# memory layouts of the force's inputs: C order, Fortran order, and C-order
# data read through negative strides on both image axes
_LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "reversed": lambda a: np.ascontiguousarray(a[..., ::-1, ::-1])[..., ::-1, ::-1],
}


@pytest.mark.parametrize("shape, layout", [
    pytest.param(shape, layout, id=f"shape{i}" + ("" if layout == "C" else f"-{layout}"))
    for layout in _LAYOUTS for i, shape in enumerate([(2, 5, 7), (3, 2, 6, 6)])])
def test_epdiff_force_value_gradient_and_adjoint(shape, layout):
    rng = np.random.default_rng(51)
    v, m, g = (_LAYOUTS[layout](rng.standard_normal(shape)) for _ in range(3))
    # the layout moves no bit of the force or of its adjoint
    dense = [np.ascontiguousarray(a) for a in (v, m, g)]
    assert np.array_equal(epdiff_force_values(v, m), epdiff_force_values(*dense[:2]))
    for a, b in zip(epdiff_force_adjoint(v, m, g), epdiff_force_adjoint(*dense)):
        assert np.array_equal(a, b)
    f = force_node(Tensor(v), Tensor(m)).values
    ref = _epdiff_force_by_components(v, m)
    assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))
    _probe(lambda ts: sum_all(mul(force_node(ts[0], ts[1]), ts[2])), [v, m, g], 52)
    # the force is bilinear, so its derivative along (dv, dm) is f(dv, m) + f(v, dm)
    # and <f'(v, m)[dv, dm], g> = <(dv, dm), VJP(g)>
    ts = [Tensor(v, requires_grad=True), Tensor(m, requires_grad=True)]
    sum_all(mul(force_node(*ts), Tensor(g))).backward()
    for _ in range(3):
        dv, dm = rng.standard_normal(shape), rng.standard_normal(shape)
        lhs = np.sum((_epdiff_force_by_components(dv, m) + _epdiff_force_by_components(v, dm))
                     * g)
        rhs = np.sum(dv * ts[0].grad) + np.sum(dm * ts[1].grad)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        add(t, t).backward()


def test_gradients_accumulate_across_backward_calls():
    t = Tensor(np.array([2.0]), requires_grad=True)
    loss = sum_all(mul(t, t))
    loss.backward()
    first = t.grad.copy()
    loss.backward()
    assert np.allclose(t.grad, 2.0 * first)


def test_shared_subexpression_sums_paths():
    t = Tensor(np.array([3.0]), requires_grad=True)
    y = mul(t, t)  # dy/dt = 2t
    sum_all(add(y, y)).backward()
    assert np.allclose(t.grad, 4.0 * 3.0)


def test_no_grad_disables_recording():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = mul(t, t)
    assert not out.requires_grad and out._parents == ()


def test_constants_collect_no_gradient():
    c = Tensor(np.ones((2, 2)))
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    sum_all(mul(c, t)).backward()
    assert c.grad is None and t.grad is not None
