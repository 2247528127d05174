"""Reverse-mode autodiff: every primitive against central finite differences."""

import numpy as np
import pytest

from cardiomotion.grid import Grid2, ddx, ddy
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.fieldops import (bilinear_warp, epdiff_force, fd_dx, fd_dy,
                                      spectral_multiply)
from cardiomotion.nn.tensor import (Tensor, add, add_n, avgpool2, concat_channels, constant,
                                    conv2d, linear, mul, nearest_upsample2, neg, no_grad, relu,
                                    reshape, scale_shift, smul, sqrt, sub, sum_all, take_index)
from helpers import directional_probe_check, keep_away_from, keep_off_lattice


def _probe(f, leaves, seed, **kw):
    directional_probe_check(f, leaves, np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# elementwise arithmetic and reductions
# ---------------------------------------------------------------------------


def test_add_sub_mul_gradients():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
    _probe(lambda ts: sum_all(mul(add(ts[0], ts[1]), sub(ts[0], ts[1]))), [a, b], 1)


def test_broadcast_operands_get_gradients_of_their_own_shape():
    rng = np.random.default_rng(6)
    a, b, c = rng.standard_normal(2), rng.standard_normal((3, 2)), rng.standard_normal((3, 1))
    ts = [Tensor(x, requires_grad=True) for x in (a, b, c)]
    sum_all(add(mul(sub(ts[1], ts[0]), ts[2]), ts[0])).backward()
    # f = sum_ij (b_ij - a_j) c_i + a_j
    assert np.allclose(ts[0].grad, 3.0 - c.sum(), rtol=0, atol=1e-12)
    assert np.allclose(ts[1].grad, np.broadcast_to(c, (3, 2)), rtol=0, atol=1e-12)
    assert np.allclose(ts[2].grad, (b - a).sum(axis=1, keepdims=True), rtol=0, atol=1e-12)
    assert [t.grad.shape for t in ts] == [(2,), (3, 2), (3, 1)]


def test_smul_neg_gradients():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    _probe(lambda ts: sum_all(neg(smul(ts[0], 2.5))), [a], 3)
    t = Tensor(a, requires_grad=True)
    sum_all(smul(t, -3.0)).backward()
    assert np.allclose(t.grad, -3.0)


def test_sum_all_gradient_is_ones():
    t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    sum_all(t).backward()
    assert np.array_equal(t.grad, np.ones((2, 3)))


def test_add_n_matches_repeated_add():
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((3, 3)) for _ in range(4)]
    _probe(lambda ts: sum_all(mul(add_n(ts), add_n(ts))), parts, 5)


def test_relu_gradient_masks_negatives():
    rng = np.random.default_rng(6)
    a = keep_away_from(rng.standard_normal((6, 6)), 0.0)
    _probe(lambda ts: sum_all(mul(relu(ts[0]), relu(ts[0]))), [a], 7)
    t = Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    sum_all(relu(t)).backward()
    assert np.array_equal(t.grad, np.array([[0.0, 1.0]]))


def test_sqrt_gradient():
    rng = np.random.default_rng(8)
    a = 0.5 + rng.random((4, 5))
    _probe(lambda ts: sum_all(mul(sqrt(ts[0]), sqrt(ts[0]))), [a], 9)
    t = Tensor(np.array([4.0]), requires_grad=True)
    sum_all(sqrt(t)).backward()
    assert np.allclose(t.grad, 0.25)


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def test_reshape_gradient_round_trips():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 12))
    w = rng.standard_normal((2, 3, 4))
    _probe(lambda ts: sum_all(mul(reshape(ts[0], (2, 3, 4)), constant(w))), [a], 11)


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
    sum_all(mul(conv2d(xt, wt), constant(r))).backward()
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
    dx, dw, db = conv2d(constant(x), w, b)._vjp(g)
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
    _probe(lambda ts: sum_all(mul(spectral_multiply(op, ts[0], inverse=True), ts[0])), [x], 30)


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
    _probe(lambda ts: sum_all(bilinear_warp(ts[0], constant(mx), constant(my))), [values], 37)


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
        sum_all(mul(out, constant(g))).backward()
        split = [Tensor(a, requires_grad=True) for a in (values, mx, my)]
        parts = [bilinear_warp(take_index(split[0], np.s_[..., c:c + 1, :, :]), split[1],
                               split[2]) for c in range(2)]
        sum_all(add(mul(parts[0], constant(g[..., 0:1, :, :])),
                    mul(parts[1], constant(g[..., 1:2, :, :])))).backward()
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


@pytest.mark.parametrize("shape", [(2, 5, 7), (3, 2, 6, 6)])
def test_epdiff_force_value_gradient_and_adjoint(shape):
    rng = np.random.default_rng(51)
    v, m, g = (rng.standard_normal(shape) for _ in range(3))
    f = epdiff_force(constant(v), constant(m)).values
    ref = _epdiff_force_by_components(v, m)
    assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))
    _probe(lambda ts: sum_all(mul(epdiff_force(ts[0], ts[1]), ts[2])), [v, m, g], 52)
    # the force is bilinear, so its derivative along (dv, dm) is f(dv, m) + f(v, dm)
    # and <f'(v, m)[dv, dm], g> = <(dv, dm), VJP(g)>
    ts = [Tensor(v, requires_grad=True), Tensor(m, requires_grad=True)]
    sum_all(mul(epdiff_force(*ts), constant(g))).backward()
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
    c = constant(np.ones((2, 2)))
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    sum_all(mul(c, t)).backward()
    assert c.grad is None and t.grad is not None
