"""Differentiable field primitives.

Thin Tensor wrappers over the numpy kernels of ``grid`` and ``metric``
(spectral multipliers, bilinear interpolation, centred finite differences),
each paired with its hand-derived adjoint so registration energies and
motion losses can be differentiated exactly through flow integration.
``epdiff_force`` fuses the EPDiff force into one node with its own adjoint.
Vector fields are stacked with their (x, y) components on axis -3.
"""

from __future__ import annotations

from ..grid import (
    bilinear_adjoint_field,
    bilinear_apply,
    bilinear_coord_derivatives,
    bilinear_prepare,
    ddx,
    ddx_adjoint,
    ddy,
    ddy_adjoint,
)
from ..metric import MetricOperator
from .tensor import Tensor, _as_tensor, _make, _unbroadcast


def spectral_multiply(op: MetricOperator, x, inverse: bool = False) -> Tensor:
    """Apply the metric multiplier (or its inverse) to an (..., H, W) tensor.

    The operator is real and self-adjoint, so the backward pass is the
    same multiplication applied to the incoming gradient.
    """
    x = _as_tensor(x)
    y = op.multiply(x.values, inverse=inverse)
    return _make(y, (x,), lambda g: (op.multiply(g, inverse=inverse),))


def fd_dx(x) -> Tensor:
    """Partial derivative along x (columns), central in the interior."""
    x = _as_tensor(x)
    return _make(ddx(x.values), (x,), lambda g: (ddx_adjoint(g),))


def fd_dy(x) -> Tensor:
    """Partial derivative along y (rows), central in the interior."""
    x = _as_tensor(x)
    return _make(ddy(x.values), (x,), lambda g: (ddy_adjoint(g),))


def _component(a, k: int):
    """Component k of a stacked (..., 2, H, W) field, keeping the axis."""
    return a[..., k:k + 1, :, :]


def _derivatives(v, m):
    """d/dx and d/dy of each component of v and of m, and div v."""
    dvx, dvy = ddx(v), ddy(v)  # component c is dv_c/dx, dv_c/dy
    return dvx, dvy, ddx(m), ddy(m), _component(dvx, 0) + _component(dvy, 1)


def epdiff_force(v, m) -> Tensor:
    """The EPDiff force (Dv)^T m + (Dm) v + m div v of velocity v and momentum m.

    v and m are (..., 2, H, W) stacks; so is the result.  Rows r of the
    terms are sum_c dv_c/dx_r m_c, sum_c dm_r/dx_c v_c and m_r div v.  The
    backward pass sums the terms that a finite-difference adjoint acts on
    before applying it: one d/dx and one d/dy adjoint of a (..., 2, H, W)
    stack for each input.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    vv, mv = v.values, m.values
    vx, vy = _component(vv, 0), _component(vv, 1)
    dvx, dvy, dmx, dmy, div = _derivatives(vv, mv)
    f = dmx * vx + dmy * vy + mv * div
    f[..., 0, :, :] += (dvx * mv).sum(axis=-3)
    f[..., 1, :, :] += (dvy * mv).sum(axis=-3)

    def vjp(g):
        # recomputed rather than kept: the graph holds only v and m per step
        dvx, dvy, dmx, dmy, div = _derivatives(vv, mv)
        gx, gy = _component(g, 0), _component(g, 1)
        s = (g * mv).sum(axis=-3)
        # velocity: the d/dx and d/dy adjoints of gx m + (s, 0) and gy m + (0, s)
        px, py = gx * mv, gy * mv
        px[..., 0, :, :] += s
        py[..., 1, :, :] += s
        gv = ddx_adjoint(px)
        gv += ddy_adjoint(py)
        gv[..., 0, :, :] += (g * dmx).sum(axis=-3)
        gv[..., 1, :, :] += (g * dmy).sum(axis=-3)
        # momentum: the d/dx and d/dy adjoints of g vx and g vy
        gm = ddx_adjoint(g * vx)
        gm += ddy_adjoint(g * vy)
        gm += gx * dvx + gy * dvy + g * div
        return (gv, gm)

    return _make(f, (v, m), vjp)


def bilinear_warp(values, mx, my) -> Tensor:
    """Sample ``values`` at absolute coordinates (mx, my).

    ``values`` is (..., H, W).  The coordinates are (..., H, W) with
    leading axes that match the field's or are 1 (so one set of
    coordinates samples both components of a (..., 2, H, W) stack), or
    any shape when ``values`` is a single (H, W) field.

    Differentiable with respect to both the sampled field and the sample
    coordinates.  Coordinate gradients vanish where the lookup clamps to
    the domain boundary, matching the piecewise definition of clamped
    bilinear interpolation.
    """
    values, mx, my = _as_tensor(values), _as_tensor(mx), _as_tensor(my)
    shape = values.values.shape
    idx, tx, ty, inx, iny = bilinear_prepare(shape, mx.values, my.values)
    out = bilinear_apply(values.values, idx, tx, ty)

    def vjp(g):
        gv = bilinear_adjoint_field(shape, idx, tx, ty, g) if values.requires_grad else None
        if mx.requires_grad or my.requires_grad:
            dx, dy = bilinear_coord_derivatives(values.values, idx, tx, ty, inx, iny)
            return (gv, _unbroadcast(g * dx, mx.values.shape),
                    _unbroadcast(g * dy, my.values.shape))
        return (gv, None, None)

    return _make(out, (values, mx, my), vjp)
