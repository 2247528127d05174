"""Differentiable field primitives.

Thin Tensor wrappers over the numpy kernels of ``grid`` and ``metric``
(spectral multipliers, bilinear interpolation, centred finite differences),
each paired with its hand-derived adjoint so registration energies and
motion losses can be differentiated exactly through flow integration.
``epdiff_force`` fuses the EPDiff force into one node; its values and
adjoint are plain array functions, which the EPDiff node of ``geodesic``
calls once per Euler step with one scratch stack (``force_work``) for
all of them.
Vector fields are stacked with their (x, y) components on axis -3.
"""

from __future__ import annotations

import numpy as np

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


def _sum_components(a, out):
    """a_x + a_y of a (..., 2, H, W) stack, written to the (..., H, W) array ``out``."""
    return np.add(a[..., 0, :, :], a[..., 1, :, :], out=out)


def force_work(shape) -> np.ndarray:
    """Scratch for ``epdiff_force_values`` and ``epdiff_force_adjoint`` on fields of ``shape``.

    Six arrays of that shape.  A caller that loops over steps allocates it
    once and passes it to every call.
    """
    return np.empty((6,) + tuple(shape))


def _derivatives(v, m, work):
    """d/dx and d/dy of each component of v and of m, written to work[0:4].

    Component c of the first is dv_c/dx, of the second dv_c/dy.
    """
    dvx, dvy, dmx, dmy = work[:4]
    ddx(v, out=dvx)
    ddy(v, out=dvy)
    ddx(m, out=dmx)
    ddy(m, out=dmy)
    return dvx, dvy, dmx, dmy


def epdiff_force_values(v, m, work=None):
    """The EPDiff force (Dv)^T m + (Dm) v + m div v of (..., 2, H, W) arrays v and m.

    Rows r of the terms are sum_c dv_c/dx_r m_c, sum_c dm_r/dx_c v_c and
    m_r div v.  ``work`` is a ``force_work`` array, allocated when not
    given; the result is a new array.
    """
    work = force_work(v.shape) if work is None else work
    dvx, dvy, dmx, dmy = _derivatives(v, m, work)
    t = work[4]
    div = np.add(_component(dvx, 0), _component(dvy, 1), out=_component(t, 0))
    f = np.multiply(dmx, _component(v, 0))
    f += np.multiply(dmy, _component(v, 1), out=dmx)
    f += np.multiply(m, div, out=dmy)
    for r, d in ((0, dvx), (1, dvy)):
        f[..., r, :, :] += _sum_components(np.multiply(d, m, out=d), t[..., 1, :, :])
    return f


def epdiff_force_adjoint(v, m, g, work=None):
    """(g_v, g_m): the gradients of <g, epdiff_force_values(v, m)> with respect to v and m.

    The derivatives of v and m are recomputed rather than kept.  The terms
    that a finite-difference adjoint acts on are summed before applying it:
    one d/dx and one d/dy adjoint of a (..., 2, H, W) stack for each input.
    ``work`` is as for ``epdiff_force_values``; the results are new arrays.
    """
    work = force_work(v.shape) if work is None else work
    dvx, dvy, dmx, dmy = _derivatives(v, m, work)
    p, q = work[4], work[5]
    vx, vy = _component(v, 0), _component(v, 1)
    gx, gy = _component(g, 0), _component(g, 1)
    # momentum: the d/dx and d/dy adjoints of g vx and g vy, plus
    # gx dv/dx + gy dv/dy + g div v
    gm = ddx_adjoint(np.multiply(g, vx, out=p))
    gm += ddy_adjoint(np.multiply(g, vy, out=p), out=q)
    local = np.multiply(gx, dvx, out=p)
    local += np.multiply(gy, dvy, out=q)
    div = np.add(_component(dvx, 0), _component(dvy, 1), out=_component(q, 0))
    local += np.multiply(g, div, out=dvx)
    gm += local
    # velocity: the d/dx and d/dy adjoints of gx m + (s, 0) and gy m + (0, s),
    # s = <g, m> over components, plus (<g, dm/dx>, <g, dm/dy>)
    s = _sum_components(np.multiply(g, m, out=p), dvy[..., 0, :, :])
    px = np.multiply(gx, m, out=p)
    px[..., 0, :, :] += s
    py = np.multiply(gy, m, out=q)
    py[..., 1, :, :] += s
    gv = ddx_adjoint(px)
    gv += ddy_adjoint(py, out=p)
    for r, d in ((0, dmx), (1, dmy)):
        gv[..., r, :, :] += _sum_components(np.multiply(g, d, out=d), dvy[..., 0, :, :])
    return gv, gm


def epdiff_force(v, m) -> Tensor:
    """The EPDiff force of velocity v and momentum m as one node.

    v and m are (..., 2, H, W) stacks; so is the result.  The graph holds
    only v and m: the backward pass recomputes their derivatives.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    vv, mv = v.values, m.values
    return _make(epdiff_force_values(vv, mv), (v, m),
                 lambda g: epdiff_force_adjoint(vv, mv, g))


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
