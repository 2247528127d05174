"""Differentiable field primitives.

Thin Tensor wrappers over the same kernels the plain-numpy pipeline uses
(spectral multipliers, bilinear interpolation, centred finite differences),
each paired with its hand-derived adjoint so registration energies and
motion losses can be differentiated exactly through flow integration.
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
from .tensor import Tensor, _as_tensor, _make


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


def bilinear_warp(values, mx, my) -> Tensor:
    """Sample ``values`` at absolute coordinates (mx, my).

    ``values`` is (..., H, W).  The coordinates are (..., H, W) with the
    same leading axes, or any shape when ``values`` is a single (H, W)
    field.

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
            return (gv, g * dx, g * dy)
        return (gv, None, None)

    return _make(out, (values, mx, my), vjp)
