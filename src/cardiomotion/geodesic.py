"""Geodesic shooting: EPDiff integration and flow maps.

An initial velocity v0 determines the whole deformation path.  The
velocity evolves by

    dv/dt = -K [ (Dv)^T m + (Dm) v + m div v ],   m = L v,

integrated with forward Euler, and the deformation maps are accumulated
from the per-step velocities:

    forward:  phi_{k+1} = phi_k + dt * (v_k o phi_k)
    inverse:  phi_{k+1}^-1 (x) = phi_k^-1 (x - dt * v_k(x))

The step and both flows are written once, as ``nn`` Tensor computations
over (H, W) fields or (T, H, W) stacks of fields.  ``shoot`` evaluates
them under ``no_grad``; the registration energy records the same
computation as a graph and differentiates it in reverse mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .grid import MapField, VectorField, coordinate_arrays
from .metric import MetricOperator
from .nn.fieldops import bilinear_warp, fd_dx, fd_dy, spectral_multiply
from .nn.tensor import Tensor, add, constant, mul, neg, no_grad, smul, sub


@dataclass
class ShootingConfig:
    """Time discretization of [0, 1] plus the metric operator."""

    num_steps: int
    operator: MetricOperator

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")


@dataclass
class GeodesicPath:
    """Per-step velocities and the endpoint maps of one geodesic."""

    velocities: list
    inverse_map: MapField
    forward_map: MapField


def epdiff_rhs(op: MetricOperator, vx: Tensor, vy: Tensor) -> tuple[Tensor, Tensor]:
    """Right-hand side of the geodesic velocity evolution, per component."""
    mx = spectral_multiply(op, vx)
    my = spectral_multiply(op, vy)
    dvx_dx, dvx_dy = fd_dx(vx), fd_dy(vx)
    dvy_dx, dvy_dy = fd_dx(vy), fd_dy(vy)
    # (Dv)^T m : row r is sum_c dv_c/dx_r * m_c
    ax = add(mul(dvx_dx, mx), mul(dvy_dx, my))
    ay = add(mul(dvx_dy, mx), mul(dvy_dy, my))
    # (Dm) v : row r is sum_c dm_r/dx_c * v_c
    bx = add(mul(fd_dx(mx), vx), mul(fd_dy(mx), vy))
    by = add(mul(fd_dx(my), vx), mul(fd_dy(my), vy))
    # m div v
    div = add(dvx_dx, dvy_dy)
    cx = mul(mx, div)
    cy = mul(my, div)
    rx = neg(spectral_multiply(op, add(add(ax, bx), cx), inverse=True))
    ry = neg(spectral_multiply(op, add(add(ay, by), cy), inverse=True))
    return rx, ry


def integrate_epdiff(cfg: ShootingConfig, vx: Tensor, vy: Tensor) -> list:
    """Forward-Euler velocity sequence [(vx_0, vy_0) .. (vx_{N-1}, vy_{N-1})]."""
    dt = 1.0 / cfg.num_steps
    velocities = [(vx, vy)]
    for k in range(cfg.num_steps - 1):
        rx, ry = epdiff_rhs(cfg.operator, vx, vy)
        vx = add(vx, smul(rx, dt))
        vy = add(vy, smul(ry, dt))
        if not (np.all(np.isfinite(vx.values)) and np.all(np.isfinite(vy.values))):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        velocities.append((vx, vy))
    return velocities


def _identity(cfg: ShootingConfig, velocities: list) -> tuple[Tensor, Tensor]:
    """Identity map coordinates shaped like the velocities, after checking their count."""
    if len(velocities) != cfg.num_steps:
        raise ValueError(f"expected {cfg.num_steps} velocities, got {len(velocities)}")
    shape = velocities[0][0].shape
    xs, ys = coordinate_arrays(cfg.operator.grid)
    return constant(np.broadcast_to(xs, shape)), constant(np.broadcast_to(ys, shape))


def integrate_inverse_flow(cfg: ShootingConfig, velocities: list) -> tuple[Tensor, Tensor]:
    """phi_1^-1 accumulated by semi-Lagrangian pullback, as (x, y) coordinates."""
    xs, ys = _identity(cfg, velocities)
    dt = 1.0 / cfg.num_steps
    px, py = xs, ys
    for wx, wy in velocities:
        qx = sub(xs, smul(wx, dt))
        qy = sub(ys, smul(wy, dt))
        px = bilinear_warp(px, qx, qy)
        py = bilinear_warp(py, qx, qy)
    return px, py


def integrate_forward_flow(cfg: ShootingConfig, velocities: list) -> tuple[Tensor, Tensor]:
    """phi_1 accumulated by Euler steps along the velocity at the mapped point."""
    px, py = _identity(cfg, velocities)
    dt = 1.0 / cfg.num_steps
    for wx, wy in velocities:
        mx = bilinear_warp(wx, px, py)
        my = bilinear_warp(wy, px, py)
        px = add(px, smul(mx, dt))
        py = add(py, smul(my, dt))
    return px, py


def shoot(cfg: ShootingConfig, v0: VectorField) -> GeodesicPath:
    """Integrate EPDiff from v0 and accumulate both endpoint maps."""
    cfg.operator._check(v0)
    grid = v0.grid
    with no_grad():
        velocities = integrate_epdiff(cfg, constant(v0.x_component), constant(v0.y_component))
        inverse = integrate_inverse_flow(cfg, velocities)
        forward = integrate_forward_flow(cfg, velocities)

    def field(x: Tensor, y: Tensor) -> VectorField:
        return VectorField(grid, x.values, y.values)

    return GeodesicPath(
        velocities=[field(vx, vy) for vx, vy in velocities],
        inverse_map=MapField(grid, field(*inverse)),
        forward_map=MapField(grid, field(*forward)),
    )


__all__ = [
    "ShootingConfig",
    "GeodesicPath",
    "epdiff_rhs",
    "integrate_epdiff",
    "integrate_inverse_flow",
    "integrate_forward_flow",
    "shoot",
]
