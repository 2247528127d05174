"""Geodesic shooting: EPDiff integration and flow maps.

An initial velocity v0 determines the whole deformation path.  In
momentum form, EPDiff reads

    dm/dt = -f(v, m),   f = (Dv)^T m + (Dm) v + m div v,   m = L v,

and forward Euler carries the momentum along with the velocity,

    m_{k+1} = m_k - dt * f_k,    v_{k+1} = v_k - dt * K f_k.

This is the same discrete velocity sequence as Euler steps of
dv/dt = -K f(v, L v): L K = I on the periodic grid, so L v_{k+1} =
m_{k+1} in exact arithmetic, and each step needs one K multiply
instead of recomputing m = L v.  The deformation maps are accumulated
from the per-step velocities:

    forward:  phi_{k+1} = phi_k + dt * (v_k o phi_k)
    inverse:  phi_{k+1}^-1 (x) = phi_k^-1 (x - dt * v_k(x))

Velocities, momenta and maps are (..., 2, H, W) Tensors, the (x, y)
components on axis -3; (2, H, W) is one field and (T, 2, H, W) a stack
of T.  The step and both flows are written once, as ``nn`` Tensor
computations.  ``shoot`` evaluates them under ``no_grad``; the
registration energy records the same computation as a graph and
differentiates it in reverse mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .grid import MapField, VectorField, coordinate_arrays
from .metric import MetricOperator
from .nn.fieldops import bilinear_warp, epdiff_force, spectral_multiply
from .nn.tensor import Tensor, add, constant, no_grad, smul, sub, take_index

# one component of a (..., 2, H, W) stack, kept as a (..., 1, H, W) axis
_X, _Y = np.s_[..., 0:1, :, :], np.s_[..., 1:2, :, :]


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


def integrate_epdiff(cfg: ShootingConfig, v: Tensor, m: Tensor | None = None) -> list:
    """Forward-Euler velocity sequence [v_0 .. v_{N-1}] from v_0 = v.

    ``m`` is the initial momentum L v; it is computed when not given.
    """
    op = cfg.operator
    dt = 1.0 / cfg.num_steps
    if m is None:
        m = spectral_multiply(op, v)
    velocities = [v]
    for k in range(cfg.num_steps - 1):
        f = epdiff_force(v, m)
        v = sub(v, smul(spectral_multiply(op, f, inverse=True), dt))
        if not np.all(np.isfinite(v.values)):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        m = sub(m, smul(f, dt))
        velocities.append(v)
    return velocities


def _identity(cfg: ShootingConfig, velocities: list) -> Tensor:
    """Identity map coordinates shaped like the velocities, after checking their count."""
    if len(velocities) != cfg.num_steps:
        raise ValueError(f"expected {cfg.num_steps} velocities, got {len(velocities)}")
    xs, ys = coordinate_arrays(cfg.operator.grid)
    return constant(np.broadcast_to(np.stack([xs, ys]), velocities[0].shape))


def integrate_inverse_flow(cfg: ShootingConfig, velocities: list) -> Tensor:
    """phi_1^-1 accumulated by semi-Lagrangian pullback, as (x, y) coordinates."""
    ident = _identity(cfg, velocities)
    dt = 1.0 / cfg.num_steps
    phi = ident
    for w in velocities:
        q = sub(ident, smul(w, dt))
        phi = bilinear_warp(phi, take_index(q, _X), take_index(q, _Y))
    return phi


def integrate_forward_flow(cfg: ShootingConfig, velocities: list) -> Tensor:
    """phi_1 accumulated by Euler steps along the velocity at the mapped point."""
    phi = _identity(cfg, velocities)
    dt = 1.0 / cfg.num_steps
    for w in velocities:
        sampled = bilinear_warp(w, take_index(phi, _X), take_index(phi, _Y))
        phi = add(phi, smul(sampled, dt))
    return phi


def shoot(cfg: ShootingConfig, v0: VectorField) -> GeodesicPath:
    """Integrate EPDiff from v0 and accumulate both endpoint maps."""
    cfg.operator._check(v0)
    grid = v0.grid
    with no_grad():
        velocities = integrate_epdiff(cfg, constant(np.stack([v0.x_component, v0.y_component])))
        inverse = integrate_inverse_flow(cfg, velocities)
        forward = integrate_forward_flow(cfg, velocities)

    def field(t: Tensor) -> VectorField:
        return VectorField(grid, t.values[0], t.values[1])

    return GeodesicPath(
        velocities=[field(v) for v in velocities],
        inverse_map=MapField(grid, field(inverse)),
        forward_map=MapField(grid, field(forward)),
    )


__all__ = [
    "ShootingConfig",
    "GeodesicPath",
    "integrate_epdiff",
    "integrate_inverse_flow",
    "integrate_forward_flow",
    "shoot",
]
