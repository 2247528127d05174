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
of T.  ``integrate_epdiff`` returns the N velocities stacked as one
(N, ..., 2, H, W) Tensor, which the flows take.  EPDiff integration and
the inverse flow are one graph node each, whose backward pass is the
exact adjoint of the discrete steps above (discretize, then
differentiate), run from the last step to the first over the states
the forward pass kept; the forward flow, which only ``shoot`` needs,
is a composition of ``nn`` Tensor operations.  ``shoot`` evaluates all
three under ``no_grad``; the registration energy records the EPDiff
and inverse-flow nodes as its graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .grid import (MapField, VectorField, bilinear_adjoint_field, bilinear_apply,
                   bilinear_coord_derivatives, bilinear_prepare, coordinate_arrays)
from .metric import MetricOperator
from .nn.fieldops import bilinear_warp, epdiff_force_adjoint, epdiff_force_values, force_work
from .nn.tensor import Tensor, _as_tensor, _make, add, constant, no_grad, smul, take_index

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


def integrate_epdiff(cfg: ShootingConfig, v, m=None) -> Tensor:
    """Forward-Euler velocities v_0 .. v_{N-1} from v_0 = v, stacked on a new axis 0.

    ``v`` is a (..., 2, H, W) Tensor and ``m`` its momentum L v, computed
    when not given.  One graph node: it keeps every v_k and m_k, and its
    backward pass runs the adjoint of the Euler steps from the last to the
    first.  With a_v and a_m the gradients reaching v_{k+1} and m_{k+1},
    the force f_k receives g_f = -dt (K a_v + a_m); the force adjoint
    carries g_f to (v_k, m_k), where it adds to a_v and a_m along with the
    gradient of the output v_k itself.
    """
    v = _as_tensor(v)
    parents = (v,) if m is None else (v, _as_tensor(m))
    op = cfg.operator
    n, dt = cfg.num_steps, 1.0 / cfg.num_steps
    vs = np.empty((n,) + v.shape)
    ms = np.empty((n - 1,) + v.shape)  # m_0 .. m_{N-2}: the last momentum drives no step
    vs[0] = v.values
    work = force_work(v.shape)
    m_k = op.multiply(v.values) if m is None else parents[1].values
    for k in range(n - 1):
        ms[k] = m_k
        f = epdiff_force_values(vs[k], ms[k], work)
        np.subtract(vs[k], op.multiply(f, inverse=True) * dt, out=vs[k + 1])
        if not np.all(np.isfinite(vs[k + 1])):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        f *= dt
        m_k = np.subtract(ms[k], f, out=f)

    def vjp(g):
        work = force_work(v.shape)
        a_v = g[n - 1].copy()
        a_m = np.zeros(v.shape)
        for k in range(n - 2, -1, -1):
            g_f = op.multiply(a_v, inverse=True)
            g_f += a_m
            g_f *= -dt
            g_v, g_m = epdiff_force_adjoint(vs[k], ms[k], g_f, work)
            a_v += g_v
            a_v += g[k]
            a_m += g_m
        if m is None:  # m_0 = L v_0
            return (a_v + op.multiply(a_m),)
        return (a_v, a_m)

    return _make(vs, parents, vjp)


def _identity(cfg: ShootingConfig, velocities: Tensor) -> np.ndarray:
    """Identity map coordinates shaped like one velocity, after checking the velocity count."""
    if velocities.shape[0] != cfg.num_steps:
        raise ValueError(f"expected {cfg.num_steps} velocities, got {velocities.shape[0]}")
    xs, ys = coordinate_arrays(cfg.operator.grid)
    return np.broadcast_to(np.stack([xs, ys]), velocities.shape[1:])


def integrate_inverse_flow(cfg: ShootingConfig, velocities) -> Tensor:
    """phi_1^-1 accumulated by semi-Lagrangian pullback, as (x, y) coordinates.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    One graph node: it keeps each step's sample coordinates (their
    ``bilinear_prepare`` output) and the map phi_k they sample.  Its
    backward pass runs from the last step to the first: the derivatives of
    phi_k with respect to the coordinates give the gradient of v_k, and the
    adjoint of the sampling carries the gradient on to phi_k.
    """
    velocities = _as_tensor(velocities)
    ident = _identity(cfg, velocities)
    vs = velocities.values
    shape, dt = ident.shape, 1.0 / cfg.num_steps
    maps, samples = [], []
    phi = ident
    for w in vs:
        q = w * -dt
        q += ident
        prep = bilinear_prepare(shape, q[_X], q[_Y])
        maps.append(phi)
        samples.append(prep)
        phi = bilinear_apply(phi, *prep[:3])

    def vjp(g):
        grad = np.empty(vs.shape)
        for k in range(len(vs) - 1, -1, -1):
            idx, tx, ty, _, _ = samples[k]
            for axis, d in zip((_X, _Y), bilinear_coord_derivatives(maps[k], *samples[k])):
                d *= g
                np.sum(d, axis=-3, keepdims=True, out=grad[k][axis])
            grad[k] *= -dt
            if k:  # phi_0 is the identity, a constant
                g = bilinear_adjoint_field(shape, idx, tx, ty, g)
        return (grad,)

    return _make(phi, (velocities,), vjp)


def integrate_forward_flow(cfg: ShootingConfig, velocities) -> Tensor:
    """phi_1 accumulated by Euler steps along the velocity at the mapped point.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    """
    velocities = _as_tensor(velocities)
    phi = constant(_identity(cfg, velocities))
    dt = 1.0 / cfg.num_steps
    for k in range(cfg.num_steps):
        sampled = bilinear_warp(take_index(velocities, k), take_index(phi, _X),
                                take_index(phi, _Y))
        phi = add(phi, smul(sampled, dt))
    return phi


def shoot(cfg: ShootingConfig, v0: VectorField) -> GeodesicPath:
    """Integrate EPDiff from v0 and accumulate both endpoint maps."""
    cfg.operator._check(v0)
    grid = v0.grid
    with no_grad():
        velocities = integrate_epdiff(cfg, constant(v0.values))
        inverse = integrate_inverse_flow(cfg, velocities)
        forward = integrate_forward_flow(cfg, velocities)
    return GeodesicPath(
        velocities=[VectorField(grid, *v) for v in velocities.values],
        inverse_map=MapField(grid, *inverse.values),
        forward_map=MapField(grid, *forward.values),
    )


__all__ = [
    "ShootingConfig",
    "GeodesicPath",
    "integrate_epdiff",
    "integrate_inverse_flow",
    "integrate_forward_flow",
    "shoot",
]
