"""Geodesic shooting: EPDiff integration and flow maps.

An initial velocity v0 determines the whole deformation path.  In
momentum form, EPDiff reads

    dm/dt = -f(v, m),   f = (Dv)^T m + (Dm) v + m div v,   m = L v,

and forward Euler carries the momentum along with the velocity,

    m_{k+1} = m_k - dt * f_k,    v_{k+1} = v_k - dt * K f_k.

This is the same discrete velocity sequence as Euler steps of
dv/dt = -K f(v, L v): L K = I on the periodic grid, so L v_{k+1} =
m_{k+1} in exact arithmetic, and each step needs one K multiply
instead of recomputing m = L v.  The force f and its adjoint are array
functions (``epdiff_force_values``, ``epdiff_force_adjoint``) that the
EPDiff node calls once per Euler step.  The deformation maps are
accumulated from the per-step velocities:

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
runs on the bilinear kernels and records no graph.  The registration
energy records the EPDiff and inverse-flow nodes as its graph.  The
nodes always keep the velocities, their output and the flows' input;
the momenta, maps and sample sets that only the backward pass reads are
kept only while the node records (``nn.tensor.recording``).  Without a
graph (``shoot``, ``energy``, an evaluation under ``no_grad``) each loop
holds only its current momentum, map and sample set, and returns the
same bits.

Every array the two nodes allocate (velocities, momenta, maps, their
gradients and the identity coordinates) takes the dtype of the velocity,
and the kernels they call keep it: registration-net training shoots in
float32, while ``shoot`` and the direct registration path shoot in
float64.

The fields of a (T, 2, H, W) stack are independent geodesics, and every
operation of the two nodes acts on one field at a time.  Both nodes run
their step loops inline over the whole stack; registration-net training
shoots its stacks in groups of pairs on worker processes
(``registration``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .grid import (MapField, VectorField, bilinear_adjoint_field, bilinear_apply,
                   bilinear_coord_derivatives, bilinear_prepare, bilinear_sample,
                   coordinate_arrays, ddx, ddx_adjoint, ddy, ddy_adjoint)
from .metric import MetricOperator
from .nn.tensor import Tensor, _as_tensor, _make, recording

# one component of a (..., 2, H, W) stack, kept as a (..., 1, H, W) axis
_X, _Y = np.s_[..., 0:1, :, :], np.s_[..., 1:2, :, :]


# the shooting nodes keep every step's velocity, and while recording its
# momentum, map and sample set too
MAX_STEPS = 10_000


@dataclass
class ShootingConfig:
    """Time discretization of [0, 1] plus the metric operator."""

    num_steps: int
    operator: MetricOperator

    def __post_init__(self):
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")


@dataclass
class GeodesicPath:
    """The (N, 2, H, W) per-step velocities and the endpoint maps of one geodesic."""

    velocities: np.ndarray
    inverse_map: MapField
    forward_map: MapField


def epdiff_force_values(v, m):
    """The EPDiff force (Dv)^T m + (Dm) v + m div v of (..., 2, H, W) arrays v and m.

    Rows r of the terms are sum_c dv_c/dx_r m_c, sum_c dm_r/dx_c v_c and
    m_r div v; the sums over c run over the component axis.
    """
    dvx, dvy, dmx, dmy = ddx(v), ddy(v), ddx(m), ddy(m)
    f = dmx * v[_X]
    f += dmy * v[_Y]
    f += m * (dvx[_X] + dvy[_Y])
    for r, d in ((0, dvx), (1, dvy)):
        f[..., r, :, :] += (d * m).sum(axis=-3)
    return f


def epdiff_force_adjoint(v, m, g):
    """(g_v, g_m): the gradients of <g, epdiff_force_values(v, m)> with respect to v and m.

    The derivatives of v and m are recomputed rather than kept.  The terms
    that a finite-difference adjoint acts on are summed before applying it:
    one d/dx and one d/dy adjoint of a (..., 2, H, W) stack for each input.
    """
    dvx, dvy, dmx, dmy = ddx(v), ddy(v), ddx(m), ddy(m)
    gx, gy = g[_X], g[_Y]
    # momentum: the d/dx and d/dy adjoints of g vx and g vy, plus
    # gx dv/dx + gy dv/dy + g div v
    gm = ddx_adjoint(g * v[_X])
    gm += ddy_adjoint(g * v[_Y])
    local = gx * dvx
    local += gy * dvy
    local += g * (dvx[_X] + dvy[_Y])
    gm += local
    # velocity: the d/dx and d/dy adjoints of gx m + (s, 0) and gy m + (0, s),
    # s = <g, m> over components, plus (<g, dm/dx>, <g, dm/dy>)
    s = (g * m).sum(axis=-3)
    px = gx * m
    px[..., 0, :, :] += s
    py = gy * m
    py[..., 1, :, :] += s
    gv = ddx_adjoint(px)
    gv += ddy_adjoint(py)
    for r, d in ((0, dmx), (1, dmy)):
        gv[..., r, :, :] += (g * d).sum(axis=-3)
    return gv, gm


def integrate_epdiff(cfg: ShootingConfig, v, m) -> Tensor:
    """Forward-Euler velocities v_0 .. v_{N-1} from v_0 = v, stacked on a new axis 0.

    ``v`` is a (..., 2, H, W) Tensor and ``m`` its momentum L v, which is
    required: the registration energy passes the L v0 of its regulariser.
    One graph node: it keeps every v_k, and every m_k only while it
    records; its backward pass runs the adjoint of the Euler steps from the
    last to the first.  With a_v and a_m the gradients reaching v_{k+1}
    and m_{k+1}, the force f_k receives g_f = -dt (K a_v + a_m); the force
    adjoint carries g_f to (v_k, m_k), where it adds to a_v and a_m along
    with the gradient of the output v_k itself.  The momentum is carried
    in v's dtype.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    op = cfg.operator
    n, dt = cfg.num_steps, 1.0 / cfg.num_steps
    dtype = v.values.dtype
    record = recording(v, m)
    vs = np.empty((n,) + v.shape, dtype)
    # m_0 .. m_{N-2} while recording: the last momentum drives no step
    ms = np.empty((n - 1,) + v.shape, dtype) if record else None
    vs[0] = v.values
    m_k = m.values.astype(dtype, copy=False)
    for k in range(n - 1):
        if record:
            ms[k] = m_k
        f = epdiff_force_values(vs[k], m_k)
        vs[k + 1] = vs[k] - op.multiply(f, inverse=True) * dt
        if not np.all(np.isfinite(vs[k + 1])):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        m_k = m_k - f * dt

    def vjp(g):
        a_v = g[n - 1].copy()
        a_m = np.zeros(v.shape, dtype)
        for k in range(n - 2, -1, -1):
            g_f = (op.multiply(a_v, inverse=True) + a_m) * -dt
            g_v, g_m = epdiff_force_adjoint(vs[k], ms[k], g_f)
            a_v += g_v
            a_v += g[k]
            a_m += g_m
        return (a_v, a_m)

    return _make(vs, (v, m), vjp)


def _identity(cfg: ShootingConfig, velocities: Tensor) -> np.ndarray:
    """Identity map coordinates in the shape and dtype of one velocity, after checking the count."""
    if velocities.shape[0] != cfg.num_steps:
        raise ValueError(f"expected {cfg.num_steps} velocities, got {velocities.shape[0]}")
    xs, ys = coordinate_arrays(cfg.operator.grid)
    return np.broadcast_to(np.stack([xs, ys]).astype(velocities.values.dtype, copy=False),
                           velocities.shape[1:])


def integrate_inverse_flow(cfg: ShootingConfig, velocities) -> Tensor:
    """phi_1^-1 accumulated by semi-Lagrangian pullback, as (x, y) coordinates.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    One graph node: only while it records, it keeps each step's sample
    coordinates (their ``bilinear_prepare`` output) and the map phi_k they
    sample; otherwise it holds the current ones alone.  Its backward pass
    runs from the last step to the first: the derivatives of phi_k with
    respect to the coordinates give the gradient of v_k, and the adjoint
    of the sampling carries the gradient on to phi_k.
    """
    velocities = _as_tensor(velocities)
    ident = _identity(cfg, velocities)
    vs = velocities.values
    dt = 1.0 / cfg.num_steps
    record = recording(velocities)
    maps, samples = [], []
    phi = ident
    for w in vs:
        q = w * -dt + ident
        prep = bilinear_prepare(ident.shape, q[_X], q[_Y])
        if record:
            maps.append(phi)
            samples.append(prep)
        phi = bilinear_apply(phi, *prep[:3])

    def vjp(g):
        grad = np.empty(vs.shape, vs.dtype)
        g_k = g
        for k in range(len(vs) - 1, -1, -1):
            out = grad[k]
            for axis, d in zip((_X, _Y), bilinear_coord_derivatives(maps[k], *samples[k])):
                out[axis] = (d * g_k).sum(axis=-3, keepdims=True)
            out *= -dt
            if k:  # phi_0 is the identity, a constant
                g_k = bilinear_adjoint_field(maps[k].shape, *samples[k][:3], g_k)
        return (grad,)

    return _make(phi, (velocities,), vjp)


def integrate_forward_flow(cfg: ShootingConfig, velocities) -> np.ndarray:
    """phi_1 accumulated by Euler steps along the velocity at the mapped point.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    The map is returned as a (..., 2, H, W) array: nothing differentiates it.
    """
    velocities = _as_tensor(velocities)
    phi = np.array(_identity(cfg, velocities))
    dt = 1.0 / cfg.num_steps
    for w in velocities.values:
        phi += bilinear_sample(w, phi[_X], phi[_Y]) * dt
    return phi


def shoot(cfg: ShootingConfig, v0: VectorField) -> GeodesicPath:
    """Integrate EPDiff from v0 and accumulate both endpoint maps."""
    if v0.grid != cfg.operator.grid:
        raise ValueError("vector field grid does not match operator grid")
    grid = v0.grid
    velocities = integrate_epdiff(cfg, v0.values, cfg.operator.multiply(v0.values))
    inverse = integrate_inverse_flow(cfg, velocities)
    forward = integrate_forward_flow(cfg, velocities)
    return GeodesicPath(
        velocities=velocities.values,
        inverse_map=MapField(grid, *inverse.values),
        forward_map=MapField(grid, *forward),
    )
