"""Geodesic shooting: EPDiff integration and endpoint flow maps."""

import numpy as np
import pytest

import cardiomotion.geodesic as geodesic
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.geodesic import (GeodesicPath, ShootingConfig, epdiff_force_values,
                                   integrate_epdiff, integrate_forward_flow,
                                   integrate_inverse_flow, shoot)
from cardiomotion.grid import (Grid2, VectorField, coordinate_arrays, jacobian_determinant,
                               warp_vector)
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.fieldops import bilinear_warp, spectral_multiply
from cardiomotion.nn.tensor import (Tensor, _make, add, mul, smul, sum_all,
                                    take_index)
from helpers import force_node, metric_norm


def _smooth_field(grid, rng, scale=1.0):
    # white noise pushed through K gives a smooth velocity with unit-ish norm
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    raw = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    v = op.multiply(raw.values, inverse=True)
    n = np.sqrt(metric_norm(op, v))
    return VectorField(grid, scale * v[0] / n, scale * v[1] / n)


def _tensor(v):
    return Tensor(v.values)


def test_config_validation():
    op = MetricOperator(Grid2(8, 8))
    with pytest.raises(ValueError):
        ShootingConfig(num_steps=0, operator=op)


def test_velocity_count_and_single_step():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=1, operator=MetricOperator(grid))
    v0 = VectorField(grid, np.full((8, 8), 0.25), np.zeros((8, 8)))
    v = _tensor(v0)
    m = cfg.operator.multiply(v.values)
    vs = integrate_epdiff(cfg, v, m)
    assert vs.shape == (1, 2, 8, 8) and np.array_equal(vs.values[0], v.values)
    cfg5 = ShootingConfig(num_steps=5, operator=MetricOperator(grid))
    assert integrate_epdiff(cfg5, v, m).shape == (5, 2, 8, 8)


def test_zero_velocity_gives_identity_maps():
    grid = Grid2(10, 12)
    cfg = ShootingConfig(num_steps=4, operator=MetricOperator(grid))
    path = shoot(cfg, VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape)))
    xs, ys = coordinate_arrays(grid)
    assert np.allclose(path.forward_map.x, xs, atol=1e-14)
    assert np.allclose(path.forward_map.y, ys, atol=1e-14)
    assert np.allclose(path.inverse_map.x, xs, atol=1e-14)
    assert np.allclose(path.inverse_map.y, ys, atol=1e-14)


def test_constant_velocity_is_a_fixed_point():
    # all spatial derivatives vanish, so EPDiff keeps a uniform field unchanged
    grid = Grid2(12, 12)
    op = MetricOperator(grid, alpha=2.0, gamma=1.5, power=2)
    v0 = VectorField(grid, np.full(grid.shape, 0.3), np.full(grid.shape, -0.2))
    v = _tensor(v0)
    f = force_node(v, spectral_multiply(op, v))
    assert np.max(np.abs(f.values[0])) < 1e-12
    assert np.max(np.abs(f.values[1])) < 1e-12
    cfg = ShootingConfig(num_steps=6, operator=op)
    vs = integrate_epdiff(cfg, v, op.multiply(v.values))
    for w in vs.values:
        assert np.allclose(w[0], 0.3, atol=1e-12)
        assert np.allclose(w[1], -0.2, atol=1e-12)


def test_constant_velocity_translation_maps():
    grid = Grid2(16, 16)
    cfg = ShootingConfig(num_steps=5, operator=MetricOperator(grid))
    v0 = VectorField(grid, np.full(grid.shape, 0.4), np.full(grid.shape, -0.3))
    path = shoot(cfg, v0)
    xs, ys = coordinate_arrays(grid)
    # border clamping perturbs a few outer rings; the error decays fast inward
    inner = (slice(5, -5), slice(5, -5))
    assert np.allclose(path.forward_map.x[inner], (xs + 0.4)[inner], atol=1e-8)
    assert np.allclose(path.forward_map.y[inner], (ys - 0.3)[inner], atol=1e-8)
    assert np.allclose(path.inverse_map.x[inner], (xs - 0.4)[inner], atol=1e-8)
    assert np.allclose(path.inverse_map.y[inner], (ys + 0.3)[inner], atol=1e-8)


def test_forward_inverse_maps_cancel_in_interior():
    grid = Grid2(32, 32)
    cfg = ShootingConfig(num_steps=10, operator=MetricOperator(grid))
    rng = np.random.default_rng(7)
    v0 = _smooth_field(grid, rng, scale=0.8)
    path = shoot(cfg, v0)
    both = warp_vector(path.inverse_map, path.forward_map)  # phi^-1 o phi
    xs, ys = coordinate_arrays(grid)
    inner = (slice(4, -4), slice(4, -4))
    assert np.max(np.abs(both.x_component[inner] - xs[inner])) < 0.05
    assert np.max(np.abs(both.y_component[inner] - ys[inner])) < 0.05


def test_metric_norm_conserved_along_geodesic():
    # the shooting metric is conserved by EPDiff up to discretization error
    grid = Grid2(32, 32)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(num_steps=20, operator=op)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v0 = _smooth_field(grid, rng, scale=1.0)
        vs = integrate_epdiff(cfg, _tensor(v0), op.multiply(v0.values)).values
        n0 = metric_norm(op, vs[0])
        drift = max(abs(metric_norm(op, v) - n0) for v in vs) / n0
        assert drift < 0.02


def test_forward_map_stays_diffeomorphic():
    grid = Grid2(32, 32)
    cfg = ShootingConfig(num_steps=15, operator=MetricOperator(grid))
    rng = np.random.default_rng(13)
    path = shoot(cfg, _smooth_field(grid, rng, scale=1.0))
    det = jacobian_determinant(path.forward_map)
    assert det.values.min() > 0.0


def test_blowup_raises_instead_of_propagating_nans():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=4, operator=MetricOperator(grid))
    rng = np.random.default_rng(5)
    huge = VectorField(grid, 1e160 * rng.standard_normal(grid.shape),
                       1e160 * rng.standard_normal(grid.shape))
    with np.errstate(all="ignore"), pytest.raises((IntegrationDivergedError, ValueError)):
        integrate_epdiff(cfg, _tensor(huge), cfg.operator.multiply(huge.values))


def test_flow_integrators_check_velocity_count():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=3, operator=MetricOperator(grid))
    vs = Tensor(np.zeros((2, 2) + grid.shape))
    with pytest.raises(ValueError):
        integrate_inverse_flow(cfg, vs)
    with pytest.raises(ValueError):
        integrate_forward_flow(cfg, vs)


def test_shoot_returns_path_with_all_parts():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=3, operator=MetricOperator(grid))
    path = shoot(cfg, VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape)))
    assert isinstance(path, GeodesicPath)
    assert path.velocities.shape == (3, 2) + grid.shape
    assert path.forward_map.grid == grid and path.inverse_map.grid == grid


def test_shoot_returns_the_velocity_stack_of_integrate_epdiff():
    grid = Grid2(16, 12)
    cfg = ShootingConfig(num_steps=5, operator=MetricOperator(grid))
    v0 = _smooth_field(grid, np.random.default_rng(19), scale=0.8)
    stack = integrate_epdiff(cfg, _tensor(v0), cfg.operator.multiply(v0.values)).values
    assert np.array_equal(shoot(cfg, v0).velocities, stack)


def test_flows_of_a_stack_match_each_field():
    # the step and both flows take (T, 2, H, W) stacks; each slice is its own geodesic
    grid = Grid2(16, 20)
    cfg = ShootingConfig(num_steps=6, operator=MetricOperator(grid))
    rng = np.random.default_rng(17)
    fields = [_smooth_field(grid, rng, scale=0.8) for _ in range(3)]
    v = np.stack([v.values for v in fields])
    velocities = integrate_epdiff(cfg, Tensor(v), cfg.operator.multiply(v))
    inverse = integrate_inverse_flow(cfg, velocities)
    forward = integrate_forward_flow(cfg, velocities)
    for t, v0 in enumerate(fields):
        path = shoot(cfg, v0)
        for w, v in zip(velocities.values, path.velocities):
            assert np.allclose(w[t, 0], v[0], rtol=0, atol=1e-12)
            assert np.allclose(w[t, 1], v[1], rtol=0, atol=1e-12)
        for p, phi in ((inverse.values, path.inverse_map), (forward, path.forward_map)):
            assert np.allclose(p[t, 0], phi.x, rtol=0, atol=1e-12)
            assert np.allclose(p[t, 1], phi.y, rtol=0, atol=1e-12)


def test_carried_momentum_stays_the_metric_of_the_velocity(monkeypatch):
    # m_{k+1} = m_k - dt f_k tracks L v_k on every step of a criterion-3 geodesic
    grid = Grid2(64, 64)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(20, op)
    v0 = _smooth_field(grid, np.random.default_rng(33), scale=1.0)
    seen = []

    def recording(v, m):
        seen.append((v, m))
        return epdiff_force_values(v, m)

    monkeypatch.setattr(geodesic, "epdiff_force_values", recording)
    velocities = integrate_epdiff(cfg, _tensor(v0), op.multiply(v0.values))
    assert len(seen) == cfg.num_steps - 1
    for (v, m), w in zip(seen, velocities.values):
        assert np.shares_memory(v, w) and np.array_equal(v, w)
        lv = op.multiply(v)
        assert np.max(np.abs(m - lv)) <= 1e-10 * np.max(np.abs(lv))


# ---------------------------------------------------------------------------
# the fused shooting nodes against the step-by-step graph they replace
# ---------------------------------------------------------------------------


def _k_multiply(op, x):
    """K x as a graph node; K is self-adjoint, so its backward pass is K again."""
    return _make(op.multiply(x.values, inverse=True), (x,),
                 lambda g: (op.multiply(g, inverse=True),))


def _stepwise_epdiff(cfg, v, m):
    """[v_0 .. v_{N-1}] as a graph of force, K-multiply and update nodes per step."""
    dt = 1.0 / cfg.num_steps
    velocities = [v]
    for _ in range(cfg.num_steps - 1):
        f = force_node(v, m)
        v = add(v, smul(_k_multiply(cfg.operator, f), -dt))
        m = add(m, smul(f, -dt))
        velocities.append(v)
    return velocities


def _stepwise_inverse_flow(cfg, velocities):
    """phi_1^-1 as a graph of one coordinate update and one bilinear warp per step."""
    dt = 1.0 / cfg.num_steps
    xs, ys = coordinate_arrays(cfg.operator.grid)
    ident = Tensor(np.broadcast_to(np.stack([xs, ys]), velocities[0].shape))
    phi = ident
    for w in velocities:
        q = add(ident, smul(w, -dt))
        phi = bilinear_warp(phi, take_index(q, np.s_[..., 0:1, :, :]),
                            take_index(q, np.s_[..., 1:2, :, :]))
    return phi


def _stepwise_forward_flow(cfg, velocities):
    """phi_1 as a graph of one bilinear warp, one scaling and one addition per step."""
    dt = 1.0 / cfg.num_steps
    xs, ys = coordinate_arrays(cfg.operator.grid)
    phi = Tensor(np.broadcast_to(np.stack([xs, ys]), velocities.shape[1:]))
    for k in range(cfg.num_steps):
        sampled = bilinear_warp(take_index(velocities, k), take_index(phi, np.s_[..., 0:1, :, :]),
                                take_index(phi, np.s_[..., 1:2, :, :]))
        phi = add(phi, smul(sampled, dt))
    return phi


def _close(a, b, rtol=1e-12):
    return np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


def _backward_twice(loss, leaves):
    """Run backward twice; the second pass must add exactly the same gradients."""
    loss.backward()
    first = [t.grad.copy() for t in leaves]
    loss.backward()
    for g, t in zip(first, leaves):
        assert np.array_equal(t.grad, 2.0 * g)
    return first


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("momentum", ["given"])  # the node always starts from a given m
def test_integrate_epdiff_gradient_matches_the_stepwise_graph(lead, momentum):
    grid = Grid2(16, 12)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(6, op)
    rng = np.random.default_rng(61)
    count = int(np.prod(lead))
    v = np.stack([_smooth_field(grid, rng, scale=1.5).values for _ in range(count)])
    v = v.reshape(lead + (2,) + grid.shape)
    # a momentum off L v, so that the gradients of v and m differ
    m = op.multiply(v) + 0.1 * rng.standard_normal(v.shape)
    weights = rng.standard_normal((cfg.num_steps,) + v.shape)
    fused = [Tensor(a, requires_grad=True) for a in (v, m)]
    stepwise = [Tensor(a, requires_grad=True) for a in (v, m)]
    out = integrate_epdiff(cfg, *fused)
    steps = _stepwise_epdiff(cfg, *stepwise)
    got = _backward_twice(sum_all(mul(out, Tensor(weights))), fused)
    total = sum_all(mul(steps[0], Tensor(weights[0])))
    for w, c in zip(steps[1:], weights[1:]):
        total = add(total, sum_all(mul(w, Tensor(c))))
    want = _backward_twice(total, stepwise)
    # the same arithmetic forward, and the exact adjoint of it backward
    assert out.shape == (cfg.num_steps,) + v.shape
    assert np.array_equal(out.values, np.stack([w.values for w in steps]))
    for g, w in zip(got, want):
        assert _close(g, w)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_integrate_inverse_flow_gradient_matches_the_stepwise_graph(lead):
    grid = Grid2(16, 12)
    cfg = ShootingConfig(5, MetricOperator(grid))
    rng = np.random.default_rng(62)
    # steps of up to 3 px, so that samples reach past every edge and clamp
    velocities = cfg.num_steps * rng.uniform(-3.0, 3.0,
                                             (cfg.num_steps,) + lead + (2,) + grid.shape)
    weights = rng.standard_normal(lead + (2,) + grid.shape)
    fused, stepwise = Tensor(velocities, requires_grad=True), Tensor(velocities, requires_grad=True)
    phi = integrate_inverse_flow(cfg, fused)
    ref = _stepwise_inverse_flow(cfg, [take_index(stepwise, k) for k in range(cfg.num_steps)])
    got = _backward_twice(sum_all(mul(phi, Tensor(weights))), [fused])
    want = _backward_twice(sum_all(mul(ref, Tensor(weights))), [stepwise])
    assert np.array_equal(phi.values, ref.values)
    assert _close(got[0], want[0])


@pytest.mark.parametrize("lead", [(), (3,)])
def test_forward_flow_is_the_step_formula(lead):
    grid = Grid2(16, 12)
    cfg = ShootingConfig(5, MetricOperator(grid))
    rng = np.random.default_rng(63)
    # steps of up to 3 px, so that samples reach past every edge and clamp
    velocities = cfg.num_steps * rng.uniform(-3.0, 3.0,
                                             (cfg.num_steps,) + lead + (2,) + grid.shape)
    phi = integrate_forward_flow(cfg, Tensor(velocities, requires_grad=True))
    ref = _stepwise_forward_flow(cfg, Tensor(velocities))
    # nothing differentiates the forward map, so it is a plain array
    assert isinstance(phi, np.ndarray) and phi.shape == lead + (2,) + grid.shape
    assert np.array_equal(phi, ref.values)
