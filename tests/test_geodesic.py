"""Geodesic shooting: EPDiff integration and endpoint flow maps."""

import numpy as np
import pytest

import cardiomotion.geodesic as geodesic
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.geodesic import (GeodesicPath, ShootingConfig, integrate_epdiff,
                                   integrate_forward_flow, integrate_inverse_flow, shoot)
from cardiomotion.grid import Grid2, VectorField, compose, coordinate_arrays, jacobian_determinant
from cardiomotion.metric import MetricOperator, apply_K, metric_norm
from cardiomotion.nn import constant, epdiff_force, spectral_multiply

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _smooth_field(grid, rng, scale=1.0):
    # white noise pushed through K gives a smooth velocity with unit-ish norm
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    raw = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    v = apply_K(op, raw)
    n = np.sqrt(metric_norm(op, v))
    return VectorField(grid, scale * v.x_component / n, scale * v.y_component / n)


def _stacked(v):
    return np.stack([v.x_component, v.y_component])


def _tensor(v):
    return constant(_stacked(v))


def test_config_validation():
    op = MetricOperator(Grid2(8, 8))
    with pytest.raises(ValueError):
        ShootingConfig(num_steps=0, operator=op)


def test_velocity_count_and_single_step():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=1, operator=MetricOperator(grid))
    v0 = VectorField(grid, np.full((8, 8), 0.25), np.zeros((8, 8)))
    v = _tensor(v0)
    vs = integrate_epdiff(cfg, v)
    assert len(vs) == 1 and vs[0] is v
    cfg5 = ShootingConfig(num_steps=5, operator=MetricOperator(grid))
    assert len(integrate_epdiff(cfg5, v)) == 5


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
    f = epdiff_force(v, spectral_multiply(op, v))
    assert np.max(np.abs(f.values[0])) < 1e-12
    assert np.max(np.abs(f.values[1])) < 1e-12
    cfg = ShootingConfig(num_steps=6, operator=op)
    vs = integrate_epdiff(cfg, v)
    for w in vs:
        assert np.allclose(w.values[0], 0.3, atol=1e-12)
        assert np.allclose(w.values[1], -0.2, atol=1e-12)


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
    both = compose(path.inverse_map, path.forward_map)
    xs, ys = coordinate_arrays(grid)
    inner = (slice(4, -4), slice(4, -4))
    assert np.max(np.abs(both.x[inner] - xs[inner])) < 0.05
    assert np.max(np.abs(both.y[inner] - ys[inner])) < 0.05


def test_metric_norm_conserved_along_geodesic():
    # the shooting metric is conserved by EPDiff up to discretization error
    grid = Grid2(32, 32)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(num_steps=20, operator=op)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v0 = _smooth_field(grid, rng, scale=1.0)
        vs = [VectorField(grid, *v.values) for v in integrate_epdiff(cfg, _tensor(v0))]
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
        integrate_epdiff(cfg, _tensor(huge))


def test_flow_integrators_check_velocity_count():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=3, operator=MetricOperator(grid))
    vs = [_tensor(VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape)))] * 2
    with pytest.raises(ValueError):
        integrate_inverse_flow(cfg, vs)
    with pytest.raises(ValueError):
        integrate_forward_flow(cfg, vs)


def test_shoot_returns_path_with_all_parts():
    grid = Grid2(8, 8)
    cfg = ShootingConfig(num_steps=3, operator=MetricOperator(grid))
    path = shoot(cfg, VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape)))
    assert isinstance(path, GeodesicPath)
    assert len(path.velocities) == 3
    assert path.forward_map.grid == grid and path.inverse_map.grid == grid


def test_flows_of_a_stack_match_each_field():
    # the step and both flows take (T, H, W) stacks; each slice is its own geodesic
    grid = Grid2(16, 20)
    cfg = ShootingConfig(num_steps=6, operator=MetricOperator(grid))
    rng = np.random.default_rng(17)
    fields = [_smooth_field(grid, rng, scale=0.8) for _ in range(3)]
    velocities = integrate_epdiff(cfg, constant(np.stack([_stacked(v) for v in fields])))
    inverse = integrate_inverse_flow(cfg, velocities)
    forward = integrate_forward_flow(cfg, velocities)
    for t, v0 in enumerate(fields):
        path = shoot(cfg, v0)
        for w, v in zip(velocities, path.velocities):
            assert np.allclose(w.values[t, 0], v.x_component, rtol=0, atol=1e-12)
            assert np.allclose(w.values[t, 1], v.y_component, rtol=0, atol=1e-12)
        for p, phi in ((inverse, path.inverse_map), (forward, path.forward_map)):
            assert np.allclose(p.values[t, 0], phi.x, rtol=0, atol=1e-12)
            assert np.allclose(p.values[t, 1], phi.y, rtol=0, atol=1e-12)


def test_carried_momentum_stays_the_metric_of_the_velocity(monkeypatch):
    # m_{k+1} = m_k - dt f_k tracks L v_k on every step of a criterion-3 geodesic
    grid = Grid2(64, 64)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(20, op)
    v0 = _smooth_field(grid, np.random.default_rng(33), scale=1.0)
    seen = []

    def recording(v, m):
        seen.append((v, m))
        return epdiff_force(v, m)

    monkeypatch.setattr(geodesic, "epdiff_force", recording)
    velocities = integrate_epdiff(cfg, _tensor(v0))
    assert len(seen) == cfg.num_steps - 1
    for (v, m), w in zip(seen, velocities):
        assert v is w
        lv = spectral_multiply(op, v).values
        assert np.max(np.abs(m.values - lv)) <= 1e-10 * np.max(np.abs(lv))
