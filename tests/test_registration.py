"""Registration energy, its exact gradient, and pairwise/amortized optimization."""

import numpy as np
import pytest

from cardiomotion import registration
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.geodesic import ShootingConfig, shoot
from cardiomotion.grid import FieldSequence, Grid2, ScalarField, VectorField, bilinear_sample
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.networks import RegistrationNet, UNetConfig
from cardiomotion.nn.tensor import Tensor, no_grad
from cardiomotion.registration import (RegistrationConfig, energy, energy_gradient,
                                       pair_stack, register_pair, registration_network_loss,
                                       train_registration_network)
from helpers import graph_lifetimes, metric_norm


def _cfg(grid, num_steps=5, sigma=0.05, lr=0.01, max_iter=50, tol=1e-9):
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    return RegistrationConfig(
        shooting=ShootingConfig(num_steps=num_steps, operator=op),
        sigma=sigma, learning_rate=lr, max_iterations=max_iter, convergence_tol=tol,
    )


def _blob(grid, cx, cy, width=2.5):
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width].astype(np.float64)
    return ScalarField(grid, np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * width**2)))


def _sequence(grid, frames):
    return FieldSequence(grid, np.stack([f.values for f in frames]))


def test_config_validation():
    grid = Grid2(8, 8)
    sc = ShootingConfig(num_steps=2, operator=MetricOperator(grid))
    for kw in ({"sigma": 0.0}, {"learning_rate": 0.0}, {"max_iterations": 0},
               {"convergence_tol": 0.0}):
        with pytest.raises(ValueError):
            RegistrationConfig(shooting=sc, **kw)


def test_energy_zero_velocity_identical_images():
    grid = Grid2(12, 12)
    cfg = _cfg(grid)
    img = _blob(grid, 5.0, 6.0)
    zero = VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    total, dist, reg = energy(cfg, zero, img, img)
    assert total == 0.0 and dist == 0.0 and reg == 0.0


def test_energy_zero_velocity_distance_is_ssd():
    grid = Grid2(12, 12)
    cfg = _cfg(grid, sigma=0.1)
    a, b = _blob(grid, 5.0, 6.0), _blob(grid, 6.0, 6.0)
    zero = VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    total, dist, reg = energy(cfg, zero, a, b)
    ssd = float(np.sum((a.values - b.values) ** 2))
    assert abs(dist - ssd) < 1e-12
    assert reg == 0.0
    assert abs(total - ssd / (2 * 0.1**2)) < 1e-10


def test_energy_matches_plain_pipeline_composition():
    # graph evaluation must agree with shoot + warp + ssd + metric norm
    grid = Grid2(16, 16)
    cfg = _cfg(grid, num_steps=6, sigma=0.08)
    rng = np.random.default_rng(3)
    op = cfg.shooting.operator
    raw = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    v0 = VectorField(grid, *op.multiply(raw.values, inverse=True))
    a, b = _blob(grid, 7.0, 8.0), _blob(grid, 8.5, 8.0)
    total, dist, reg = energy(cfg, v0, a, b)

    path = shoot(cfg.shooting, v0)
    warped = bilinear_sample(a.values, path.inverse_map.x, path.inverse_map.y)
    ssd = float(np.sum((warped - b.values) ** 2))
    assert abs(dist - ssd) < 1e-9 * max(1.0, ssd)
    assert abs(reg - metric_norm(op, v0.values)) < 1e-9 * max(1.0, abs(reg))
    assert abs(total - (ssd / (2 * cfg.sigma**2) + reg)) < 1e-8 * max(1.0, abs(total))


def test_energy_gradient_matches_finite_differences():
    grid = Grid2(8, 8)
    cfg = _cfg(grid, num_steps=4, sigma=0.1)
    rng = np.random.default_rng(5)
    a, b = _blob(grid, 3.0, 4.0), _blob(grid, 4.0, 4.0)
    v0 = VectorField(grid, 0.1 * rng.standard_normal(grid.shape),
                     0.1 * rng.standard_normal(grid.shape))
    g = energy_gradient(cfg, v0, a, b)
    eps = 1e-6
    for _ in range(6):
        dx = rng.standard_normal(grid.shape)
        dy = rng.standard_normal(grid.shape)
        analytic = float(np.sum(g.x_component * dx) + np.sum(g.y_component * dy))
        plus = energy(cfg, VectorField(grid, v0.x_component + eps * dx,
                                       v0.y_component + eps * dy), a, b)[0]
        minus = energy(cfg, VectorField(grid, v0.x_component - eps * dx,
                                        v0.y_component - eps * dy), a, b)[0]
        fd = (plus - minus) / (2 * eps)
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8) < 1e-3


def test_gradient_zero_at_perfect_alignment():
    grid = Grid2(10, 10)
    cfg = _cfg(grid)
    img = _blob(grid, 5.0, 5.0)
    zero = VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    g = energy_gradient(cfg, zero, img, img)
    assert np.max(np.abs(g.x_component)) < 1e-12
    assert np.max(np.abs(g.y_component)) < 1e-12


def _graph_nodes(root):
    """Every Tensor reachable from ``root`` through its parents, ``root`` and the leaves too."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("num_steps", [1, 10])
@pytest.mark.parametrize("shape, dtype", [((2, 16, 16), np.float64), ((3, 2, 16, 16), np.float32)],
                         ids=["pair", "stack"])
def test_energy_graph_has_13_nodes_at_any_number_of_steps(num_steps, shape, dtype):
    cfg = _cfg(Grid2(16, 16), num_steps=num_steps)
    rng = np.random.default_rng(3)
    v0 = Tensor((0.05 * rng.standard_normal(shape)).astype(dtype), requires_grad=True)
    images = rng.random(shape[:-3] + (2, 16, 16)).astype(dtype)
    total, _, _ = registration._energy_terms(cfg.shooting, cfg.sigma, v0,
                                             images[..., 0, :, :], images[..., 1, :, :])
    assert _graph_nodes(total) == 13


def test_grid_mismatch_rejected():
    cfg = _cfg(Grid2(8, 8))
    other = Grid2(10, 10)
    img8 = _blob(Grid2(8, 8), 4.0, 4.0)
    img10 = _blob(other, 4.0, 4.0)
    zero8 = VectorField(Grid2(8, 8), np.zeros((8, 8)), np.zeros((8, 8)))
    zero10 = VectorField(other, np.zeros((10, 10)), np.zeros((10, 10)))
    with pytest.raises(ValueError, match="source/target grids do not match"):
        energy(cfg, zero8, img10, img10)
    with pytest.raises(ValueError, match="v0 grid does not match"):
        energy(cfg, zero10, img8, img8)
    with pytest.raises(ValueError, match="v0 grid does not match"):
        energy_gradient(cfg, zero10, img8, img8)


def test_register_pair_reduces_mismatch():
    grid = Grid2(16, 16)
    # weakly regularized first-order metric lets the blob translate freely
    op = MetricOperator(grid, alpha=200.0, gamma=1.0, power=1)
    cfg = RegistrationConfig(
        shooting=ShootingConfig(num_steps=5, operator=op),
        sigma=0.05, learning_rate=0.01, max_iterations=200, convergence_tol=1e-12,
    )
    source = _blob(grid, 7.0, 8.0)
    target = _blob(grid, 8.2, 8.0)
    res = register_pair(cfg, source, target)
    ssd0 = float(np.sum((source.values - target.values) ** 2))
    phi = res.path.inverse_map
    warped = bilinear_sample(source.values, phi.x, phi.y)
    ssd1 = float(np.sum((warped - target.values) ** 2))
    assert ssd1 < 0.05 * ssd0
    assert res.energy_trace[0] == pytest.approx(ssd0 / (2 * cfg.sigma**2))
    assert res.energy_trace[-1] < res.energy_trace[0]
    assert res.path.velocities.shape == (cfg.shooting.num_steps, 2) + grid.shape


def test_register_pair_reports_final_state_when_iterations_run_out():
    # a tolerance nothing meets: every iteration runs, then the final v0 is evaluated once more
    grid = Grid2(12, 12)
    cfg = _cfg(grid, num_steps=4, sigma=0.1, max_iter=6, tol=1e-300)
    source, target = _blob(grid, 5.0, 6.0), _blob(grid, 6.0, 6.0)
    res = register_pair(cfg, source, target)
    assert len(res.energy_trace) == cfg.max_iterations + 1
    assert res.energy_trace[-1] == energy(cfg, res.v0, source, target)[0]


def test_register_pair_frees_each_energy_graph_before_the_next():
    grid = Grid2(12, 12)
    cfg = _cfg(grid, num_steps=4, sigma=0.1, max_iter=5, tol=1e-300)
    with graph_lifetimes(registration, "_energy_terms", scalar=lambda terms: terms[0]) as alive:
        register_pair(cfg, _blob(grid, 5.0, 6.0), _blob(grid, 6.0, 6.0))
    assert alive == [False] * cfg.max_iterations


def test_register_pair_identical_images_stays_put():
    grid = Grid2(12, 12)
    cfg = _cfg(grid, max_iter=30, tol=1e-8)
    img = _blob(grid, 6.0, 6.0)
    res = register_pair(cfg, img, img)
    assert np.max(np.abs(res.v0.x_component)) < 1e-9
    assert np.max(np.abs(res.v0.y_component)) < 1e-9
    assert len(res.energy_trace) <= 3  # converges immediately


def test_register_pair_convergence_stop():
    grid = Grid2(12, 12)
    source = _blob(grid, 5.0, 6.0)
    target = _blob(grid, 5.5, 6.0)
    loose = _cfg(grid, max_iter=400, tol=1e-3)
    tight = _cfg(grid, max_iter=400, tol=1e-12)
    n_loose = len(register_pair(loose, source, target).energy_trace)
    n_tight = len(register_pair(tight, source, target).energy_trace)
    assert n_loose < n_tight


def test_pair_stack():
    grid = Grid2(8, 8)
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((9, 8, 8))
    seq = FieldSequence(grid, frames)
    stack = pair_stack(seq)
    assert stack.shape == (8, 2, 8, 8)
    assert np.array_equal(stack[3, 0], frames[0])
    assert np.array_equal(stack[3, 1], frames[4])
    with pytest.raises(ValueError):
        pair_stack(FieldSequence(grid, frames[:1]))


def test_network_loss_is_mean_of_pair_energies():
    grid = Grid2(8, 8)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    rng = np.random.default_rng(9)
    frames = [_blob(grid, 3.0 + 0.4 * t, 4.0) for t in range(4)]
    stack = pair_stack(_sequence(grid, frames))
    v0 = 0.05 * rng.standard_normal(stack.shape)
    loss = registration_network_loss(cfg, v0, stack)
    per_pair = [
        energy(cfg, VectorField(grid, *v0[t]),
               ScalarField(grid, stack[t, 0]), ScalarField(grid, stack[t, 1]))[0]
        for t in range(stack.shape[0])
    ]
    assert loss.item() == pytest.approx(float(np.mean(per_pair)), rel=1e-12)


def test_network_loss_gradient_is_mean_of_pair_gradients():
    grid = Grid2(8, 8)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    rng = np.random.default_rng(10)
    frames = [_blob(grid, 3.0 + 0.4 * t, 4.0 - 0.2 * t) for t in range(4)]
    stack = pair_stack(_sequence(grid, frames))
    v0 = Tensor(0.05 * rng.standard_normal(stack.shape), requires_grad=True)
    registration_network_loss(cfg, v0, stack).backward()
    expected = np.zeros(stack.shape)
    for t in range(stack.shape[0]):
        g = energy_gradient(cfg, VectorField(grid, *v0.values[t]),
                            ScalarField(grid, stack[t, 0]), ScalarField(grid, stack[t, 1]))
        expected[t] = g.values / stack.shape[0]
    assert np.allclose(v0.grad, expected, rtol=0.0, atol=1e-10 * np.abs(expected).max())


def test_network_loss_validates_shapes():
    grid = Grid2(8, 8)
    cfg = _cfg(grid)
    with pytest.raises(ValueError):
        registration_network_loss(cfg, np.zeros((3, 2, 8, 8)), np.zeros((4, 2, 8, 8)))
    with pytest.raises(ValueError, match="pair batch grid does not match"):
        registration_network_loss(cfg, np.zeros((2, 2, 12, 12)), np.zeros((2, 2, 12, 12)))


def test_train_registration_network_reduces_loss():
    grid = Grid2(16, 16)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    frames = [_blob(grid, 7.0 + 0.5 * t, 8.0) for t in range(3)]
    stack = pair_stack(_sequence(grid, frames))
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=0)
    history = train_registration_network(net, [stack], cfg, epochs=8, learning_rate=1e-3, seed=0)
    assert len(history) == 8
    assert history[-1] < history[0]
    with no_grad():
        v = net.forward(stack)
    assert v.values.shape == stack.shape


def test_train_registration_network_refuses_no_sequences_before_any_step():
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=0)
    with pytest.raises(ValueError, match="no training sequences"):
        train_registration_network(net, [], _cfg(Grid2(16, 16)), epochs=1)
    assert net.store.step_count == 0


def test_network_training_divergence_names_the_optimisation_step(monkeypatch):
    grid = Grid2(16, 16)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    stacks = [pair_stack(_sequence(grid, [_blob(grid, cx + 0.5 * t, 8.0) for t in range(3)]))
              for cx in (7.0, 8.0)]
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=0)
    real_loss = registration.registration_network_loss
    calls = []

    def fourth_loss_is_nan(*args):
        calls.append(None)
        return Tensor(np.nan) if len(calls) == 4 else real_loss(*args)

    monkeypatch.setattr(registration, "registration_network_loss", fourth_loss_is_nan)
    # two sequences per epoch: the 4th step is epoch 1's second, zero-based step 3
    with pytest.raises(IntegrationDivergedError, match=r"at step 3$"):
        train_registration_network(net, stacks, cfg, epochs=3, learning_rate=1e-3, seed=0)
    assert len(calls) == 4


def test_train_registration_network_frees_each_loss_graph_before_the_next():
    grid = Grid2(16, 16)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    stacks = [pair_stack(_sequence(grid, [_blob(grid, 7.0 + s * t, 8.0) for t in range(3)]))
              for s in (0.4, 0.6)]
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=0)
    with graph_lifetimes(registration, "registration_network_loss") as alive:
        train_registration_network(net, stacks, cfg, epochs=2, learning_rate=1e-3, seed=0)
    assert alive == [False] * 3


def test_trained_network_beats_zero_velocity_loss():
    grid = Grid2(16, 16)
    cfg = _cfg(grid, num_steps=3, sigma=0.1)
    frames = [_blob(grid, 7.0 + 0.6 * t, 8.0) for t in range(3)]
    stack = pair_stack(_sequence(grid, frames))
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=1)
    train_registration_network(net, [stack], cfg, epochs=25, learning_rate=3e-3, seed=0)
    with no_grad():
        amortized = registration_network_loss(cfg, net.forward(stack), stack).item()
    zero = registration_network_loss(cfg, np.zeros(stack.shape), stack).item()
    assert amortized < zero
