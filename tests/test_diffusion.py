"""Diffusion over latent motion features: schedule algebra, chains, training."""

import numpy as np
import pytest

from cardiomotion import diffusion
from cardiomotion.diffusion import (DiffusionConfig, NoiseSchedule, diffusion_loss,
                                    forward_sample, forward_step, infer, make_schedule,
                                    motion_loss, reverse_step, train)
from cardiomotion.grid import FieldSequence, Grid2
from cardiomotion.metric import SmoothingKernel, smooth_noise
from cardiomotion.nn.networks import (MotionDecoder, NoisePredictor, RegistrationNet, UNetConfig,
                                      encoder_forward)
from cardiomotion.nn.params import ParameterStore
from cardiomotion.nn.tensor import Tensor, no_grad
from helpers import graph_lifetimes

_CFG = UNetConfig(in_channels=2, base_channels=4, latent_channels=3, num_down=1,
                  time_embed_dim=8)


def _latents(rng, t=2, c=3, h=6, w=6):
    return Tensor(rng.standard_normal((t, c, h, w)))


class _OracleEps:
    """Perfect noise predictor for a known injected eps', for one sequence or a batch."""

    def __init__(self, eps_prime):
        self.eps_prime = eps_prime

    def forward(self, values, step):
        return Tensor(np.broadcast_to(self.eps_prime, np.shape(values)))


def test_schedule_recursion_and_validation():
    s = make_schedule(100, 1e-4, 0.02)
    assert s.num_steps == 100
    assert np.allclose(s.alpha, 1.0 - s.beta, atol=1e-15)
    assert np.allclose(s.sigma, np.sqrt(s.beta), atol=1e-15)
    # alpha_bar satisfies the product recursion exactly
    prod = np.cumprod(1.0 - s.beta)
    assert np.max(np.abs(s.alpha_bar - prod)) < 1e-15
    assert s.beta[0] == 1e-4 and s.beta[-1] == 0.02
    with pytest.raises(ValueError):
        make_schedule(-1)
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        make_schedule(10, 0.02, 0.01)
    with pytest.raises(ValueError):
        make_schedule(10, 0.01, 0.01)  # constant schedule only allowed for <2 steps
    s.check_step(1)
    s.check_step(100)
    with pytest.raises(ValueError):
        s.check_step(0)
    with pytest.raises(ValueError):
        s.check_step(101)


def test_empty_schedule_is_degenerate():
    s = make_schedule(0)
    assert s.num_steps == 0
    with pytest.raises(ValueError):
        s.check_step(1)


def test_forward_step_formula():
    rng = np.random.default_rng(0)
    s = make_schedule(10, 0.01, 0.2)
    k = SmoothingKernel(1.0)
    z = _latents(rng)
    eps = rng.standard_normal(z.values.shape)
    out = forward_step(s, k, z, 3, eps)
    b = s.beta[2]
    expect = np.sqrt(1 - b) * z.values + np.sqrt(b) * smooth_noise(k, eps)
    assert np.array_equal(out.values, expect)
    with pytest.raises(ValueError):
        forward_step(s, k, z, 3, eps[..., :-1])
    with pytest.raises(ValueError):
        forward_step(s, k, z, 11, eps)


def test_forward_sample_matches_iterated_steps_with_zero_noise():
    # with eps = 0 both give abar scaling of z0, exactly
    rng = np.random.default_rng(1)
    s = make_schedule(8, 0.01, 0.3)
    k = SmoothingKernel(1.0)
    z0 = _latents(rng)
    zero = np.zeros(z0.values.shape)
    z = z0
    for m in range(1, 6):
        z = forward_step(s, k, z, m, zero)
    closed = forward_sample(s, k, z0, 5, zero)
    assert np.allclose(z.values, closed.values, atol=1e-14)
    assert np.allclose(closed.values, np.sqrt(s.alpha_bar[4]) * z0.values, atol=1e-14)


def test_forward_sample_statistics_match_iterated_chain():
    # per-pixel mean and variance of the closed form agree with the
    # step-by-step chain over many Monte Carlo draws
    rng = np.random.default_rng(2)
    s = make_schedule(4, 0.05, 0.4)
    k = SmoothingKernel(1.0)
    z0 = _latents(rng, t=1, c=1, h=6, w=6)
    m = 4
    n = 4000
    iterated = np.empty((n,) + z0.values.shape)
    closed = np.empty_like(iterated)
    for i in range(n):
        z = z0
        for step in range(1, m + 1):
            z = forward_step(s, k, z, step, rng.standard_normal(z0.values.shape))
        iterated[i] = z.values
        closed[i] = forward_sample(s, k, z0, m, rng.standard_normal(z0.values.shape)).values
    mean_it, mean_cl = iterated.mean(axis=0), closed.mean(axis=0)
    var_it, var_cl = iterated.var(axis=0), closed.var(axis=0)
    assert np.allclose(mean_it, mean_cl, atol=4 * np.sqrt(var_it / n).max() + 1e-3)
    assert np.max(np.abs(var_it - var_cl)) / var_it.mean() < 0.2


def test_reverse_step_inverts_forward_sample_with_oracle():
    # M = 1: forward then reverse with the true noise restores z0 exactly
    rng = np.random.default_rng(3)
    s = make_schedule(1, 0.02, 0.02)
    k = SmoothingKernel(1.0)
    z0 = _latents(rng)
    eps = rng.standard_normal(z0.values.shape)
    z1 = forward_sample(s, k, z0, 1, eps)
    oracle = _OracleEps(smooth_noise(k, eps))
    back = reverse_step(s, k, z1, 1, oracle, rng.standard_normal(z0.values.shape))
    assert np.max(np.abs(back.values - z0.values)) < 1e-12


def test_reverse_step_injects_no_noise_at_final_step():
    rng = np.random.default_rng(4)
    s = make_schedule(5, 0.01, 0.3)
    k = SmoothingKernel(1.0)
    z = _latents(rng)
    oracle = _OracleEps(np.zeros(z.values.shape))
    g1 = rng.standard_normal(z.values.shape)
    g2 = rng.standard_normal(z.values.shape)
    # at m = 1 the output ignores gamma entirely
    a = reverse_step(s, k, z, 1, oracle, g1)
    b = reverse_step(s, k, z, 1, oracle, g2)
    assert np.array_equal(a.values, b.values)
    # at m > 1 different gamma draws give different outputs
    c = reverse_step(s, k, z, 3, oracle, g1)
    d = reverse_step(s, k, z, 3, oracle, g2)
    assert not np.allclose(c.values, d.values)


def test_diffusion_config_validation():
    s = make_schedule(4)
    k = SmoothingKernel(1.0)
    with pytest.raises(ValueError):
        DiffusionConfig(schedule=s, kernel=k, loss_alpha=-1.0)
    with pytest.raises(ValueError):
        DiffusionConfig(schedule=s, kernel=k, lambda_eps=-1e-4)
    with pytest.raises(ValueError):
        DiffusionConfig(schedule=s, kernel=k, batch_size=0)


def test_diffusion_loss_zero_predictor_matches_smoothed_noise_power():
    # a predictor stuck at zero pays exactly E||K(eps)||^2 on average
    rng = np.random.default_rng(5)
    s = make_schedule(6, 0.01, 0.3)
    k = SmoothingKernel(1.0)
    shape = (1, 1, 6, 6)
    zero_model = _OracleEps(np.zeros(shape))
    z0 = [Tensor(np.zeros(shape))]
    n = 600
    losses = [
        diffusion_loss(z0, zero_model, s, k, np.random.default_rng([5, i])).item()
        for i in range(n)
    ]
    mc = np.mean(
        [np.sum(smooth_noise(k, rng.standard_normal(shape)) ** 2) for _ in range(4000)]
    )
    assert abs(np.mean(losses) - mc) / mc < 0.05


def test_diffusion_loss_validation():
    s = make_schedule(4)
    k = SmoothingKernel(1.0)
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        diffusion_loss([], _OracleEps(None), s, k, rng)
    with pytest.raises(ValueError):
        diffusion_loss([_latents(rng)], _OracleEps(None), make_schedule(0), k, rng)


def test_motion_loss_oracle():
    rng = np.random.default_rng(7)
    shape = (2, 2, 8, 8)

    class _Fixed:
        def forward(self, z):
            return Tensor(np.ones(np.shape(z)[:-4] + shape))

    truth = rng.standard_normal(shape)
    z = [_latents(rng, t=2, c=3, h=4, w=4)]
    loss = motion_loss(z, [truth], _Fixed())
    assert loss.item() == pytest.approx(float(np.sum((1.0 - truth) ** 2)))
    with pytest.raises(ValueError):
        motion_loss(z, [truth, truth], _Fixed())
    with pytest.raises(ValueError):
        motion_loss([], [], _Fixed())
    with pytest.raises(ValueError):
        motion_loss(z, [truth[..., :-1]], _Fixed())


class _Counting:
    """A net whose ``forward`` calls are counted."""

    def __init__(self, net):
        self.net, self.calls = net, 0

    def forward(self, *args):
        self.calls += 1
        return self.net.forward(*args)


def test_each_loss_calls_its_net_once_per_batch():
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(5)
    eps, mot = _Counting(eps_net), _Counting(mot_net)
    rng = np.random.default_rng(5)
    latents = [_latents(rng, t=2, c=3, h=4, w=4) for _ in range(3)]
    loss = diffusion_loss(latents, eps, make_schedule(4), SmoothingKernel(1.0), rng)
    assert eps.calls == 1 and loss.shape == ()
    loss = motion_loss(latents, [truth] * 3, mot)
    assert mot.calls == 1 and loss.shape == ()


def test_diffusion_loss_of_a_batch_is_the_mean_of_its_items():
    # the same draws, in the same order, as one call per item
    _, _, eps_net, _, _, _ = _tiny_setup(6)
    eps_net.store["eps.out.w"].values = 0.1 * np.random.default_rng(6).standard_normal(
        eps_net.store["eps.out.w"].values.shape)
    s, k = make_schedule(5, 0.01, 0.3), SmoothingKernel(1.0)
    latents = [_latents(np.random.default_rng([6, i]), t=2, c=3, h=4, w=4) for i in range(3)]
    batched = diffusion_loss(latents, eps_net, s, k, np.random.default_rng(60)).item()
    rng = np.random.default_rng(60)
    items = [diffusion_loss([z], eps_net, s, k, rng).item() for z in latents]
    assert batched == pytest.approx(np.mean(items), rel=1e-6)


def _tiny_setup(seed=0):
    grid = Grid2(8, 8)
    rng = np.random.default_rng(seed)
    seq = FieldSequence(grid, rng.standard_normal((3, 8, 8)))
    reg = RegistrationNet(_CFG, seed=seed)
    store = ParameterStore()
    eps_net = NoisePredictor(_CFG, num_frames=2, store=store, seed=seed + 1)
    mot_net = MotionDecoder(_CFG, num_frames=2, height=8, width=8, store=store, seed=seed + 2)
    from cardiomotion.registration import pair_stack

    pairs = pair_stack(seq)
    truth = rng.standard_normal((2, 2, 8, 8))
    return seq, reg, eps_net, mot_net, pairs, truth


def test_train_requires_shared_store():
    _, reg, eps_net, _, pairs, truth = _tiny_setup()
    lone = MotionDecoder(_CFG, num_frames=2, height=8, width=8, seed=9)
    cfg = DiffusionConfig(schedule=make_schedule(2), kernel=SmoothingKernel(1.0), max_epochs=1)
    with pytest.raises(ValueError):
        train(reg, eps_net, lone, [(pairs, truth)], [], cfg)
    with pytest.raises(ValueError):
        train(reg, eps_net, eps_net, [], [], cfg)


def test_train_reduces_losses_and_restores_best():
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(1)
    cfg = DiffusionConfig(schedule=make_schedule(3, 0.01, 0.2), kernel=SmoothingKernel(1.0),
                          loss_alpha=1e-2, batch_size=2, max_epochs=40)
    result = train(reg, eps_net, mot_net, [(pairs, truth)], [(pairs, truth)], cfg,
                   learning_rate=3e-3, patience=100, seed=0)
    assert len(result.history) == 40
    first, last = result.history[0], result.history[-1]
    assert last[3] < first[3]  # training total fell
    assert result.best_epoch >= 0
    assert result.best_val <= min(h[6] for h in result.history) + 1e-12


def test_train_early_stops():
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(2)
    cfg = DiffusionConfig(schedule=make_schedule(2, 0.01, 0.2), kernel=SmoothingKernel(1.0),
                          batch_size=2, max_epochs=200)
    result = train(reg, eps_net, mot_net, [(pairs, truth)], [(pairs, truth)], cfg,
                   learning_rate=0.1, patience=3, seed=0)  # big lr oscillates quickly
    assert len(result.history) < cfg.max_epochs


def test_train_losses_weight_each_batch_by_its_size(monkeypatch):
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(5)
    cfg = DiffusionConfig(schedule=make_schedule(2, 0.01, 0.2), kernel=SmoothingKernel(1.0),
                          batch_size=2, max_epochs=1)
    seen = {"diffusion_loss": [], "motion_loss": []}
    for name, calls in seen.items():
        def recording(latents, *args, _loss=getattr(diffusion, name), _calls=calls):
            loss = _loss(latents, *args)
            _calls.append(len(latents) * loss.item())
            return loss
        monkeypatch.setattr(diffusion, name, recording)
    items = [(pairs, truth), (pairs, -truth), (pairs, 2.0 * truth)]
    result = train(reg, eps_net, mot_net, items, [], cfg, learning_rate=1e-3, seed=0)
    # three items in batches of two and one; no validation items, so only training calls
    assert len(seen["diffusion_loss"]) == len(seen["motion_loss"]) == 2
    _, l_diff, l_mot, *_ = result.history[0]
    assert l_diff == pytest.approx(sum(seen["diffusion_loss"]) / 3, rel=1e-12)
    assert l_mot == pytest.approx(sum(seen["motion_loss"]) / 3, rel=1e-12)


def test_train_validation_weights_each_batch_by_its_size():
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(6)
    cfg = DiffusionConfig(schedule=make_schedule(2, 0.01, 0.2), kernel=SmoothingKernel(1.0),
                          batch_size=2, max_epochs=1)
    items = [(pairs, truth), (pairs, -truth), (pairs, 2.0 * truth)]
    val = [(0.5 * pairs, 0.5 * truth), (pairs, -2.0 * truth), (2.0 * pairs, 3.0 * truth)]
    result = train(reg, eps_net, mot_net, items, val, cfg, learning_rate=1e-3, seed=7)
    *_, v_diff, v_mot, _ = result.history[0]
    # one epoch, so the returned parameters are the ones validation saw; the three
    # items go in order, in batches of two and one, under the fixed validation noise
    rng = np.random.default_rng([7, 0x5EED])
    want_diff = want_mot = 0.0
    with no_grad():
        for batch in (val[:2], val[2:]):
            z = [encoder_forward(reg, p) for p, _ in batch]
            want_diff += len(batch) * diffusion_loss(z, eps_net, cfg.schedule, cfg.kernel,
                                                     rng).item()
            want_mot += len(batch) * motion_loss(z, [u for _, u in batch], mot_net).item()
    assert v_diff == pytest.approx(want_diff / 3, rel=1e-12)
    assert v_mot == pytest.approx(want_mot / 3, rel=1e-12)


def test_train_frees_each_batch_graph_before_the_next():
    _, reg, eps_net, mot_net, pairs, truth = _tiny_setup(4)
    cfg = DiffusionConfig(schedule=make_schedule(2, 0.01, 0.2), kernel=SmoothingKernel(1.0),
                          batch_size=1, max_epochs=2)
    with graph_lifetimes(diffusion, "diffusion_loss") as alive:
        train(reg, eps_net, mot_net, [(pairs, truth), (pairs, -truth)], [(pairs, truth)], cfg,
              learning_rate=1e-3, seed=0)
    # per epoch, two training batches and one validation pass
    assert alive == [False] * 5


def test_infer_is_deterministic_given_rng_and_passthrough_at_m0():
    seq, reg, eps_net, mot_net, _, _ = _tiny_setup(3)
    # zero-initialized heads hide the chain; give them weights so noise shows
    setup_rng = np.random.default_rng(30)
    mot_net.store["mot.out.w"].values = 0.1 * setup_rng.standard_normal(
        mot_net.store["mot.out.w"].values.shape
    )
    eps_net.store["eps.out.w"].values = 0.1 * setup_rng.standard_normal(
        eps_net.store["eps.out.w"].values.shape
    )
    s = make_schedule(3, 0.01, 0.2)
    k = SmoothingKernel(1.0)
    a = infer(seq, reg, eps_net, mot_net, s, k, np.random.default_rng(42))
    b = infer(seq, reg, eps_net, mot_net, s, k, np.random.default_rng(42))
    c = infer(seq, reg, eps_net, mot_net, s, k, np.random.default_rng(43))
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.array_equal(a[:, 1], b[:, 1])
    assert not np.allclose(a[:, 0], c[:, 0])
    # degenerate schedule: the decoder sees the clean encoder latents
    d = infer(seq, reg, eps_net, mot_net, make_schedule(0), k, np.random.default_rng(0))
    e = infer(seq, reg, eps_net, mot_net, make_schedule(0), k, np.random.default_rng(99))
    assert np.array_equal(d[:, 0], e[:, 0])
    assert len(d) == 2  # one displacement field per (0, tau) pair
