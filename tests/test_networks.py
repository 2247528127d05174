"""Network architectures: shapes, conditioning, and the temporal contract."""

import numpy as np
import pytest

from cardiomotion.nn.networks import (MotionDecoder, NoisePredictor, RegistrationNet,
                                      UNetConfig, encoder_forward, sinusoidal_embedding)
from cardiomotion.nn.params import ParameterStore
from cardiomotion.nn.tensor import Tensor, no_grad, sum_all

_CFG = UNetConfig(in_channels=2, base_channels=4, latent_channels=3, num_down=2,
                  time_embed_dim=8)


def test_unet_config_validation():
    with pytest.raises(ValueError):
        UNetConfig(base_channels=0)
    with pytest.raises(ValueError):
        UNetConfig(num_down=0)


def test_sinusoidal_embedding():
    e = sinusoidal_embedding(0, 8)
    assert e.shape == (8,)
    assert np.allclose(e[:4], 0.0) and np.allclose(e[4:], 1.0)
    assert not np.allclose(sinusoidal_embedding(3, 8), sinusoidal_embedding(4, 8))
    with pytest.raises(ValueError):
        sinusoidal_embedding(1, 7)


def test_registration_net_shapes_and_zero_init():
    net = RegistrationNet(_CFG, seed=0)
    pairs = np.random.default_rng(0).standard_normal((3, 2, 16, 16))
    with no_grad():
        v = net.forward(pairs)
    assert v.values.shape == (3, 2, 16, 16)
    # zero-initialized output head: the initial prediction is exactly zero
    assert np.array_equal(v.values, np.zeros_like(v.values))


def test_registration_net_is_per_frame():
    net = RegistrationNet(_CFG, seed=1)
    net.store["reg.dec.out.w"].values = (
        0.1 * np.random.default_rng(1).standard_normal((2, 4, 3, 3))
    )
    rng = np.random.default_rng(2)
    pairs = rng.standard_normal((3, 2, 16, 16))
    with no_grad():
        base = net.forward(pairs).values.copy()
    pairs2 = pairs.copy()
    pairs2[1] += rng.standard_normal((2, 16, 16))
    with no_grad():
        changed = net.forward(pairs2).values
    assert np.array_equal(changed[0], base[0])  # other frames untouched
    assert np.array_equal(changed[2], base[2])
    assert not np.allclose(changed[1], base[1])


def test_registration_net_input_validation():
    net = RegistrationNet(_CFG, seed=0)
    with pytest.raises(ValueError):
        net.encode(np.zeros((2, 3, 16, 16)))  # wrong channel count
    with pytest.raises(ValueError):
        net.encode(np.zeros((2, 2, 10, 16)))  # 10 not divisible by 4
    fresh = RegistrationNet(_CFG, seed=0)
    with pytest.raises(ValueError):
        fresh.decode(np.zeros((2, 3, 4, 4)), [])  # no encoder skips


def test_encoder_decoder_helpers_round_trip():
    net = RegistrationNet(_CFG, seed=3)
    pairs = np.random.default_rng(3).standard_normal((2, 2, 16, 16))
    z = encoder_forward(net, pairs)
    assert isinstance(z, Tensor)
    assert z.values.shape == (2, 3, 4, 4)
    assert not z.requires_grad  # the frozen encoder records no graph
    with no_grad():
        _, skips = net.encode(pairs)
        v = net.decode(z.values, skips).values
        direct = net.forward(pairs)
    assert np.allclose(v, direct.values, atol=1e-12)
    bare = RegistrationNet(_CFG, seed=3)
    with pytest.raises(ValueError):
        bare.decode(z.values, skips[:1])


def test_noise_predictor_shapes_and_conditioning():
    net = NoisePredictor(_CFG, num_frames=3, seed=4)
    net.store["eps.out.w"].values = (
        0.1 * np.random.default_rng(4).standard_normal((9, 4, 3, 3))
    )
    z = np.random.default_rng(5).standard_normal((3, 3, 8, 8))
    with no_grad():
        a = net.forward(z, 1).values
        b = net.forward(z, 50).values
    assert a.shape == (3, 3, 8, 8)
    assert not np.allclose(a, b)  # the step embedding modulates the output
    with pytest.raises(ValueError):
        net.forward(z, 0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 3, 8, 8)), 1)  # wrong frame count


def test_noise_predictor_mixes_frames():
    # frames fold into channels, so one frame's noise informs the others
    net = NoisePredictor(_CFG, num_frames=2, seed=6)
    net.store["eps.out.w"].values = (
        0.1 * np.random.default_rng(6).standard_normal((6, 4, 3, 3))
    )
    rng = np.random.default_rng(7)
    z = rng.standard_normal((2, 3, 8, 8))
    with no_grad():
        base = net.forward(z, 5).values.copy()
    z2 = z.copy()
    z2[0] += rng.standard_normal((3, 8, 8))
    with no_grad():
        changed = net.forward(z2, 5).values
    assert not np.allclose(changed[1], base[1])


def test_motion_decoder_shapes_and_inputs():
    net = MotionDecoder(_CFG, num_frames=2, height=16, width=16, seed=8)
    pairs = np.random.default_rng(8).standard_normal((2, 2, 16, 16))
    z = encoder_forward(RegistrationNet(_CFG, seed=8), pairs)
    values = z.values.copy()
    with no_grad():
        from_latents = net.forward(z).values
        from_array = net.forward(values).values
        from_tensor = net.forward(Tensor(values)).values
    assert from_latents.shape == (2, 2, 16, 16)
    assert np.array_equal(from_latents, from_array)
    assert np.array_equal(from_latents, from_tensor)
    # zero-initialized head: displacement starts at exactly zero
    assert np.array_equal(from_latents, np.zeros_like(from_latents))
    with pytest.raises(ValueError):
        net.forward(np.zeros((3, 3, 4, 4)))  # wrong frame count
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 3, 8, 8)))  # latent dims inconsistent
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 3, 4)))  # not (T, C, h, w)
    with pytest.raises(ValueError):
        MotionDecoder(_CFG, num_frames=2, height=10, width=16)


def test_motion_decoder_depends_on_latents():
    net = MotionDecoder(_CFG, num_frames=2, height=16, width=16, seed=9)
    net.store["mot.out.w"].values = (
        0.1 * np.random.default_rng(9).standard_normal((4, 4, 3, 3))
    )
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 3, 4, 4))
    b = a + rng.standard_normal((2, 3, 4, 4))
    with no_grad():
        assert not np.allclose(net.forward(a).values, net.forward(b).values)


def test_networks_share_a_store_without_collisions():
    store = ParameterStore()
    NoisePredictor(_CFG, num_frames=2, store=store, seed=0)
    MotionDecoder(_CFG, num_frames=2, height=16, width=16, store=store, seed=1)
    names = list(store.params)
    assert any(n.startswith("eps.") for n in names)
    assert any(n.startswith("mot.") for n in names)
    with pytest.raises(ValueError):
        NoisePredictor(_CFG, num_frames=2, store=store, seed=0)


def test_gradients_reach_parameters():
    net = NoisePredictor(_CFG, num_frames=2, seed=11)
    z = np.random.default_rng(11).standard_normal((2, 3, 8, 8))
    loss = sum_all(net.forward(z, 3))
    loss.backward()
    g = net.store["eps.out.w"].grad
    assert g is not None and np.any(g)
