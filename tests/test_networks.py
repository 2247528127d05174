"""Network architectures: shapes, conditioning, and the temporal contract."""

import numpy as np
import pytest

import cardiomotion.nn.networks as networks
from cardiomotion.container import read_container
from cardiomotion.nn.networks import (MotionDecoder, NoisePredictor, RegistrationNet,
                                      UNetConfig, encoder_forward, sinusoidal_embedding)
from cardiomotion.nn.params import ParameterStore, adam_step, load_checkpoint, save_checkpoint
from cardiomotion.nn.tensor import Tensor, add, cast, mul, no_grad, sum_all
from helpers import directional_probe_check

_CFG = UNetConfig(in_channels=2, base_channels=4, latent_channels=3, num_down=2,
                  time_embed_dim=8)


def test_unet_config_validation():
    with pytest.raises(ValueError):
        UNetConfig(base_channels=0)
    with pytest.raises(ValueError):
        UNetConfig(num_down=0)


def test_sinusoidal_embedding():
    e = sinusoidal_embedding(0, 8)
    assert e.shape == (1, 8)
    assert np.allclose(e[0, :4], 0.0) and np.allclose(e[0, 4:], 1.0)
    rows = sinusoidal_embedding(np.array([3, 4, 3]), 8)
    assert rows.shape == (3, 8)
    assert np.array_equal(rows[0], sinusoidal_embedding(3, 8)[0])
    assert np.array_equal(rows[0], rows[2]) and not np.allclose(rows[0], rows[1])
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
    with pytest.raises(ValueError):
        net.decode(np.zeros((2, 4, 4, 4)))  # 4 latent channels, not 3


def test_encoder_decoder_helpers_round_trip():
    net = RegistrationNet(_CFG, seed=3)
    pairs = np.random.default_rng(3).standard_normal((2, 2, 16, 16))
    z = encoder_forward(net, pairs)
    assert isinstance(z, Tensor)
    assert z.values.shape == (2, 3, 4, 4)
    assert not z.requires_grad  # the frozen encoder records no graph
    with no_grad():
        v = net.decode(z.values)
        direct = net.forward(pairs)
    assert v.values.dtype == np.float32 and v.values.shape == (2, 2, 16, 16)
    assert np.array_equal(v.values.astype(np.float64), direct.values)


# ---------------------------------------------------------------------------
# the velocity head's spectral upsampling
# ---------------------------------------------------------------------------


def _sampled_modes(n, positions):
    """Every real mode of n periodic samples evaluated at ``positions``, one row each:
    the cosines of frequencies 0..n/2 (n/2 is the alternating mode) and the sines
    of 1..n/2-1."""
    angles = 2.0 * np.pi * np.outer(np.arange(n // 2 + 1), positions) / n
    return np.concatenate([np.cos(angles), np.sin(angles[1:n // 2])])


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_spectral_upsample_interpolates_every_mode_of_the_band(dtype, tol):
    (h, height), (w, width) = (4, 16), (16, 64)
    rows, cols = _sampled_modes(h, np.arange(h)), _sampled_modes(w, np.arange(w))
    fine_rows = _sampled_modes(h, np.arange(height) * h / height)
    fine_cols = _sampled_modes(w, np.arange(width) * w / width)
    # every product of a row mode and a column mode, as a (rows, cols, h, w) batch
    f = np.einsum("ai,bj->abij", rows, cols).astype(dtype)
    expected = np.einsum("ai,bj->abij", fine_rows, fine_cols)
    up = networks.spectral_upsample(f, height, width).values
    assert up.dtype == dtype and up.shape == (h, w, height, width)
    assert np.abs(up - expected).max() < tol


@pytest.mark.parametrize("n, size", [(4, 16), (16, 64), (5, 20), (1, 2)])
def test_interpolation_matrix_keeps_the_samples(n, size):
    u = networks.interpolation_matrix(n, size)
    assert u.shape == (size, n)
    assert np.allclose(u[::size // n], np.eye(n), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_spectral_upsample_backward_is_the_adjoint(dtype, tol):
    rng = np.random.default_rng(30)
    f = Tensor(rng.standard_normal((3, 2, 4, 8)).astype(dtype), requires_grad=True)
    g = rng.standard_normal((3, 2, 16, 32)).astype(dtype)
    up = networks.spectral_upsample(f, 16, 32)
    sum_all(mul(up, Tensor(g))).backward()
    assert up.values.dtype == f.grad.dtype == dtype  # a float32 node stays float32
    lhs, rhs = np.sum(up.values * g, dtype=np.float64), np.sum(f.values * f.grad, dtype=np.float64)
    assert abs(lhs - rhs) <= tol * np.sqrt(np.sum(up.values**2) * np.sum(g**2))


# ---------------------------------------------------------------------------
# the motion decoder's linear interpolation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, size", [(4, 16), (16, 61), (2, 9), (1, 2)])
def test_linear_interpolation_matrix_keeps_the_samples(n, size):
    u = networks.linear_interpolation_matrix(n, size)
    assert u.shape == (size, n)
    # corners aligned: coarse sample j sits on fine sample j (size - 1) / (n - 1)
    step = (size - 1) // max(n - 1, 1)
    assert np.array_equal(u[::step][:n], np.eye(n))
    assert np.all(u >= 0.0) and np.allclose(u.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_linear_upsample_reproduces_an_affine_field_on_the_image_grid():
    (h, height), (w, width) = (16, 64), (8, 32)
    rows, cols = np.arange(h) * (height - 1) / (h - 1), np.arange(w) * (width - 1) / (w - 1)
    a = np.array([[0.3, -1.2, 0.7], [-0.4, 0.25, 2.0]])  # (x, y) = offset + gradient . (row, col)

    def affine(r, c):
        return a[:, :1, None] + a[:, 1:2, None] * r[:, None] + a[:, 2:3, None] * c[None, :]

    up = networks.upsample(affine(rows, cols),
                           networks.linear_interpolation_matrix(h, height),
                           networks.linear_interpolation_matrix(w, width)).values
    assert up.shape == (2, height, width)
    assert np.abs(up - affine(np.arange(height), np.arange(width))).max() < 1e-12


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_linear_upsample_backward_is_the_adjoint(dtype, tol):
    rng = np.random.default_rng(32)
    f = Tensor(rng.standard_normal((3, 2, 4, 8)).astype(dtype), requires_grad=True)
    g = rng.standard_normal((3, 2, 16, 32)).astype(dtype)
    up = networks.upsample(f, networks.linear_interpolation_matrix(4, 16),
                           networks.linear_interpolation_matrix(8, 32))
    sum_all(mul(up, Tensor(g))).backward()
    assert up.values.dtype == f.grad.dtype == dtype
    lhs, rhs = np.sum(up.values * g, dtype=np.float64), np.sum(f.values * f.grad, dtype=np.float64)
    assert abs(lhs - rhs) <= tol * np.sqrt(np.sum(up.values**2) * np.sum(g**2))


def test_decode_gradient_matches_finite_differences_in_float64(monkeypatch):
    # the nets compute in float32; cast to float64 instead, so central
    # differences resolve the gradient through the head and the upsampling
    monkeypatch.setattr(networks, "cast", lambda a, dtype: cast(a, np.float64))
    net = RegistrationNet(_CFG, seed=31)
    rng = np.random.default_rng(31)
    net.store["reg.dec.out.w"].values = 0.1 * rng.standard_normal((2, 4, 3, 3))
    names = ["reg.dec.in.w", "reg.dec.mid.w", "reg.dec.out.w"]
    weights = Tensor(rng.standard_normal((2, 2, 16, 16)))

    def loss(leaves):
        for name, leaf in zip(names, leaves[1:]):
            net.store.params[name] = leaf
        return sum_all(mul(net.decode(leaves[0]), weights))

    leaves = [rng.standard_normal((2, 3, 4, 4))] + [net.store[n].values for n in names]
    directional_probe_check(loss, leaves, rng, probes=4, eps=1e-6, rtol=1e-6)


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
    # every layer runs on the latent grid: no upsampling stage, and a head that reads
    # the 4 * 2**2 channels of the first layer and the two coordinates
    shapes = {name: p.values.shape for name, p in net.store.params.items()
              if not name.endswith("b")}  # the biases follow the weights
    assert shapes == {"mot.in.w": (16, 6, 3, 3), "mot.head.w": (4, 18, 3, 3),
                      "mot.out.w": (4, 4, 3, 3), "mot.film_in.sw": (6, 16),
                      "mot.film_in.tw": (6, 16), "mot.film_head.sw": (6, 4),
                      "mot.film_head.tw": (6, 4)}


def test_motion_decoder_interpolates_linearly_between_latent_nodes():
    net = MotionDecoder(_CFG, num_frames=2, height=16, width=16, seed=13)
    net.store["mot.out.w"].values = (
        0.1 * np.random.default_rng(13).standard_normal((4, 4, 3, 3))
    )
    z = np.random.default_rng(14).standard_normal((2, 3, 4, 4))
    with no_grad():
        u = net.forward(z).values
    # the four latent nodes of each axis sit on image pixels 0, 5, 10 and 15
    nodes = u[..., ::5, ::5]
    m = networks.linear_interpolation_matrix(4, 16)
    assert np.abs(u - m @ nodes @ m.T).max() <= 1e-6 * np.abs(u).max()
    assert np.abs(u).max() > 1e-2


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


# ---------------------------------------------------------------------------
# precision: float32 networks over float64 master parameters
# ---------------------------------------------------------------------------


def _three_nets(seed):
    """A registration net and a noise predictor/motion decoder pair on one store,
    with random (not zero) output heads so every output depends on every layer."""
    rng = np.random.default_rng(seed)
    reg = RegistrationNet(_CFG, seed=seed)
    store = ParameterStore()
    eps = NoisePredictor(_CFG, num_frames=2, store=store, seed=seed + 1)
    mot = MotionDecoder(_CFG, num_frames=2, height=16, width=16, store=store, seed=seed + 2)
    for s in (reg.store, store):
        for name, p in s.params.items():
            if name.endswith("out.w"):
                p.values = 0.1 * rng.standard_normal(p.values.shape)
    pairs = rng.standard_normal((2, 2, 16, 16))
    return reg, eps, mot, pairs


def _weighted_sum(out, rng):
    return sum_all(mul(out, Tensor(rng.standard_normal(out.values.shape))))


def test_nets_compute_in_float32_and_return_float64(monkeypatch):
    reg, eps, mot, pairs = _three_nets(20)
    conv_dtypes, grad_dtypes = [], []

    def recording(conv):
        def recording_conv(*args):
            y = conv(*args)
            conv_dtypes.append(y.values.dtype)
            if y._vjp is not None:
                vjp = y._vjp

                def recording_vjp(g):
                    grads = vjp(g)
                    grad_dtypes.extend([g.dtype] + [d.dtype for d in grads if d is not None])
                    return grads

                y._vjp = recording_vjp
            return y

        return recording_conv

    for name in ("conv2d", "upsample_conv2d", "upsample"):
        monkeypatch.setattr(networks, name, recording(getattr(networks, name)))
    z = encoder_forward(reg, pairs)
    outputs = [z, reg.forward(pairs), eps.forward(z.values, 3), mot.forward(z)]
    assert [o.values.dtype for o in outputs] == [np.float64] * 4
    # encoder 6; encoder and head 9 and the head's interpolation; noise predictor 6, two
    # of them upsampling convolutions; motion decoder 3 and its interpolation
    assert len(conv_dtypes) == 6 + 10 + 6 + 4
    assert set(conv_dtypes) == {np.dtype(np.float32)}
    # the backward pass through the convolutions and interpolations is float32 as well
    rng = np.random.default_rng(20)
    add(add(*[_weighted_sum(o, rng) for o in outputs[1:3]]),
        _weighted_sum(outputs[3], rng)).backward()
    assert len(grad_dtypes) > 10 + 6 + 4
    assert set(grad_dtypes) == {np.dtype(np.float32)}


def test_master_parameters_gradients_and_adam_moments_stay_float64():
    reg, eps, mot, pairs = _three_nets(21)
    rng = np.random.default_rng(21)
    z = encoder_forward(reg, pairs)
    _weighted_sum(reg.forward(pairs), rng).backward()
    add(_weighted_sum(eps.forward(z.values, 2), rng),
        _weighted_sum(mot.forward(z), rng)).backward()
    for store in (reg.store, eps.store):
        for name, p in store.params.items():
            assert p.grad.dtype == np.float64, name
            assert np.all(np.isfinite(p.grad)), name
        adam_step(store, 1e-3)
        for name, p in store.params.items():
            assert p.values.dtype == np.float64, name
            assert store.moment1[name].dtype == np.float64, name
            assert store.moment2[name].dtype == np.float64, name


def test_checkpoint_of_trained_nets_round_trips_bit_exact_in_float64(tmp_path):
    reg, eps, mot, pairs = _three_nets(22)
    rng = np.random.default_rng(22)
    z = encoder_forward(reg, pairs)
    add(_weighted_sum(eps.forward(z.values, 2), rng),
        _weighted_sum(mot.forward(z), rng)).backward()
    adam_step(eps.store, 1e-3)
    path = tmp_path / "model.lmf1"
    save_checkpoint(eps.store, path)
    records = read_container(path)
    assert {r.dtype for r in records.values()} == {np.dtype(np.float64)}

    store = ParameterStore()
    eps2 = NoisePredictor(_CFG, num_frames=2, store=store, seed=0)
    mot2 = MotionDecoder(_CFG, num_frames=2, height=16, width=16, store=store, seed=0)
    load_checkpoint(store, path)
    assert store.step_count == eps.store.step_count == 1
    for name, p in eps.store.params.items():
        q = store[name]
        assert q.values.dtype == np.float64 and np.array_equal(q.values, p.values), name
        assert np.array_equal(store.moment1[name], eps.store.moment1[name]), name
        assert np.array_equal(store.moment2[name], eps.store.moment2[name]), name
    with no_grad():
        assert np.array_equal(eps2.forward(z.values, 2).values, eps.forward(z.values, 2).values)
        assert np.array_equal(mot2.forward(z).values, mot.forward(z).values)


# ---------------------------------------------------------------------------
# the diffusion-stage nets on a (B, T, C, h, w) batch of sequences
# ---------------------------------------------------------------------------


def _close32(a, b):
    return np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))


def test_batched_forward_matches_one_sequence_calls():
    _, eps, mot, _ = _three_nets(12)
    z = np.random.default_rng(12).standard_normal((3, 2, 3, 4, 4))
    steps = np.array([7, 1, 30])
    with no_grad():
        noise = eps.forward(z, steps).values
        motion = mot.forward(z).values
        one_step = eps.forward(z, 5).values
        assert noise.shape == (3, 2, 3, 4, 4) and motion.shape == (3, 2, 2, 16, 16)
        for b in range(3):
            # the same float32 arithmetic per item, up to its round-off
            assert _close32(noise[b], eps.forward(z[b], steps[b]).values)
            assert _close32(motion[b], mot.forward(z[b]).values)
            assert _close32(one_step[b], eps.forward(z[b], 5).values)
    assert np.abs(noise).max() > 1e-2 and np.abs(motion).max() > 1e-2


def test_noise_predictor_takes_one_step_or_one_per_item():
    net = NoisePredictor(_CFG, num_frames=2, seed=14)
    z = np.zeros((3, 2, 3, 4, 4))
    for steps in (np.array([1, 2]), np.array([1, 2, 3, 4]), []):
        with pytest.raises(ValueError, match="diffusion steps"):
            net.forward(z, steps)
    with pytest.raises(ValueError, match=">= 1"):
        net.forward(z, np.array([1, 0, 2]))
