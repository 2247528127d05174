"""Spectral metric operator and the smoothed-noise kernel."""

import pickle

import numpy as np
import pytest

from cardiomotion.geodesic import ShootingConfig, shoot
from cardiomotion.grid import Grid2, VectorField
from cardiomotion.metric import MetricOperator, SmoothingKernel, smooth_noise
from helpers import clamped_convolution, metric_norm


def _rand_field(grid, rng):
    return VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))


def test_multiplier_formula_matches_definition():
    grid = Grid2(8, 12)
    op = MetricOperator(grid, alpha=2.0, gamma=0.5, power=2)
    k1 = np.arange(12)[None, :]
    k2 = np.arange(8)[:, None]
    base = 0.5 + 2.0 * 2.0 * ((1 - np.cos(2 * np.pi * k1 / 12)) + (1 - np.cos(2 * np.pi * k2 / 8)))
    assert np.allclose(op.multipliers, base**2, atol=1e-12)
    assert op.multipliers.min() >= 0.5**2  # DC gain is gamma^power


def test_single_mode_eigenvalue_vs_dft_oracle():
    # L acting on a pure cosine mode scales it by the multiplier at that mode
    grid = Grid2(16, 16)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    ys, xs = np.mgrid[0:16, 0:16]
    for k1, k2 in [(1, 0), (0, 2), (3, 5), (8, 8)]:
        mode = np.cos(2 * np.pi * (k1 * xs / 16 + k2 * ys / 16))
        v = VectorField(grid, mode, np.zeros_like(mode))
        lv = op.multiply(v.values)
        lam = 1.0 + 2 * 3.0 * ((1 - np.cos(2 * np.pi * k1 / 16)) + (1 - np.cos(2 * np.pi * k2 / 16)))
        assert np.allclose(lv[0], lam**3 * mode, atol=1e-8)


def test_k_inverts_l():
    grid = Grid2(17, 13)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    rng = np.random.default_rng(1)
    v = _rand_field(grid, rng)
    w = op.multiply(op.multiply(v.values), inverse=True)
    assert np.max(np.abs(w[0] - v.x_component)) < 1e-8
    assert np.max(np.abs(w[1] - v.y_component)) < 1e-8


def test_operator_pickles_by_its_parameters():
    # a worker process rebuilds the Fourier factors rather than receiving them
    op = MetricOperator(Grid2(64, 64), alpha=200.0, gamma=1.0, power=1)
    blob = pickle.dumps(op)
    assert len(blob) < 1024
    copy = pickle.loads(blob)
    v = _rand_field(op.grid, np.random.default_rng(2)).values
    for a in (v, v.astype(np.float32)):
        for inverse in (False, True):
            assert copy.multiply(a, inverse).tobytes() == op.multiply(a, inverse).tobytes()


def test_l_is_self_adjoint():
    grid = Grid2(12, 12)
    op = MetricOperator(grid, alpha=1.5, gamma=2.0, power=2)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = _rand_field(grid, rng), _rand_field(grid, rng)
        la, lb = op.multiply(a.values), op.multiply(b.values)
        lhs = np.sum(la[0] * b.x_component) + np.sum(la[1] * b.y_component)
        rhs = np.sum(a.x_component * lb[0]) + np.sum(a.y_component * lb[1])
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_metric_norm_positive_and_quadratic():
    grid = Grid2(10, 10)
    op = MetricOperator(grid)
    rng = np.random.default_rng(3)
    v = _rand_field(grid, rng)
    n = metric_norm(op, v.values)
    assert n > 0
    v2 = VectorField(grid, 2.0 * v.x_component, 2.0 * v.y_component)
    assert abs(metric_norm(op, v2.values) - 4.0 * n) < 1e-8 * n


def test_dc_mode_scales_by_gamma_power():
    # L on a constant field multiplies by gamma^power regardless of alpha.
    grid = Grid2(8, 8)
    op = MetricOperator(grid, alpha=2.5, gamma=3.0, power=2)
    v = VectorField(grid, np.ones((8, 8)), 2.0 * np.ones((8, 8)))
    lv = op.multiply(v.values)
    assert np.allclose(lv[0], 9.0, atol=1e-10)
    assert np.allclose(lv[1], 18.0, atol=1e-10)
    kv = op.multiply(v.values, inverse=True)
    assert np.allclose(kv[0], 1.0 / 9.0, atol=1e-10)


def _rfft2_route(op, a, inverse):
    # the Fourier route: multiply the half spectrum of numpy's real FFT by the symbol
    h, w = op.grid.shape
    half = op.multipliers[:, : w // 2 + 1]
    return np.fft.irfft2(np.fft.rfft2(a) * (1.0 / half if inverse else half), s=(h, w))


@pytest.mark.parametrize("shape", [(9, 7), (8, 12), (64, 64)])
@pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
def test_multiply_equals_the_rfft2_route(shape, lead):
    # the real-Fourier-basis GEMMs apply the same operator as the FFT
    grid = Grid2(*shape)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    a = np.random.default_rng(8).standard_normal(lead + shape)
    for inverse in (False, True):
        got, ref = op.multiply(a, inverse=inverse), _rfft2_route(op, a, inverse)
        assert got.shape == a.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_operator_validation():
    grid = Grid2(8, 8)
    with pytest.raises(ValueError):
        MetricOperator(grid, alpha=-1.0)
    with pytest.raises(ValueError):
        MetricOperator(grid, alpha=0.0)
    with pytest.raises(ValueError):
        MetricOperator(grid, gamma=0.0)
    with pytest.raises(ValueError):
        MetricOperator(grid, power=0)
    # (1 + 8e200)^2 overflows: refused by name rather than left to blow up shooting
    with pytest.raises(ValueError, match=r"alpha=1e\+200, gamma=1.0, power=2"):
        MetricOperator(grid, alpha=1e200, power=2)
    # training multiplies in float32, so the symbol (up to 1 + 8 alpha here) and
    # its reciprocal must be finite there too; the largest float32 is about 3.4e38
    with pytest.raises(ValueError, match=r"symbol overflows at alpha=1e\+38, gamma=1.0, power=1"):
        MetricOperator(grid, alpha=1e38, power=1)
    with pytest.raises(ValueError, match=r"underflows at alpha=1e-30, gamma=1e-20, power=2"):
        MetricOperator(grid, alpha=1e-30, gamma=1e-20, power=2)
    a = np.random.default_rng(0).standard_normal((2, 8, 8)).astype(np.float32)
    big = MetricOperator(grid, alpha=1e36, power=1)
    assert np.all(np.isfinite(big.multiply(a))) and np.all(np.isfinite(big.multiply(a, True)))
    op = MetricOperator(grid)
    other = VectorField(Grid2(9, 9), np.zeros((9, 9)), np.zeros((9, 9)))
    with pytest.raises(ValueError, match="does not match operator grid"):
        shoot(ShootingConfig(1, op), other)


def test_smoothing_kernel_normalized_and_symmetric():
    k = SmoothingKernel(1.0)
    assert abs(k.weights.sum() - 1.0) < 1e-14
    assert np.allclose(k.weights, k.weights[::-1])
    assert k.radius >= 3  # at least 3 standard deviations


def test_kernel_radius_defaults_to_three_std_rounded_up():
    assert SmoothingKernel(1.0).radius == 3
    assert np.array_equal(SmoothingKernel(1.0).weights, SmoothingKernel(1.0, 3).weights)
    assert SmoothingKernel(1.5).radius == 5
    assert SmoothingKernel(3.0, 9).radius == 9


def test_smooth_noise_preserves_constants():
    k = SmoothingKernel(1.5, radius=5)
    x = np.full((2, 5, 8, 8), 3.25)
    out = smooth_noise(k, x)
    assert np.allclose(out, 3.25, atol=1e-12)


def test_smooth_noise_reduces_variance():
    k = SmoothingKernel(1.0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 16, 16))
    out = smooth_noise(k, x)
    assert out.var() < 0.5 * x.var()


def test_smooth_noise_shape_and_leading_axes():
    k = SmoothingKernel(1.0)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4, 8, 6))
    out = smooth_noise(k, x)
    assert out.shape == x.shape
    # each leading slice is smoothed independently
    single = smooth_noise(k, x[1, 2])
    assert np.allclose(out[1, 2], single, atol=1e-14)


@pytest.mark.parametrize("kernel, shape", [(SmoothingKernel(1.0), (2, 9, 7)),
                                           (SmoothingKernel(1.5), (3, 16, 16)),
                                           (SmoothingKernel(3.0, 9), (4, 4))])
def test_smooth_noise_equals_the_clamped_tap_loop(kernel, shape):
    # a radius of 9 on a side of 4 clamps most taps onto the edge samples
    x = np.random.default_rng(7).standard_normal(shape)
    want = clamped_convolution(kernel.weights, x, axis=-1)
    want = clamped_convolution(kernel.weights, want, axis=-2)
    assert np.abs(smooth_noise(kernel, x) - want).max() < 1e-14


def test_kernel_validation():
    with pytest.raises(ValueError):
        SmoothingKernel(-0.5)
    for std in (1000.5, 1.7e308):  # 3 std overflows the float range at the last
        with pytest.raises(ValueError, match="kernel std must be in"):
            SmoothingKernel(std)
    with pytest.raises(ValueError, match="radius 4"):
        SmoothingKernel(1.5, radius=4)
