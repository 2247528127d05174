"""Analytic cases for the benchmark's reference computations (reference.py).

Run with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import reference as R

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

H, W = 16, 20
PARAMS = dict(num_steps=5, alpha=50.0, gamma=1.0, power=1, sigma=0.05)


def _smooth(rng, scale):
    a = rng.standard_normal((H, W))
    low = R.apply_symbol(a, 1.0 / R.metric_symbol((H, W), 5.0, 1.0, 2))
    return scale * low / np.abs(low).max()


def test_symbol_eigenvalue_of_single_mode():
    ys, xs = np.indices((H, W), dtype=np.float64)
    mode = np.cos(2.0 * np.pi * 3 * xs / W)
    lam = 1.0 + 2.0 * 50.0 * (1.0 - np.cos(2.0 * np.pi * 3 / W))
    out = R.apply_symbol(mode, R.metric_symbol((H, W), 50.0, 1.0, 2))
    np.testing.assert_allclose(out, lam**2 * mode, atol=1e-9 * lam**2)


def test_metric_norm_matches_pixel_sum():
    rng = np.random.default_rng(0)
    vx, vy = rng.standard_normal((2, H, W))
    sym = R.metric_symbol((H, W), 3.0, 1.0, 3)
    direct = np.sum(R.apply_symbol(vx, sym) * vx) + np.sum(R.apply_symbol(vy, sym) * vy)
    assert R.metric_norm(vx, vy, sym) == pytest.approx(direct, rel=1e-12)


def test_bilinear_is_exact_on_linear_fields_and_clamps():
    ys, xs = np.indices((H, W), dtype=np.float64)
    ramp = 2.0 * xs - 0.5 * ys + 1.0
    rng = np.random.default_rng(1)
    qx = rng.uniform(0.0, W - 1.0, 50)
    qy = rng.uniform(0.0, H - 1.0, 50)
    np.testing.assert_allclose(R.sample_bilinear(ramp, qx, qy), 2.0 * qx - 0.5 * qy + 1.0,
                               atol=1e-12)
    corner = R.sample_bilinear(ramp, np.array([-3.0, W + 4.0]), np.array([-1.0, H + 2.0]))
    np.testing.assert_array_equal(corner, [ramp[0, 0], ramp[-1, -1]])


def test_zero_velocity_energy_is_scaled_ssd():
    rng = np.random.default_rng(2)
    src, tgt = rng.uniform(size=(2, H, W))
    zero = np.zeros((H, W))
    total, dist, reg = R.registration_energy(src, tgt, zero, zero, **PARAMS)
    assert reg == 0.0
    assert dist == pytest.approx(np.sum((src - tgt) ** 2), rel=1e-14)
    assert total == pytest.approx(dist / (2.0 * 0.05**2), rel=1e-14)


def test_translation_keeps_velocity_and_shifts_image():
    a, b = 0.6, -0.35
    vx, vy = np.full((H, W), a), np.full((H, W), b)
    sym = R.metric_symbol((H, W), 50.0, 1.0, 1)
    for wx, wy in R.epdiff_velocities(vx, vy, sym, 5):
        np.testing.assert_allclose(wx, a, atol=1e-12)
        np.testing.assert_allclose(wy, b, atol=1e-12)
    ys, xs = np.indices((H, W), dtype=np.float64)
    src = 0.3 * xs + 0.1 * ys
    _, dist, reg = R.registration_energy(src, src, vx, vy, **PARAMS)
    assert reg == pytest.approx((a * a + b * b) * H * W, rel=1e-12)  # gamma^power = 1
    px, py = R.inverse_map(R.epdiff_velocities(vx, vy, sym, 5), (H, W))
    # the clamp at the border spreads inward by about one pixel per step
    inner = (slice(6, -6), slice(6, -6))
    np.testing.assert_allclose(px[inner], (xs - a)[inner], atol=1e-12)
    np.testing.assert_allclose(py[inner], (ys - b)[inner], atol=1e-12)
    warped = R.sample_bilinear(src, px, py)
    np.testing.assert_allclose(warped[inner], (0.3 * (xs - a) + 0.1 * (ys - b))[inner],
                               atol=1e-12)
    assert dist > 0.0


def test_epe_of_constant_offset():
    mask = np.zeros((H, W), dtype=bool)
    mask[3:9, 4:12] = True
    zero = np.zeros((H, W))
    ux, uy = np.full((H, W), 3.0), np.full((H, W), 4.0)
    uy[~mask] = 100.0  # outside the mask: ignored
    assert R.masked_epe(ux, uy, zero, zero, mask) == 5.0
    assert R.masked_epe(ux, uy, zero, zero, mask, spacing=1.5) == 7.5


@pytest.mark.parametrize("matrix", [((1.0, 0.0), (0.0, 1.0)), ((0.9, 0.0), (0.0, 0.9)),
                                    ((0.8, -0.6), (0.6, 0.8)), ((1.2, 0.3), (-0.1, 0.7))])
def test_jacobian_determinant_of_affine_map(matrix):
    (m00, m01), (m10, m11) = matrix
    ys, xs = np.indices((H, W), dtype=np.float64)
    px = m00 * xs + m01 * ys + 2.0
    py = m10 * xs + m11 * ys - 1.0
    np.testing.assert_allclose(R.jacobian_determinant(px, py), m00 * m11 - m01 * m10,
                               atol=1e-12)


def test_energy_agrees_with_program():
    from cardiomotion.geodesic import ShootingConfig
    from cardiomotion.grid import Grid2, ScalarField, VectorField
    from cardiomotion.metric import MetricOperator
    from cardiomotion.registration import RegistrationConfig, energy

    rng = np.random.default_rng(3)
    vx, vy = _smooth(rng, 0.8), _smooth(rng, 0.8)
    src, tgt = _smooth(rng, 1.0), _smooth(rng, 1.0)
    grid = Grid2(H, W)
    cfg = RegistrationConfig(ShootingConfig(5, MetricOperator(grid, 50.0, 1.0, 1)), sigma=0.05)
    program = energy(cfg, VectorField(grid, vx, vy), ScalarField(grid, src),
                     ScalarField(grid, tgt))
    ours = R.registration_energy(src, tgt, vx, vy, **PARAMS)
    np.testing.assert_allclose(ours, program, rtol=1e-10)
