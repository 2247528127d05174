"""Fourier-multiplier metric operator and Gaussian smoothing kernel.

The metric operator realizes L = (-alpha * Laplacian + gamma * Id)^power
with the discrete five-point Laplacian symbol, applied per component via
real FFTs under periodic boundary conditions (exactly invertible, so
K = L^-1 is the same multiplication by the reciprocal symbol).  The
smoothing kernel is a truncated, normalized 1-D Gaussian applied
separably along the two trailing axes with clamped (edge-replicate)
boundaries; it smooths diffusion noise and is unrelated to K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError
from .grid import Grid2, VectorField


class MetricOperator:
    """L and its inverse K as cached real, positive Fourier multipliers."""

    def __init__(self, grid: Grid2, alpha: float = 3.0, gamma: float = 1.0, power: int = 3):
        if alpha <= 0 or gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if power < 1:
            raise ValueError("power must be a positive integer")
        self.grid = grid
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.power = int(power)
        h, w = grid.shape
        k1 = np.arange(w)[None, :]
        k2 = np.arange(h)[:, None]
        lam = gamma + 2.0 * alpha * (
            (1.0 - np.cos(2.0 * np.pi * k1 / w)) + (1.0 - np.cos(2.0 * np.pi * k2 / h))
        )
        self.multipliers = lam**self.power
        # half-spectrum views matching numpy's rfft2 layout
        self._mult_half = self.multipliers[:, : w // 2 + 1]
        self._inv_half = 1.0 / self._mult_half

    def multiply(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Apply the multiplier (or its reciprocal) to an (..., H, W) array."""
        h, w = self.grid.shape
        mult = self._inv_half if inverse else self._mult_half
        return np.fft.irfft2(np.fft.rfft2(a) * mult, s=(h, w))

    def _check(self, v: VectorField):
        if v.grid != self.grid:
            raise GridMismatchError("vector field grid does not match operator grid")


def apply_L(op: MetricOperator, v: VectorField) -> VectorField:
    """Momentum m = L v (per-component spectral multiplication)."""
    op._check(v)
    return VectorField(v.grid, op.multiply(v.x_component), op.multiply(v.y_component))


def apply_K(op: MetricOperator, m: VectorField) -> VectorField:
    """Velocity v = K m, the exact inverse of apply_L."""
    op._check(m)
    return VectorField(
        m.grid, op.multiply(m.x_component, inverse=True), op.multiply(m.y_component, inverse=True)
    )


def metric_norm(op: MetricOperator, v: VectorField) -> float:
    """<Lv, v> summed over pixels and components; the geodesic energy of v."""
    op._check(v)
    lv = apply_L(op, v)
    return float(
        np.sum(lv.x_component * v.x_component) + np.sum(lv.y_component * v.y_component)
    )


@dataclass
class SmoothingKernel:
    """Normalized 1-D Gaussian cut at radius (default ceil(3*std)) for separable 2-D smoothing."""

    std: float = 1.0
    radius: int | None = None
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("kernel std must be positive")
        min_radius = int(np.ceil(3.0 * self.std))
        if self.radius is None:
            self.radius = min_radius
        if self.radius < min_radius:
            raise ValueError(f"kernel radius {self.radius} < 3*std rounded up ({min_radius})")
        x = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        w = np.exp(-0.5 * (x / self.std) ** 2)
        self.weights = w / w.sum()


def _convolve_axis(a: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Clamped-boundary 1-D convolution along one axis of an nd array."""
    r = (len(weights) - 1) // 2
    pad = [(0, 0)] * a.ndim
    pad[axis] = (r, r)
    padded = np.pad(a, pad, mode="edge")
    n = a.shape[axis]
    out = np.zeros_like(a)
    sl = [slice(None)] * a.ndim
    for k, wk in enumerate(weights):
        sl[axis] = slice(k, k + n)
        out += wk * padded[tuple(sl)]
    return out


def smooth_noise(kernel: SmoothingKernel, eps: np.ndarray) -> np.ndarray:
    """Separable Gaussian smoothing along the two trailing spatial axes."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim < 2:
        raise ValueError(f"expected at least 2 spatial dimensions, got shape {eps.shape}")
    out = _convolve_axis(eps, kernel.weights, axis=eps.ndim - 1)
    return _convolve_axis(out, kernel.weights, axis=eps.ndim - 2)
