"""Fourier-multiplier metric operator and Gaussian smoothing kernel.

The metric operator realizes L = (-alpha * Laplacian + gamma * Id)^power
with the discrete five-point Laplacian symbol under periodic boundary
conditions, applied per component (exactly invertible, so K = L^-1 is
the same multiplication by the reciprocal symbol).  The symbol depends
on a frequency k only through cos(2 pi k / n), so the cosine and sine
modes of k share one eigenvalue, and the operator is diagonal in the
orthonormal real Fourier basis Q of each axis:

    L a = Q_h^T ((Q_h a Q_w^T) * lam) Q_w,

four small matrix products (GEMMs) per (H, W) field.  The
smoothing kernel is a truncated, normalized 1-D Gaussian applied
separably along the two trailing axes with clamped (edge-replicate)
boundaries, as two GEMMs with the (n, n) matrix of that convolution on
each axis; it smooths diffusion noise and is unrelated to K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid2


def _real_fourier_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real Fourier modes of n samples, as rows, and the frequency of each.

    The constant mode, a cosine and a sine for each k in 1..(n-1)//2, and
    the alternating mode (-1)^j when n is even.
    """
    j = np.arange(n)
    k = np.arange(1, (n - 1) // 2 + 1)
    phase = 2.0 * np.pi * np.outer(k, j) / n
    rows = [np.full((1, n), 1.0 / np.sqrt(n)),
            np.sqrt(2.0 / n) * np.stack([np.cos(phase), np.sin(phase)], axis=1).reshape(-1, n)]
    freqs = [[0], np.repeat(k, 2)]
    if n % 2 == 0:
        rows.append(np.where(j % 2 == 0, 1.0, -1.0)[None, :] / np.sqrt(n))
        freqs.append([n // 2])
    return np.concatenate(rows), np.concatenate(freqs)


class MetricOperator:
    """L and its inverse K as cached real, positive Fourier multipliers, in float64 and float32."""

    def __init__(self, grid: Grid2, alpha: float = 3.0, gamma: float = 1.0, power: int = 3):
        if alpha <= 0 or gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if power < 1:
            raise ValueError("power must be a positive integer")
        self.grid = grid
        self.alpha, self.gamma, self.power = alpha, gamma, power
        h, w = grid.shape
        k1 = np.arange(w)[None, :]
        k2 = np.arange(h)[:, None]
        lam = gamma + 2.0 * alpha * (
            (1.0 - np.cos(2.0 * np.pi * k1 / w)) + (1.0 - np.cos(2.0 * np.pi * k2 / h))
        )
        with np.errstate(over="ignore", divide="ignore"):
            self.multipliers = lam ** int(power)
            # float32 multiplies need the symbol and its reciprocal in float32
            # range, so one range of parameters holds for both dtypes
            lam32 = self.multipliers.astype(np.float32)
            for values, what in ((lam32, "overflows"), (1 / lam32, "underflows")):
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"the metric symbol {what} at alpha={float(alpha)}, "
                                     f"gamma={float(gamma)}, power={int(power)}")
        qh, kh = _real_fourier_basis(h)
        qw, kw = _real_fourier_basis(w)
        # the symbol at the frequencies of each pair of real modes
        lam = self.multipliers[np.ix_(kh, kw)]
        # Q_h, Q_w^T, Q_h^T, Q_w, the symbol and its reciprocal, in float64 and float32
        self._factors64 = (qh, np.ascontiguousarray(qw.T), np.ascontiguousarray(qh.T), qw, lam,
                           1.0 / lam)
        self._factors32 = tuple(f.astype(np.float32) for f in self._factors64)

    def __reduce__(self):
        # by the parameters: the factors are rebuilt rather than shipped to a worker
        return type(self), (self.grid, self.alpha, self.gamma, self.power)

    def multiply(self, a: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Apply the multiplier (or its reciprocal) to an (..., H, W) array.

        A float32 array is multiplied in float32, anything else in float64.
        """
        qh, qw_t, qh_t, qw, lam, inv_lam = (self._factors32 if a.dtype == np.float32
                                            else self._factors64)
        coeffs = np.matmul(qh, np.matmul(a, qw_t))
        coeffs *= inv_lam if inverse else lam
        return np.matmul(qh_t, np.matmul(coeffs, qw))


@dataclass
class SmoothingKernel:
    """Normalized 1-D Gaussian cut at radius (default ceil(3*std)) for separable 2-D smoothing."""

    std: float = 1.0
    radius: int | None = None
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        # 2 ceil(3 std) + 1 taps; the bound, far above any latent grid, keeps memory in check
        if not 0 < self.std <= 1000:
            raise ValueError(f"kernel std must be in (0, 1000], got {self.std}")
        min_radius = int(np.ceil(3.0 * self.std))
        if self.radius is None:
            self.radius = min_radius
        if self.radius < min_radius:
            raise ValueError(f"kernel radius {self.radius} < 3*std rounded up ({min_radius})")
        x = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        w = np.exp(-0.5 * (x / self.std) ** 2)
        self.weights = w / w.sum()


def _clamped_matrix(weights: np.ndarray, n: int) -> np.ndarray:
    """The (n, n) matrix of the clamped-boundary convolution with ``weights`` along one axis.

    Row i holds the weight of each sample in output i; a tap that falls past
    an edge adds its weight to the edge sample.
    """
    r = (len(weights) - 1) // 2
    rows = np.arange(n)[:, None]
    cols = np.clip(rows + np.arange(-r, r + 1), 0, n - 1)
    taps = np.broadcast_to(weights, cols.shape)
    return np.bincount((rows * n + cols).ravel(), taps.ravel(), n * n).reshape(n, n)


def smooth_noise(kernel: SmoothingKernel, eps: np.ndarray) -> np.ndarray:
    """Separable Gaussian smoothing along the two trailing spatial axes: S_h eps S_w^T."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim < 2:
        raise ValueError(f"expected at least 2 spatial dimensions, got shape {eps.shape}")
    h, w = eps.shape[-2:]
    return _clamped_matrix(kernel.weights, h) @ eps @ _clamped_matrix(kernel.weights, w).T
