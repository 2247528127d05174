"""Reference computations the benchmark checks the program against.

Each function is written from the discrete definitions stated in the
docstrings of ``cardiomotion.registration``, ``cardiomotion.geodesic``,
``cardiomotion.metric``, ``cardiomotion.grid`` and ``cardiomotion.strain``,
not from their code, and takes a different route where one exists:

* the metric multiplier is applied with full complex FFTs, and the norm
  ``<Lv, v>`` is summed in the Fourier domain (Parseval) rather than
  over pixels;
* derivatives come from ``np.gradient`` (central in the interior,
  one-sided first differences at the edges, pixel units);
* clamped bilinear sampling gathers from the flattened array.

Only numpy is used, so a fault in a shared kernel of the program cannot
cancel out of a check.
"""

from __future__ import annotations

import numpy as np


def metric_symbol(shape, alpha: float, gamma: float, power: int) -> np.ndarray:
    """Eigenvalues of L = (-alpha * five-point Laplacian + gamma)^power per Fourier mode."""
    h, w = shape
    kx = np.arange(w)[None, :]
    ky = np.arange(h)[:, None]
    lam = gamma + 2.0 * alpha * ((1.0 - np.cos(2.0 * np.pi * kx / w))
                                 + (1.0 - np.cos(2.0 * np.pi * ky / h)))
    return lam ** power


def apply_symbol(a: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Multiply a real periodic field by a Fourier symbol."""
    return np.real(np.fft.ifft2(np.fft.fft2(a) * symbol))


def metric_norm(vx: np.ndarray, vy: np.ndarray, symbol: np.ndarray) -> float:
    """<Lv, v> summed over pixels and components, evaluated by Parseval."""
    n = vx.size
    return float(sum(np.sum(symbol * np.abs(np.fft.fft2(c)) ** 2) for c in (vx, vy)) / n)


def jacobian(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """D[r, c] = d f_r / d x_c, shape (2, 2, H, W); x along columns, y along rows."""
    out = np.empty((2, 2) + fx.shape)
    for r, comp in enumerate((fx, fy)):
        d_dy, d_dx = np.gradient(comp)
        out[r, 0] = d_dx
        out[r, 1] = d_dy
    return out


def sample_bilinear(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Clamped bilinear interpolation of ``values`` at absolute pixel coordinates."""
    h, w = values.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    col = np.minimum(np.floor(x).astype(np.int64), w - 2)
    row = np.minimum(np.floor(y).astype(np.int64), h - 2)
    fx = x - col
    fy = y - row
    flat = values.ravel()
    base = row * w + col
    top = flat[base] + fx * (flat[base + 1] - flat[base])
    bottom = flat[base + w] + fx * (flat[base + w + 1] - flat[base + w])
    return top + fy * (bottom - top)


def epdiff_velocities(vx: np.ndarray, vy: np.ndarray, symbol: np.ndarray,
                      num_steps: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Forward-Euler velocities v_0 .. v_{N-1} of

        dv/dt = -K [ (Dv)^T m + (Dm) v + m div v ],   m = L v,   dt = 1/N.
    """
    dt = 1.0 / num_steps
    inverse = 1.0 / symbol
    v = np.stack([vx, vy])
    out = [(v[0], v[1])]
    for _ in range(num_steps - 1):
        m = np.stack([apply_symbol(v[0], symbol), apply_symbol(v[1], symbol)])
        dv = jacobian(v[0], v[1])
        dm = jacobian(m[0], m[1])
        force = (np.einsum("crhw,chw->rhw", dv, m)      # (Dv)^T m
                 + np.einsum("rchw,chw->rhw", dm, v)    # (Dm) v
                 + m * (dv[0, 0] + dv[1, 1]))           # m div v
        rhs = np.stack([-apply_symbol(force[0], inverse), -apply_symbol(force[1], inverse)])
        v = v + dt * rhs
        out.append((v[0], v[1]))
    return out


def inverse_map(velocities, shape) -> tuple[np.ndarray, np.ndarray]:
    """phi_1^-1 by semi-Lagrangian pullback: phi_{k+1}^-1(x) = phi_k^-1(x - dt v_k(x))."""
    dt = 1.0 / len(velocities)
    ys, xs = np.indices(shape, dtype=np.float64)
    px, py = xs, ys
    for wx, wy in velocities:
        qx = xs - dt * wx
        qy = ys - dt * wy
        px, py = sample_bilinear(px, qx, qy), sample_bilinear(py, qx, qy)
    return px, py


def registration_energy(source: np.ndarray, target: np.ndarray, vx: np.ndarray, vy: np.ndarray,
                        *, num_steps: int, alpha: float, gamma: float, power: int,
                        sigma: float) -> tuple[float, float, float]:
    """(total, dist, reg) of E(v0) = SSD(source o phi_1^-1, target) / (2 sigma^2) + <L v0, v0>."""
    symbol = metric_symbol(source.shape, alpha, gamma, power)
    px, py = inverse_map(epdiff_velocities(vx, vy, symbol, num_steps), source.shape)
    warped = sample_bilinear(source, px, py)
    dist = float(np.sum((warped - target) ** 2))
    reg = metric_norm(vx, vy, symbol)
    return dist / (2.0 * sigma * sigma) + reg, dist, reg


def masked_epe(ux: np.ndarray, uy: np.ndarray, tx: np.ndarray, ty: np.ndarray,
               mask: np.ndarray, spacing: float = 1.0) -> float:
    """Mean Euclidean distance between two displacement fields over a mask, in mm."""
    dist = np.sqrt((ux - tx) ** 2 + (uy - ty) ** 2)
    return float(np.mean(dist[np.asarray(mask, dtype=bool)]) * spacing)


def jacobian_determinant(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """det(D phi) per pixel of a map given by absolute coordinates (px, py)."""
    d = jacobian(px, py)
    return d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
