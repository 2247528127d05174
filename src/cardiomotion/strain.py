"""Myocardial strain and displacement-error analytics.

Strain uses the finite (Green-Lagrange) tensor E = (F^T F - I)/2 with
F = I + Du, which stays exact for the 10-20% contractions the phantom
produces (the linearized tensor errs at second order there).  Ecc/Err
are projections of E onto the local circumferential/radial unit vectors
about the LV center.  Errors: end-point error as a masked mean Euclidean
distance in millimetres, and per-segment absolute strain differences
over the standard six-segment partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import atomic_write
from .grid import Grid2, VectorField, coordinate_arrays, jacobian


@dataclass(frozen=True)
class Mask:
    grid: Grid2
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=bool)
        object.__setattr__(self, "labels", lab)
        if lab.shape != self.grid.shape:
            raise ValueError(f"mask shape {lab.shape} does not match grid {self.grid.shape}")
        if not lab.any():
            raise ValueError("mask is empty")

    def centroid(self) -> tuple[float, float]:
        """(cx, cy) mean pixel coordinate; the LV center convention."""
        ys, xs = np.nonzero(self.labels)
        return float(xs.mean()), float(ys.mean())


@dataclass(frozen=True)
class StrainMap:
    """Ecc and Err maps, (H, W) each; ``valid`` marks the pixels with a defined direction."""

    ecc: np.ndarray
    err: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        bad = ~np.isfinite(self.ecc[self.valid]) | ~np.isfinite(self.err[self.valid])
        if bad.any():
            raise ValueError("strain values must be finite on valid pixels")


def deformation_gradient(u: VectorField) -> np.ndarray:
    """F = I + Du, shape (H, W, 2, 2); u in pixel units (spacing cancels)."""
    f = jacobian(u)
    f[..., 0, 0] += 1.0
    f[..., 1, 1] += 1.0
    return f


def green_lagrange(f: np.ndarray) -> np.ndarray:
    """E = (F^T F - I) / 2 per pixel."""
    e = 0.5 * np.einsum("...ki,...kj->...ij", f, f)
    e[..., 0, 0] -= 0.5
    e[..., 1, 1] -= 0.5
    return e


def circumferential_strain(grid: Grid2, e: np.ndarray, center: tuple[float, float]) -> StrainMap:
    """Project a strain tensor field onto circle tangents/radials about center.

    Pixels within 1 px of the center have no defined direction and are
    marked invalid.
    """
    cx, cy = center
    if not (0 <= cx <= grid.width - 1 and 0 <= cy <= grid.height - 1):
        raise ValueError(f"center ({cx}, {cy}) outside grid {grid.shape}")
    xs, ys = coordinate_arrays(grid)
    dx = xs - cx
    dy = ys - cy
    r = np.hypot(dx, dy)
    valid = r >= 1.0
    safe_r = np.where(valid, r, 1.0)
    rx, ry = dx / safe_r, dy / safe_r
    # tangent: radial rotated a quarter turn
    tx, ty = -ry, rx
    exx, exy, eyy = e[..., 0, 0], e[..., 0, 1], e[..., 1, 1]
    ecc = tx * tx * exx + 2.0 * tx * ty * exy + ty * ty * eyy
    err = rx * rx * exx + 2.0 * rx * ry * exy + ry * ry * eyy
    ecc = np.where(valid, ecc, 0.0)
    err = np.where(valid, err, 0.0)
    return StrainMap(ecc, err, valid)


def strain_from_displacement(u: VectorField, center: tuple[float, float]) -> StrainMap:
    """Convenience chain: displacement -> F -> E -> Ecc/Err projections."""
    return circumferential_strain(u.grid, green_lagrange(deformation_gradient(u)), center)


def segment_mask(mask: Mask, center: tuple[float, float], insertion_angle: float) -> np.ndarray:
    """Six half-open 60-degree bins counterclockwise from the insertion angle.

    Returns (H, W) int64 labels: 0 outside the mask, 1..6 inside.  Angles
    are mathematical counterclockwise after flipping the image y axis.  A
    pixel exactly on a bin boundary belongs to the upper segment.
    """
    cx, cy = center
    ys, xs = np.nonzero(mask.labels)
    theta = np.arctan2(cy - ys, xs - cx)
    rel = np.mod(theta - insertion_angle, 2.0 * np.pi)
    seg = 1 + np.floor(6.0 * rel / (2.0 * np.pi)).astype(np.int64)
    seg = np.minimum(seg, 6)
    labels = np.zeros(mask.grid.shape, dtype=np.int64)
    labels[ys, xs] = seg
    return labels


def segmental_strain(s: StrainMap, seg: np.ndarray) -> np.ndarray:
    """Mean Ecc over the valid pixels of each segment of ``seg``; NaN marks an empty one."""
    out = np.full(6, np.nan)
    for k in range(1, 7):
        sel = (seg == k) & s.valid
        if sel.any():
            out[k - 1] = s.ecc[sel].mean()
    return out


def epe(pred: VectorField, truth: VectorField, mask: Mask) -> float:
    """Masked mean end-point error in millimetres."""
    if pred.grid != truth.grid or pred.grid != mask.grid:
        raise ValueError("end-point error requires matching grids")
    dist = np.hypot(*(pred.values - truth.values))[mask.labels]
    return float(dist.mean() * pred.grid.spacing)


def segmental_strain_error(pred: StrainMap, truth: StrainMap, seg: np.ndarray) -> np.ndarray:
    """|mean_pred - mean_truth| per segment; NaN propagates from empty segments."""
    return np.abs(segmental_strain(pred, seg) - segmental_strain(truth, seg))


def check_window(window: tuple[float, float]) -> tuple[float, float]:
    """The (lo, hi) bounds of a PGM value window; ValueError unless finite with hi > lo."""
    lo, hi = window
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError(f"invalid window [{lo}, {hi}]")
    return lo, hi


def write_pgm(path, values: np.ndarray, window: tuple[float, float] = (-0.25, 0.25)) -> None:
    """8-bit binary PGM of a scalar map over the value window (lo, hi).

    Any finite lo < hi is a window; the default is symmetric about 0.
    Values are clipped to the window and mapped linearly to 0..255
    (window midpoint -> 128).  Non-finite entries render as 0.  The file
    is written atomically.
    """
    lo, hi = check_window(window)
    v = np.asarray(values, dtype=np.float64)
    scaled = (np.clip(v, lo, hi) - lo) / (hi - lo) * 255.0
    scaled = np.where(np.isfinite(scaled), scaled, 0.0)
    data = np.rint(scaled).astype(np.uint8)
    h, w = data.shape
    atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())
