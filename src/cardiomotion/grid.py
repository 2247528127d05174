"""Regular-grid scalar and vector fields with sampling and differential operators.

Conventions used throughout the package:

* arrays are indexed ``[row, col]`` = ``[y, x]``; shapes are ``(height, width)``
* vector quantities keep separate ``x_component`` (along columns) and
  ``y_component`` (along rows) arrays, in pixel units
* deformation maps store absolute target coordinates, so the identity map
  at pixel ``(i, j)`` is ``(x=j, y=i)``
* sampling outside the domain clamps to the nearest edge pixel
* derivatives are central differences in the interior and one-sided on the
  boundary, in pixel units; physical spacing enters only in strain/EPE
  reporting
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class Grid2:
    """A regular 2-D pixel grid with isotropic physical spacing in mm/px."""

    height: int
    width: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.height < 4 or self.width < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.height}x{self.width}")
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)


def _as_field_array(values, grid: Grid2, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != grid.shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass
class ScalarField:
    """A single-channel image or scalar quantity on a grid."""

    grid: Grid2
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_field_array(self.values, self.grid, "scalar field")


@dataclass
class VectorField:
    """A 2-vector per pixel: displacements (px) or velocities (px per unit time)."""

    grid: Grid2
    x_component: np.ndarray
    y_component: np.ndarray

    def __post_init__(self):
        self.x_component = _as_field_array(self.x_component, self.grid, "x component")
        self.y_component = _as_field_array(self.y_component, self.grid, "y component")


@dataclass
class MapField:
    """A deformation map: absolute target coordinates per pixel."""

    grid: Grid2
    coordinates: VectorField

    def __post_init__(self):
        if self.coordinates.grid != self.grid:
            raise GridMismatchError("map coordinates live on a different grid")

    @property
    def x(self) -> np.ndarray:
        return self.coordinates.x_component

    @property
    def y(self) -> np.ndarray:
        return self.coordinates.y_component


@dataclass
class FieldSequence:
    """An ordered list of frames sharing one grid.

    Image sequences have T+1 frames with frame 0 the reference; motion
    sequences have T frames (frame-0-to-frame-tau displacements).
    """

    frames: list

    def __post_init__(self):
        if not self.frames:
            raise ValueError("field sequence must contain at least one frame")
        g = self.frames[0].grid
        for k, f in enumerate(self.frames):
            if f.grid != g:
                raise GridMismatchError(f"frame {k} is on a different grid")

    @property
    def grid(self) -> Grid2:
        return self.frames[0].grid

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, k):
        return self.frames[k]


def coordinate_arrays(grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinate arrays (x, y), each of shape (height, width)."""
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width]
    return xs.astype(np.float64), ys.astype(np.float64)


def identity_map(grid: Grid2) -> MapField:
    xs, ys = coordinate_arrays(grid)
    return MapField(grid, VectorField(grid, xs, ys))


# ---------------------------------------------------------------------------
# bilinear sampling kernel (shared with the autodiff ops in nn.fieldops)
# ---------------------------------------------------------------------------


def bilinear_prepare(shape: tuple[int, ...], mx: np.ndarray, my: np.ndarray):
    """Clamp sample coordinates and precompute flat corner indices and weights.

    ``shape`` is the sampled array's shape ``(..., H, W)``.  With no
    leading axes the coordinates may have any shape; otherwise each of
    their leading axes matches the field's or is 1, and each slice of the
    field is read at its own (or the broadcast) coordinates.
    Returns (idx, tx, ty, inx, iny): ``idx`` indexes the top-left corner
    in the flattened field and has the broadcast shape; tx, ty, inx and
    iny keep the coordinates' shape, and inx/iny flag coordinates that
    were strictly inside the domain (their clamp derivative is 1, else 0).
    """
    *lead, h, w = shape
    cx = np.clip(mx, 0.0, w - 1.0)
    cy = np.clip(my, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(cx), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(cy), h - 2).astype(np.intp)
    tx = cx - x0
    ty = cy - y0
    idx = y0 * w + x0
    if lead:
        if idx.ndim < len(lead) or any(
                n not in (1, k) for n, k in zip(idx.shape[: len(lead)], lead)):
            raise ValueError(f"coordinates of shape {idx.shape} do not match field shape {shape}")
        offsets = np.arange(0, int(np.prod(lead)) * h * w, h * w)
        idx = idx + offsets.reshape(tuple(lead) + (1,) * (idx.ndim - len(lead)))
    inx = (mx > 0.0) & (mx < w - 1.0)
    iny = (my > 0.0) & (my < h - 1.0)
    return idx, tx, ty, inx, iny


def _corners(values: np.ndarray, idx):
    # the other three corners are read through shifted views of the flat field
    flat = values.reshape(-1)
    w = values.shape[-1]
    return flat.take(idx), flat[1:].take(idx), flat[w:].take(idx), flat[w + 1:].take(idx)


def bilinear_apply(values: np.ndarray, idx, tx, ty) -> np.ndarray:
    v00, v01, v10, v11 = _corners(values, idx)
    return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)


def bilinear_sample(values: np.ndarray, mx: np.ndarray, my: np.ndarray) -> np.ndarray:
    """Sample ``values`` at coordinates (mx, my) with clamped bilinear interpolation."""
    idx, tx, ty, _, _ = bilinear_prepare(values.shape, mx, my)
    return bilinear_apply(values, idx, tx, ty)


def bilinear_adjoint_field(shape, idx, tx, ty, g: np.ndarray) -> np.ndarray:
    """Adjoint of bilinear sampling with respect to the sampled field."""
    n = int(np.prod(shape))
    w = shape[-1]
    idx = idx.reshape(-1)
    top = g * (1 - ty)
    bottom = g * ty
    # every corner scatters at the top-left index into an output shifted by
    # the corner's offset; idx <= n - w - 2, so each count has its minlength
    out = np.bincount(idx, (top * (1 - tx)).reshape(-1), n)
    out[1:] += np.bincount(idx, (top * tx).reshape(-1), n - 1)
    out[w:] += np.bincount(idx, (bottom * (1 - tx)).reshape(-1), n - w)
    out[w + 1:] += np.bincount(idx, (bottom * tx).reshape(-1), n - w - 1)
    return out.reshape(shape)


def bilinear_coord_derivatives(values: np.ndarray, idx, tx, ty, inx, iny):
    """Partials of the sampled value with respect to the sample coordinates.

    Zero where the coordinate was clamped (the clamp is locally constant).
    """
    v00, v01, v10, v11 = _corners(values, idx)
    dx = ((1 - ty) * (v01 - v00) + ty * (v11 - v10)) * inx
    dy = ((1 - tx) * (v10 - v00) + tx * (v11 - v01)) * iny
    return dx, dy


# ---------------------------------------------------------------------------
# finite differences (pixel units) on the two trailing axes, with adjoints
# for reverse-mode gradients
# ---------------------------------------------------------------------------


def ddx(a: np.ndarray) -> np.ndarray:
    """d/dx (along columns): central interior, one-sided at the edges."""
    out = np.empty_like(a)
    out[..., 1:-1] = 0.5 * (a[..., 2:] - a[..., :-2])
    out[..., 0] = a[..., 1] - a[..., 0]
    out[..., -1] = a[..., -1] - a[..., -2]
    return out


def ddy(a: np.ndarray) -> np.ndarray:
    """d/dy (along rows): central interior, one-sided at the edges."""
    out = np.empty_like(a)
    out[..., 1:-1, :] = 0.5 * (a[..., 2:, :] - a[..., :-2, :])
    out[..., 0, :] = a[..., 1, :] - a[..., 0, :]
    out[..., -1, :] = a[..., -1, :] - a[..., -2, :]
    return out


# The adjoints scatter each difference back onto the two samples it read:
# out_i = h_{i-1} - h_{i+1}, where h is g with its interior entries halved
# (central differences) and its two edge entries whole (one-sided ones).
# Past an edge nothing is read, so out_0 = -(h_0 + h_1) and
# out_{n-1} = h_{n-2} + h_{n-1}.


def ddx_adjoint(g: np.ndarray) -> np.ndarray:
    h = 0.5 * g
    h[..., 0] = g[..., 0]
    h[..., -1] = g[..., -1]
    out = np.empty_like(h)
    np.subtract(h[..., :-2], h[..., 2:], out=out[..., 1:-1])
    out[..., 0] = -(h[..., 0] + h[..., 1])
    out[..., -1] = h[..., -2] + h[..., -1]
    return out


def ddy_adjoint(g: np.ndarray) -> np.ndarray:
    h = 0.5 * g
    h[..., 0, :] = g[..., 0, :]
    h[..., -1, :] = g[..., -1, :]
    out = np.empty_like(h)
    np.subtract(h[..., :-2, :], h[..., 2:, :], out=out[..., 1:-1, :])
    out[..., 0, :] = -(h[..., 0, :] + h[..., 1, :])
    out[..., -1, :] = h[..., -2, :] + h[..., -1, :]
    return out


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------


def _check_same_grid(a_grid: Grid2, b_grid: Grid2):
    if a_grid != b_grid:
        raise GridMismatchError(f"grids differ: {a_grid.shape} vs {b_grid.shape}")


def interpolate(field: ScalarField, mapping: MapField) -> ScalarField:
    """Sample ``field`` at the map's target coordinates (clamped bilinear)."""
    _check_same_grid(field.grid, mapping.grid)
    return ScalarField(field.grid, bilinear_sample(field.values, mapping.x, mapping.y))


def warp_vector(field: VectorField, mapping: MapField) -> VectorField:
    """Per-component bilinear sampling of a vector field at map coordinates."""
    _check_same_grid(field.grid, mapping.grid)
    idx, tx, ty, _, _ = bilinear_prepare(field.grid.shape, mapping.x, mapping.y)
    return VectorField(
        field.grid,
        bilinear_apply(field.x_component, idx, tx, ty),
        bilinear_apply(field.y_component, idx, tx, ty),
    )


def jacobian(v: VectorField) -> np.ndarray:
    """Per-pixel Jacobian, shape (H, W, 2, 2); entry [r, c] is dv_r/dx_c.

    Component order is (x, y), so [0, 0] = dvx/dx, [0, 1] = dvx/dy etc.
    """
    h, w = v.grid.shape
    out = np.empty((h, w, 2, 2))
    out[:, :, 0, 0] = ddx(v.x_component)
    out[:, :, 0, 1] = ddy(v.x_component)
    out[:, :, 1, 0] = ddx(v.y_component)
    out[:, :, 1, 1] = ddy(v.y_component)
    return out


def compose(outer: MapField, inner: MapField) -> MapField:
    """Map composition: result(x) = outer evaluated bilinearly at inner(x)."""
    _check_same_grid(outer.grid, inner.grid)
    warped = warp_vector(outer.coordinates, inner)
    return MapField(outer.grid, warped)


def map_to_displacement(phi: MapField) -> VectorField:
    """u(x) = phi(x) - x."""
    xs, ys = coordinate_arrays(phi.grid)
    return VectorField(phi.grid, phi.x - xs, phi.y - ys)


def jacobian_determinant(phi: MapField) -> ScalarField:
    """det(D phi) per pixel; positive everywhere for a diffeomorphism."""
    jxx = ddx(phi.x)
    jxy = ddy(phi.x)
    jyx = ddx(phi.y)
    jyy = ddy(phi.y)
    return ScalarField(phi.grid, jxx * jyy - jxy * jyx)
