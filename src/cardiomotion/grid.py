"""Regular-grid scalar and vector fields with sampling and differential operators.

Conventions used throughout the package:

* arrays are indexed ``[row, col]`` = ``[y, x]``; shapes are ``(height, width)``
* a vector field is one ``(2, H, W)`` array in pixel units, the x
  component (along columns) first and the y component (along rows)
  second; a sequence of T fields is one ``(T, 2, H, W)`` array, as a
  sample stores it, and a sequence of images one ``(T+1, H, W)`` array
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


MAX_SIDE = 1024  # the metric operator holds dense (H, H) and (W, W) bases


@dataclass(frozen=True)
class Grid2:
    """A regular 2-D pixel grid with isotropic physical spacing in mm/px."""

    height: int = 64
    width: int = 64
    spacing: float = 1.0

    def __post_init__(self):
        if not (4 <= self.height <= MAX_SIDE and 4 <= self.width <= MAX_SIDE):
            raise ValueError(f"grid must be from 4x4 to {MAX_SIDE}x{MAX_SIDE}, "
                             f"got {self.height}x{self.width}")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"grid spacing must be positive and finite, got {self.spacing}")

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


class VectorField:
    """A 2-vector per pixel: displacements (px) or velocities (px per unit time).

    ``values`` is one (2, H, W) array; the components are views of it.
    """

    def __init__(self, grid: Grid2, x, y):
        self.grid = grid
        self.values = np.stack([_as_field_array(x, grid, "x component"),
                                _as_field_array(y, grid, "y component")])

    @property
    def x_component(self) -> np.ndarray:
        return self.values[0]

    @property
    def y_component(self) -> np.ndarray:
        return self.values[1]


class MapField(VectorField):
    """A deformation map: absolute target coordinates per pixel."""

    x = VectorField.x_component
    y = VectorField.y_component


class FieldSequence:
    """An ordered run of frames on one grid, held as the one array a sample stores.

    Image sequences are (T+1, H, W) with frame 0 the reference; motion
    sequences are (T, 2, H, W) frame-0-to-frame-tau displacements.
    ``values`` is that array; indexing builds the ScalarField or VectorField
    of one frame.
    """

    def __init__(self, grid: Grid2, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape[1:] not in (grid.shape, (2,) + grid.shape) or not len(arr):
            raise ValueError(f"field sequence has shape {arr.shape}, expected (T, H, W) or "
                             f"(T, 2, H, W) with T >= 1 and (H, W) = {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field sequence contains non-finite values")
        self.grid = grid
        self.values = arr

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int):
        if self.values.ndim == 3:
            return ScalarField(self.grid, self.values[k])
        return VectorField(self.grid, *self.values[k])

    @property
    def frames(self) -> list:
        return [self[k] for k in range(len(self))]


def coordinate_arrays(grid: Grid2) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinate arrays (x, y), each of shape (height, width)."""
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width]
    return xs.astype(np.float64), ys.astype(np.float64)


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
    # the fractions come from the floored float coordinates, so they keep their dtype
    fx = np.minimum(np.floor(cx), w - 2)
    fy = np.minimum(np.floor(cy), h - 2)
    tx = cx - fx
    ty = cy - fy
    idx = fy.astype(np.intp) * w + fx.astype(np.intp)
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
    sx = 1 - tx
    top = sx * v00
    top += tx * v01
    bottom = sx * v10
    bottom += tx * v11
    top *= 1 - ty
    bottom *= ty
    top += bottom
    return top


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
    # bincount sums in float64
    return out.reshape(shape).astype(g.dtype, copy=False)


def bilinear_coord_derivatives(values: np.ndarray, idx, tx, ty, inx, iny):
    """Partials of the sampled value with respect to the sample coordinates.

    Zero where the coordinate was clamped (the clamp is locally constant).
    """
    v00, v01, v10, v11 = _corners(values, idx)
    dx = (1 - ty) * (v01 - v00)
    dx += ty * (v11 - v10)
    dx *= inx
    dy = (1 - tx) * (v10 - v00)
    dy += tx * (v11 - v01)
    dy *= iny
    return dx, dy


# ---------------------------------------------------------------------------
# finite differences (pixel units) on the two trailing axes, with adjoints
# for reverse-mode gradients
# ---------------------------------------------------------------------------


# Each kernel reads a C-contiguous copy of its input (a view when it already
# is one) and writes a new C-contiguous array of the input's shape: float32
# for a float32 input, float64 for any other.
# The x kernels run their interior formula over the flat array, across row
# ends, and then overwrite the first and last column of every row; the y
# kernels run row blocks.


def _buffers(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.ascontiguousarray(a)
    return a, np.empty(a.shape, np.float32 if a.dtype == np.float32 else np.float64)


def ddx(a: np.ndarray) -> np.ndarray:
    """d/dx (along columns): central interior, one-sided at the edges."""
    a, out = _buffers(a)
    flat = out.reshape(-1)
    np.subtract(a.reshape(-1)[2:], a.reshape(-1)[:-2], out=flat[1:-1])
    flat[1:-1] *= 0.5
    np.subtract(a[..., 1], a[..., 0], out=out[..., 0])
    np.subtract(a[..., -1], a[..., -2], out=out[..., -1])
    return out


def ddy(a: np.ndarray) -> np.ndarray:
    """d/dy (along rows): central interior, one-sided at the edges."""
    a, out = _buffers(a)
    inner = out[..., 1:-1, :]
    np.subtract(a[..., 2:, :], a[..., :-2, :], out=inner)
    inner *= 0.5
    np.subtract(a[..., 1, :], a[..., 0, :], out=out[..., 0, :])
    np.subtract(a[..., -1, :], a[..., -2, :], out=out[..., -1, :])
    return out


# The adjoints scatter each difference back onto the two samples it read:
# out_i = h_{i-1} - h_{i+1}, where h is g with its interior entries halved
# (central differences) and its two edge entries whole (one-sided ones).
# Past an edge nothing is read, so out_0 = -(h_0 + h_1) and
# out_{n-1} = h_{n-2} + h_{n-1}.


def ddx_adjoint(g: np.ndarray) -> np.ndarray:
    g, out = _buffers(g)
    h = g * 0.5
    h[..., 0] = g[..., 0]
    h[..., -1] = g[..., -1]
    flat = h.reshape(-1)
    np.subtract(flat[:-2], flat[2:], out=out.reshape(-1)[1:-1])
    np.negative(h[..., 0] + h[..., 1], out=out[..., 0])
    np.add(h[..., -2], h[..., -1], out=out[..., -1])
    return out


def ddy_adjoint(g: np.ndarray) -> np.ndarray:
    g, out = _buffers(g)
    h = g * 0.5
    h[..., 0, :] = g[..., 0, :]
    h[..., -1, :] = g[..., -1, :]
    np.subtract(h[..., :-2, :], h[..., 2:, :], out=out[..., 1:-1, :])
    np.negative(h[..., 0, :] + h[..., 1, :], out=out[..., 0, :])
    np.add(h[..., -2, :], h[..., -1, :], out=out[..., -1, :])
    return out


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------


def warp_vector(field: VectorField, mapping: MapField) -> VectorField:
    """Per-component bilinear sampling of a vector field at map coordinates."""
    if field.grid != mapping.grid:
        raise ValueError(f"grids differ: {field.grid.shape} vs {mapping.grid.shape}")
    sampled = bilinear_sample(field.values, mapping.x[None], mapping.y[None])
    return VectorField(field.grid, *sampled)


def jacobian(v: VectorField) -> np.ndarray:
    """Per-pixel Jacobian, shape (H, W, 2, 2); entry [r, c] is dv_r/dx_c.

    Component order is (x, y), so [0, 0] = dvx/dx, [0, 1] = dvx/dy etc.
    """
    out = np.empty(v.grid.shape + (2, 2))
    out[..., 0] = np.moveaxis(ddx(v.values), 0, -1)
    out[..., 1] = np.moveaxis(ddy(v.values), 0, -1)
    return out


def map_to_displacement(phi: MapField) -> VectorField:
    """u(x) = phi(x) - x."""
    xs, ys = coordinate_arrays(phi.grid)
    return VectorField(phi.grid, phi.x - xs, phi.y - ys)


def jacobian_determinant(phi: MapField) -> ScalarField:
    """det(D phi) per pixel; positive everywhere for a diffeomorphism."""
    j = jacobian(phi)
    return ScalarField(phi.grid, j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0])
