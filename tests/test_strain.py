"""Strain analysis: deformation gradients, circumferential strain, segments."""

import numpy as np
import pytest

from cardiomotion.grid import Grid2, VectorField
from cardiomotion.strain import (Mask, circumferential_strain, deformation_gradient, epe,
                                 green_lagrange, segment_mask, segmental_strain,
                                 segmental_strain_error, strain_from_displacement, write_pgm)

_G32 = Grid2(32, 32)
_CENTER = (15.5, 15.5)


def _scaling_displacement(grid, scale, center=_CENTER):
    # u(p) = (scale - 1) (p - c): uniform contraction/expansion about c
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width].astype(np.float64)
    return VectorField(grid, (scale - 1.0) * (xs - center[0]), (scale - 1.0) * (ys - center[1]))


def _ring_mask(grid, r0, r1, center=_CENTER):
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width].astype(np.float64)
    r = np.hypot(xs - center[0], ys - center[1])
    return Mask(grid, (r >= r0) & (r <= r1))


def test_deformation_gradient_of_linear_map():
    # u = A (p - c) gives F = I + A everywhere, exactly, in the interior
    grid = Grid2(16, 16)
    a = np.array([[0.02, -0.05], [0.03, 0.01]])
    ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
    u = VectorField(grid, a[0, 0] * xs + a[0, 1] * ys, a[1, 0] * xs + a[1, 1] * ys)
    f = deformation_gradient(u)
    assert f.shape == (16, 16, 2, 2)
    expect = np.eye(2) + a
    inner = f[2:-2, 2:-2]
    assert np.allclose(inner, expect, atol=1e-12)


def test_green_lagrange_of_rigid_rotation_is_zero():
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    f = np.broadcast_to(rot, (8, 8, 2, 2))
    e = green_lagrange(f)
    assert np.max(np.abs(e)) < 1e-14


def test_green_lagrange_of_uniform_scaling():
    s = 0.9
    f = np.broadcast_to(s * np.eye(2), (4, 4, 2, 2))
    e = green_lagrange(f)
    assert np.allclose(e, (s**2 - 1.0) / 2.0 * np.eye(2), atol=1e-14)


def test_uniform_contraction_strain_everywhere():
    s = 0.9
    u = _scaling_displacement(_G32, s)
    sm = strain_from_displacement(u, _CENTER)
    exact = (s**2 - 1.0) / 2.0
    inner = sm.valid.copy()
    inner[:3] = inner[-3:] = inner[:, :3] = inner[:, -3:] = False
    assert np.max(np.abs(sm.ecc[inner] - exact)) < 1e-12
    assert np.max(np.abs(sm.err[inner] - exact)) < 1e-12
    # ecc + err equals the tensor trace (rotational invariant)
    assert np.max(np.abs(sm.ecc[inner] + sm.err[inner] - 2 * exact)) < 1e-12


def test_rigid_rotation_displacement_has_zero_strain():
    th = 0.25
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    dx, dy = xs - _CENTER[0], ys - _CENTER[1]
    u = VectorField(_G32, np.cos(th) * dx - np.sin(th) * dy - dx,
                    np.sin(th) * dx + np.cos(th) * dy - dy)
    sm = strain_from_displacement(u, _CENTER)
    inner = sm.valid.copy()
    inner[:3] = inner[-3:] = inner[:, :3] = inner[:, -3:] = False
    assert np.max(np.abs(sm.ecc[inner])) < 1e-10
    assert np.max(np.abs(sm.err[inner])) < 1e-10


def test_strain_invalid_near_center_and_center_checked():
    u = _scaling_displacement(_G32, 0.95)
    sm = strain_from_displacement(u, _CENTER)
    assert not sm.valid[15, 15]  # radius < 1 px has no tangent direction
    assert sm.valid[15, 25]
    with pytest.raises(ValueError):
        strain_from_displacement(u, (200.0, 15.0))


def test_circumferential_direction_selectivity():
    # shear that stretches along circles but not radially at the probe point
    center = (16.0, 15.0)  # integer center puts lattice points on the axes
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    u = VectorField(_G32, 0.1 * (ys - center[1]), np.zeros((32, 32)))
    sm = strain_from_displacement(u, center)
    # at (x0+r, y0): tangent is vertical, radial is horizontal
    ecc_probe = sm.ecc[15, 25]
    err_probe = sm.err[15, 25]
    # F = I + [[0, 0.1], [0, 0]]: E = [[0, .05], [.05, .01/2]]
    assert ecc_probe == pytest.approx(0.005, abs=1e-12)  # tangent (0, 1) picks E_yy
    assert err_probe == pytest.approx(0.0, abs=1e-12)


def test_segment_mask_partitions_ring():
    mask = _ring_mask(_G32, 6.0, 12.0)
    labels = segment_mask(mask, _CENTER, insertion_angle=0.0)
    assert labels.shape == (32, 32)
    assert set(np.unique(labels[mask.labels])) == {1, 2, 3, 4, 5, 6}
    assert np.all(labels[~mask.labels] == 0)
    # each sixth of an annulus holds roughly one sixth of its pixels
    counts = np.bincount(labels[mask.labels], minlength=7)[1:]
    assert counts.min() > 0.7 * counts.mean()


def test_segment_mask_rotates_with_insertion_angle():
    mask = _ring_mask(_G32, 6.0, 12.0)
    a = segment_mask(mask, _CENTER, insertion_angle=0.0)
    b = segment_mask(mask, _CENTER, insertion_angle=np.pi / 3)
    moved = (a != b) & mask.labels
    assert moved.any()
    # rotating the insertion by one sector shifts every label by one
    expect = np.where(mask.labels, (a - 2) % 6 + 1, 0)
    assert np.array_equal(b, expect)


def test_segmental_strain_and_missing_segments():
    u = _scaling_displacement(_G32, 0.9)
    sm = strain_from_displacement(u, _CENTER)
    mask = _ring_mask(_G32, 6.0, 12.0)
    seg = segment_mask(mask, _CENTER, insertion_angle=1.0)
    vals = segmental_strain(sm, seg)
    exact = (0.9**2 - 1.0) / 2.0
    assert vals.shape == (6,)
    assert np.allclose(vals, exact, atol=1e-12)
    # wiping one sector marks it missing (NaN), not zero
    wiped = Mask(_G32, mask.labels & (seg != 4))
    seg2 = segment_mask(wiped, _CENTER, insertion_angle=1.0)
    vals2 = segmental_strain(sm, seg2)
    assert np.isnan(vals2[3])
    assert np.allclose(np.delete(vals2, 3), exact, atol=1e-12)


def test_segmental_strain_error():
    u = _scaling_displacement(_G32, 0.9)
    sm = strain_from_displacement(u, _CENTER)
    mask = _ring_mask(_G32, 6.0, 12.0)
    seg = segment_mask(mask, _CENTER, insertion_angle=0.0)
    shifted = strain_from_displacement(_scaling_displacement(_G32, 0.8), _CENTER)
    err = segmental_strain_error(sm, shifted, seg)
    expect = abs((0.9**2 - 0.8**2) / 2.0)
    assert np.allclose(err, expect, atol=1e-12)
    assert np.allclose(segmental_strain_error(sm, sm, seg), 0.0, atol=1e-15)


def test_epe_is_mean_masked_distance_in_physical_units():
    grid = Grid2(8, 8, spacing=2.0)
    pred = VectorField(grid, np.full((8, 8), 3.0), np.full((8, 8), 4.0))
    truth = VectorField(grid, np.zeros((8, 8)), np.zeros((8, 8)))
    labels = np.zeros((8, 8), dtype=bool)
    labels[2:5, 2:5] = True
    assert epe(pred, truth, Mask(grid, labels)) == pytest.approx(5.0 * 2.0)
    with pytest.raises(ValueError, match="end-point error requires matching grids"):
        epe(pred, VectorField(Grid2(10, 10), np.zeros((10, 10)), np.zeros((10, 10))),
            Mask(grid, labels))


def test_write_pgm_output_parses(tmp_path):
    values = np.linspace(-0.3, 0.3, 64).reshape(8, 8)
    values[0, 0] = np.nan
    path = tmp_path / "strain.pgm"
    write_pgm(path, values, window=(-0.25, 0.25))
    blob = path.read_bytes()
    assert blob.startswith(b"P5")
    header, rest = blob.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    maxval, payload = rest.split(b"\n", 1)
    assert dims == b"8 8" and maxval == b"255"
    assert len(payload) == 64
    img = np.frombuffer(payload, dtype=np.uint8).reshape(8, 8)
    assert img[0, 0] == 0  # NaN renders black
    assert img[-1, -1] == 255  # above-window values clip to white
    # rewriting produces identical bytes
    write_pgm(tmp_path / "again.pgm", values, window=(-0.25, 0.25))
    assert (tmp_path / "again.pgm").read_bytes() == blob
