"""Synthetic contracting-ring phantom: analytic motion, rendering, datasets."""

import numpy as np
import pytest

from cardiomotion.grid import Grid2, bilinear_sample
from cardiomotion.phantom import (DatasetRanges, PhantomConfig, generate, load_sample,
                                  make_dataset, motion_model, render_frame, save_sample,
                                  split_sizes, time_profile)


def _cfg(**kw):
    base = dict(grid=Grid2(32, 32), r_inner=6.0, r_outer=12.0, contraction_amp=0.1,
                twist_amp=0.2, seed=3)
    base.update(kw)
    return PhantomConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(r_inner=1.0)  # below minimum radius
    with pytest.raises(ValueError):
        _cfg(r_inner=12.0, r_outer=12.0)  # not strictly nested
    with pytest.raises(ValueError):
        _cfg(r_outer=15.0)  # touches the boundary margin on a 32-grid
    with pytest.raises(ValueError):
        _cfg(contraction_amp=0.4)
    with pytest.raises(ValueError):
        _cfg(twist_amp=0.6)
    with pytest.raises(ValueError):
        _cfg(num_frames=0)
    with pytest.raises(ValueError):
        _cfg(center_jitter=100.0)


def test_time_profile_cycle():
    cfg = _cfg(num_frames=8)
    assert time_profile(cfg, 0) == 0.0
    assert time_profile(cfg, 4) == 1.0  # peak at mid cycle
    assert time_profile(cfg, 8) == 0.0  # closes the cycle
    assert 0.0 < time_profile(cfg, 2) < 1.0


def test_motion_model_matches_analytic_map():
    cfg = _cfg()
    u = motion_model(cfg, 4)  # peak frame
    c = np.array([15.5, 15.5])
    a, th = cfg.contraction_amp, cfg.twist_amp
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for x, y in [(20.0, 18.0), (9.0, 15.0), (15.0, 25.0)]:
        d = np.array([x, y]) - c
        expect = (1.0 - a) * rot @ d - d
        got = np.array([u.x_component[int(y), int(x)], u.y_component[int(y), int(x)]])
        assert np.allclose(got, expect, atol=1e-12)


def test_motion_vanishes_at_cycle_ends():
    cfg = _cfg()
    for tau in (0, cfg.num_frames):
        u = motion_model(cfg, tau)
        assert np.max(np.abs(u.x_component)) < 1e-14
        assert np.max(np.abs(u.y_component)) < 1e-14


def test_rendered_cycle_closes_bit_exactly():
    s = generate(_cfg())
    assert len(s.images.frames) == _cfg().num_frames + 1
    assert len(s.motions.frames) == _cfg().num_frames
    first = s.images.frames[0].values
    last = s.images.frames[-1].values
    assert np.array_equal(first, last)


def test_rendering_is_rotationally_symmetric():
    # the intensity profile is radial and the twist moves material along
    # circles, so every frame is invariant under quarter turns
    s = generate(_cfg(center_jitter=0.0))
    for frame in s.images.frames:
        assert np.array_equal(frame.values, np.rot90(frame.values))


def test_images_are_self_consistent_with_motion():
    # I_tau(p + u(p)) reproduces frame 0 up to interpolation error
    cfg = _cfg()
    s = generate(cfg)
    ys, xs = np.mgrid[0 : cfg.grid.height, 0 : cfg.grid.width].astype(np.float64)
    for t in (1, 3, 4):
        u = s.motions.frames[t - 1]
        warped = bilinear_sample(s.images.frames[t].values, xs + u.x_component,
                                 ys + u.y_component)
        err = np.abs(warped - s.images.frames[0].values)[s.mask.labels]
        assert err.mean() < 0.03
        assert err.max() < 0.15


def test_mask_is_frame0_ring():
    cfg = _cfg(center_jitter=0.0)
    s = generate(cfg)
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    r = np.hypot(xs - s.center[0], ys - s.center[1])
    expected = (r >= cfg.r_inner) & (r <= cfg.r_outer)
    assert np.array_equal(s.mask.labels, expected)


def test_generate_is_deterministic_and_jitter_bounded():
    a = generate(_cfg(center_jitter=1.5, seed=11))
    b = generate(_cfg(center_jitter=1.5, seed=11))
    assert np.array_equal(a.images.frames[2].values, b.images.frames[2].values)
    assert a.center == b.center and a.insertion_angle == b.insertion_angle
    assert abs(a.center[0] - 15.5) <= 1.5 and abs(a.center[1] - 15.5) <= 1.5
    assert 0.0 <= a.insertion_angle < 2 * np.pi
    c = generate(_cfg(center_jitter=1.5, seed=12))
    assert (a.center != c.center) or (a.insertion_angle != c.insertion_angle)


def test_render_frame_peak_ring_contracts():
    cfg = _cfg()
    img0 = render_frame(cfg, 0).values
    img_peak = render_frame(cfg, cfg.num_frames // 2).values
    ys, xs = np.mgrid[0:32, 0:32].astype(np.float64)
    r = np.hypot(xs - 15.5, ys - 15.5)
    # material contraction pulls the ring inward by factor (1 - a)
    ring0 = img0[(r > cfg.r_inner + 2) & (r < cfg.r_outer - 2)]
    assert ring0.min() > 0.99  # solidly bright inside the ring
    shrunk = (r > (cfg.r_inner + 2) * 0.9) & (r < (cfg.r_outer - 2) * 0.9)
    assert img_peak[shrunk].min() > 0.99
    outside_old_edge = (r > cfg.r_outer * 0.9 + 1.5) & (r < cfg.r_outer + 1.5)
    assert img_peak[outside_old_edge].max() < img0[outside_old_edge].max()


def test_split_sizes_law():
    assert split_sizes(30) == (22, 4, 4)
    assert split_sizes(3) == (1, 1, 1)
    assert split_sizes(741) == (538, 101, 102)
    with pytest.raises(ValueError):
        split_sizes(2)


def test_make_dataset_is_deterministic_and_within_ranges():
    ranges = DatasetRanges(contraction=(0.05, 0.15), twist=(0.1, 0.3),
                           r_inner=(6.0, 8.0), r_outer=(12.0, 14.0))
    base = _cfg()
    a = make_dataset(6, base, ranges, seed=5)
    b = make_dataset(6, base, ranges, seed=5)
    all_a = a.train + a.validation + a.test
    all_b = b.train + b.validation + b.test
    assert len(all_a) == 6
    assert (len(a.train), len(a.validation), len(a.test)) == split_sizes(6)
    for sa, sb in zip(all_a, all_b):
        assert np.array_equal(sa.images.frames[1].values, sb.images.frames[1].values)
    for s in all_a:
        c = s.config
        assert ranges.contraction[0] <= c.contraction_amp <= ranges.contraction[1]
        assert ranges.twist[0] <= c.twist_amp <= ranges.twist[1]
        assert ranges.r_inner[0] <= c.r_inner <= ranges.r_inner[1]
        assert ranges.r_outer[0] <= c.r_outer <= ranges.r_outer[1]
    # distinct seeds give distinct sequences
    c = make_dataset(6, base, ranges, seed=6)
    assert not np.array_equal(all_a[0].images.frames[1].values,
                              (c.train + c.validation + c.test)[0].images.frames[1].values)


def test_sample_save_load_round_trip(tmp_path):
    s = generate(_cfg(center_jitter=1.0, seed=21))
    path = tmp_path / "sample.lmf1"
    save_sample(path, s)
    back = load_sample(path)
    for fa, fb in zip(s.images.frames, back.images.frames):
        assert np.array_equal(fa.values, fb.values)
    for ma, mb in zip(s.motions.frames, back.motions.frames):
        assert np.array_equal(ma.x_component, mb.x_component)
        assert np.array_equal(ma.y_component, mb.y_component)
    assert np.array_equal(s.mask.labels, back.mask.labels)
    assert back.insertion_angle == s.insertion_angle
    assert back.center == s.center
    assert back.config == s.config
    # the loaded sample saves to the same bytes: the meta format is pinned
    again = tmp_path / "again.lmf1"
    save_sample(again, back)
    assert again.read_bytes() == path.read_bytes()
