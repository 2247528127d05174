"""Synthetic cardiac phantom: annulus sequences with analytic motion.

A contracting, twisting annulus stands in for a short-axis myocardium.
The twist rotates every material point by the same angle, so the
rendered images are invariant to it while the ground-truth displacement
fields are not: intensity-only registration cannot recover the
tangential component, a supervised decoder can.  Frames are binary
annuli (mirroring segmentation-mask preprocessing) with optional
anti-aliased edges.  A saved sample's ``images`` and ``motions`` records
are its sequences' arrays, and its ``meta`` record holds its PhantomConfig's
fields (the grid as ``[height, width, spacing]``), ``insertion_angle`` and
``center``.  A dataset is a DatasetRanges, the run configuration's phantom
section: ``make_dataset`` draws each sequence's contraction, twist and radii
from its ranges, on a given grid.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .container import (_finite_float, _json_int, checked_record, read_checked, read_json,
                        write_container)
from .grid import FieldSequence, Grid2, ScalarField, VectorField, coordinate_arrays
from .strain import Mask


MAX_FRAMES = 100  # a sample holds every frame's image and motion


@dataclass(frozen=True)
class PhantomConfig:
    grid: Grid2 = Grid2()
    num_frames: int = 8
    r_inner: float = 10.0
    r_outer: float = 20.0
    contraction_amp: float = 0.1
    twist_amp: float = 0.2
    center_jitter: float = 0.0
    smoothing_std: float = 1.5
    seed: int = 0

    def __post_init__(self):
        half = min(self.grid.height, self.grid.width) / 2.0
        # a ring 1 px wide or more holds a pixel of the grid row nearest its center,
        # wherever the center lies, so the frame-0 mask is never empty
        if not (self.r_inner >= 2.0 and self.r_outer - self.r_inner >= 1.0):
            raise ValueError(f"need r_inner >= 2 and r_outer - r_inner >= 1, "
                             f"got {self.r_inner}, {self.r_outer}")
        if not 0.0 <= self.contraction_amp <= 0.3:
            raise ValueError(f"contraction_amp {self.contraction_amp} outside [0, 0.3]")
        if not 0.0 <= self.twist_amp <= 0.5:
            raise ValueError(f"twist_amp {self.twist_amp} outside [0, 0.5]")
        if not 1 <= self.num_frames <= MAX_FRAMES:
            raise ValueError(f"num_frames must be in [1, {MAX_FRAMES}], got {self.num_frames}")
        if self.center_jitter < 0 or self.smoothing_std < 0:
            raise ValueError("center_jitter and smoothing_std must be nonnegative")
        # annulus only shrinks over the cycle, so in-grid at tau=0 suffices
        if self.r_outer + self.center_jitter > half - 2.0:
            raise ValueError(f"r_outer {self.r_outer} plus center_jitter {self.center_jitter} "
                             f"exceeds {half - 2.0} for grid {self.grid.shape}")


@dataclass(frozen=True)
class PhantomSample:
    images: FieldSequence
    motions: FieldSequence
    mask: Mask
    insertion_angle: float
    center: tuple[float, float]
    config: PhantomConfig


def time_profile(cfg: PhantomConfig, tau: float) -> float:
    """s(tau) = (1 - cos(2 pi tau / T)) / 2: zero at both ends, peak mid-cycle."""
    if not 0 <= tau <= cfg.num_frames:
        raise ValueError(f"frame index {tau} outside 0..{cfg.num_frames}")
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * tau / cfg.num_frames))


def _grid_center(grid: Grid2) -> tuple[float, float]:
    return (grid.width - 1) / 2.0, (grid.height - 1) / 2.0


def motion_model(cfg: PhantomConfig, tau: float,
                 center: tuple[float, float] | None = None) -> VectorField:
    """Frame-0-to-frame-tau displacement on the whole grid.

    A point at radius r, angle phi about the center moves to radius
    r*(1 - a*s(tau)) and angle phi + twist_amp*s(tau).
    """
    s = time_profile(cfg, tau)
    cx, cy = _grid_center(cfg.grid) if center is None else center
    xs, ys = coordinate_arrays(cfg.grid)
    dx = xs - cx
    dy = ys - cy
    scale = 1.0 - cfg.contraction_amp * s
    ang = cfg.twist_amp * s
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    new_x = scale * (cos_a * dx - sin_a * dy)
    new_y = scale * (sin_a * dx + cos_a * dy)
    return VectorField(cfg.grid, new_x - dx, new_y - dy)


def _radial_profile(r: np.ndarray, r_in: float, r_out: float, std: float) -> np.ndarray:
    """Annulus indicator with raised-cosine edges of half-width std."""
    if std == 0.0:
        return ((r >= r_in) & (r <= r_out)).astype(np.float64)

    def edge(x):
        t = np.clip(x / std, -1.0, 1.0)
        return 0.5 * (1.0 + np.sin(0.5 * np.pi * t))

    return edge(r - r_in) * edge(r_out - r)


def render_frame(cfg: PhantomConfig, tau: float,
                 center: tuple[float, float] | None = None) -> ScalarField:
    """Annulus between the deformed radii at frame tau.

    Rendered through the material radial profile: the frame-0 profile is
    evaluated at r / (1 - a*s), so the anti-aliased edge contracts with
    the tissue and warping frame 0 by the analytic map reproduces frame
    tau up to interpolation error.  The twist never appears (rotational
    symmetry).
    """
    s = time_profile(cfg, tau)
    cx, cy = _grid_center(cfg.grid) if center is None else center
    xs, ys = coordinate_arrays(cfg.grid)
    r = np.hypot(xs - cx, ys - cy)
    material_r = r / (1.0 - cfg.contraction_amp * s)
    values = _radial_profile(material_r, cfg.r_inner, cfg.r_outer, cfg.smoothing_std)
    return ScalarField(cfg.grid, values)


def generate(cfg: PhantomConfig) -> PhantomSample:
    """Assemble images, motions, frame-0 mask, and a drawn insertion angle."""
    rng = np.random.default_rng(cfg.seed)
    cx, cy = _grid_center(cfg.grid)
    if cfg.center_jitter > 0:
        cx += rng.uniform(-cfg.center_jitter, cfg.center_jitter)
        cy += rng.uniform(-cfg.center_jitter, cfg.center_jitter)
    insertion = float(rng.uniform(0.0, 2.0 * np.pi))
    center = (float(cx), float(cy))
    images = np.stack([render_frame(cfg, t, center).values for t in range(cfg.num_frames + 1)])
    motions = np.stack([motion_model(cfg, t, center).values
                        for t in range(1, cfg.num_frames + 1)])
    xs, ys = coordinate_arrays(cfg.grid)
    r = np.hypot(xs - center[0], ys - center[1])
    mask = Mask(cfg.grid, (r >= cfg.r_inner) & (r <= cfg.r_outer))
    return PhantomSample(FieldSequence(cfg.grid, images), FieldSequence(cfg.grid, motions), mask,
                         insertion, center, cfg)


@dataclass(frozen=True)
class DatasetRanges:
    """A phantom dataset: the uniform ranges of each sequence's draws, and its other fields."""

    num_frames: int = PhantomConfig.num_frames
    contraction: tuple[float, float] = (0.05, 0.15)
    twist: tuple[float, float] = (0.1, 0.3)
    r_inner: tuple[float, float] = (8.0, 12.0)
    r_outer: tuple[float, float] = (18.0, 24.0)
    center_jitter: float = PhantomConfig.center_jitter
    smoothing_std: float = PhantomConfig.smoothing_std

    def __post_init__(self):
        for name in ("contraction", "twist", "r_inner", "r_outer"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"range {name} has lo > hi")

    def sequence_config(self, grid: Grid2, contraction: float, twist: float, r_inner: float,
                        r_outer: float, seed: int = 0) -> PhantomConfig:
        """The PhantomConfig of one draw on ``grid``."""
        return PhantomConfig(grid, self.num_frames, r_inner, r_outer, contraction, twist,
                             self.center_jitter, self.smoothing_std, seed)

    def check_corners(self, grid: Grid2) -> None:
        """Refuse the ranges if a draw on ``grid`` breaks a PhantomConfig bound.  A bound that
        breaks anywhere breaks at a corner: the low ends and high r_outer, or the opposite."""
        for corner in zip(self.contraction, self.twist, self.r_inner, self.r_outer[::-1]):
            self.sequence_config(grid, *corner)


def split_sizes(n_sequences: int) -> tuple[int, int, int]:
    """Deterministic (train, validation, test) counts at ~73/14/14%."""
    if n_sequences < 3:
        raise ValueError(f"need at least 3 sequences, got {n_sequences}")
    n_val = max(1, int(n_sequences * 101 / 741))
    n_test = max(1, int(n_sequences * 102 / 741))
    return n_sequences - n_val - n_test, n_val, n_test


def make_dataset(n_sequences: int, grid: Grid2, ranges: DatasetRanges,
                 seed: int = 0) -> dict[str, list]:
    """Generate n sequences on ``grid`` and split them into "train", "validation" and
    "test".  Each draws from the ranges with its own derived rng stream, so regenerating
    any prefix of the dataset is stable under n."""
    n_train, n_val, n_test = split_sizes(n_sequences)
    samples = []
    for i in range(n_sequences):
        rng = np.random.default_rng([seed, i])
        draw = [float(rng.uniform(*r))
                for r in (ranges.contraction, ranges.twist, ranges.r_inner, ranges.r_outer)]
        samples.append(generate(ranges.sequence_config(grid, *draw, int(rng.integers(0, 2**31)))))
    return {"train": samples[:n_train], "validation": samples[n_train : n_train + n_val],
            "test": samples[n_train + n_val :]}


def save_sample(path, sample: PhantomSample) -> None:
    """Persist one sample as a motion-feature container."""
    cfg = sample.config
    meta = dataclasses.asdict(cfg)
    meta.update(grid=[cfg.grid.height, cfg.grid.width, cfg.grid.spacing],
                insertion_angle=sample.insertion_angle, center=list(sample.center))
    records = {
        "images": sample.images.values,
        "motions": sample.motions.values,
        "mask": sample.mask.labels.astype(np.uint8),
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
    }
    write_container(path, records)


def _meta_number(value, integer: bool, where: str):
    return _json_int(value, where) if integer else _finite_float(value, where, "a number")


def _meta_field(meta: dict, key: str, integers=False):
    """A meta value: a number, or a list of numbers when ``integers`` is a tuple.

    ``integers`` flags which values must be integers; the others are read as
    finite floats.  Both are read as the config loader reads its numbers.
    """
    if key not in meta:
        raise ValueError(f"sample meta lacks field {key!r}")
    value, where = meta[key], f"sample meta field {key!r}"
    if not isinstance(integers, tuple):
        return _meta_number(value, integers, where)
    if not isinstance(value, list) or len(value) != len(integers):
        raise ValueError(f"{where} must be a list of {len(integers)} numbers, got {value!r}")
    return [_meta_number(v, i, where) for v, i in zip(value, integers)]


def load_sample(path) -> PhantomSample:
    """Read a sample container; any defect of its records is a ValueError naming the file."""
    return read_checked(path, _sample_from_records)


def _sample_from_records(records: dict) -> PhantomSample:
    meta = read_json("sample meta", checked_record(records, "meta", None).tobytes())
    grid = Grid2(*_meta_field(meta, "grid", (True, True, False)))
    cfg = PhantomConfig(grid=grid, **{f.name: _meta_field(meta, f.name, f.type == "int")
                                      for f in dataclasses.fields(PhantomConfig)
                                      if f.name != "grid"})
    angle = _meta_field(meta, "insertion_angle")
    cx, cy = _meta_field(meta, "center", (False, False))
    t = cfg.num_frames
    images = checked_record(records, "images", (t + 1,) + grid.shape)
    motions = checked_record(records, "motions", (t, 2) + grid.shape)
    mask = Mask(grid, checked_record(records, "mask", grid.shape).astype(bool))
    return PhantomSample(FieldSequence(grid, images), FieldSequence(grid, motions), mask, angle,
                         (cx, cy), cfg)
