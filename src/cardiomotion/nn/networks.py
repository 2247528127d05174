"""The four networks of the motion-refinement pipeline.

RegistrationNet bundles a per-frame encoder (image pair -> latent motion
features) with a velocity head band-limited to the latent grid's modes.
NoisePredictor estimates the smoothed noise injected at a given diffusion
step, conditioned on the step through a sinusoidal embedding.
MotionDecoder reconstructs dense displacement sequences from refined
latents alone: it convolves them on the latent grid, modulated by pooled
latent statistics and aware of coordinates so smooth global motions are
cheap to represent, and interpolates the displacements linearly onto the
image grid.

Frames are handled per the temporal contract: the registration nets treat
frames as batch items (no cross-frame mixing); the diffusion-stage nets
fold frames into channels so convolutions mix motion across time, and take
one (T, C, h, w) sequence or a (B, T, C, h, w) batch of them in one call.

Precision: the nets compute in float32 over float64 master parameters.
Each forward casts every parameter it uses to float32 once, and its
inputs too; the public outputs (``forward``, ``encoder_forward``) are
cast back to float64, so the parameter gradients, the Adam state, the
checkpoints and whatever consumes those outputs (the direct registration
path, ``shoot``, strain) stay float64.  Registration-net training alone
takes the float32 decoder output (``decode(encode(pairs))``) and runs
the registration energy on it in float32.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..metric import _real_fourier_basis
from .params import ParameterStore
from .tensor import (Tensor, _as_tensor, _make, add, avgpool2, cast, concat_channels, conv2d,
                     linear, no_grad, relu, reshape, scale_shift, upsample_conv2d)


MAX_DOWN = 10  # 2**10 is Grid2's largest side, so a deeper net divides no grid
MAX_WIDTH = 1024  # the nets allocate their weights and activations by their widths


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 2
    base_channels: int = 16
    latent_channels: int = 16
    num_down: int = 2
    time_embed_dim: int = 16

    def __post_init__(self):
        if not 1 <= self.num_down <= MAX_DOWN:
            raise ValueError(f"num_down must be in [1, {MAX_DOWN}], got {self.num_down}")
        widths = {"in_channels": self.in_channels, "latent_channels": self.latent_channels,
                  "base_channels * 2**num_down": self.base_channels * 2**self.num_down}
        for name, width in widths.items():
            if not 1 <= width <= MAX_WIDTH:
                raise ValueError(f"{name} must be in [1, {MAX_WIDTH}], got {width}")
        _check_embed_dim(self.time_embed_dim)


def _check_embed_dim(dim: int) -> None:
    if not (2 <= dim <= MAX_WIDTH and dim % 2 == 0):
        raise ValueError(f"time_embed_dim must be an even integer in [2, {MAX_WIDTH}], got {dim}")


def sinusoidal_embedding(steps, dim: int) -> np.ndarray:
    """Classic sin/cos positional code of N integer steps, one (N, dim) row each."""
    _check_embed_dim(dim)
    half = dim // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    angles = np.reshape(steps, (-1, 1)) * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def _fold_frames(z, num_frames: int, channels: int) -> tuple[Tensor, tuple]:
    """(..., T, C, h, w) latents as one float32 (N, T*C, h, w) stack, and their leading shape."""
    z = cast(z, np.float32)
    shape = z.values.shape
    if len(shape) < 4 or shape[-4:-2] != (num_frames, channels):
        raise ValueError(f"expected latents (..., {num_frames}, {channels}, h, w), got {shape}")
    return reshape(z, (-1, num_frames * channels) + shape[-2:]), shape[:-4]


class _Net:
    prefix: str  # names every parameter of the net "<prefix>.<name>"

    def __init__(self, store: ParameterStore | None, seed: int | None):
        """A seed of None draws no weights: all start at zero, for a checkpoint to fill."""
        self.store = store if store is not None else ParameterStore()
        self._rng = None if seed is None else np.random.default_rng(seed)

    def _uniform(self, f_in: int, shape: tuple) -> np.ndarray:
        """Kaiming-uniform draws for ``f_in`` inputs per output."""
        bound = math.sqrt(6.0 / f_in)
        return np.zeros(shape) if self._rng is None else self._rng.uniform(-bound, bound, shape)

    def _add(self, name: str, values) -> Tensor:
        return self.store.add(f"{self.prefix}.{name}", values)

    def _get(self, name: str) -> Tensor:
        """The float32 working copy of a float64 master parameter."""
        return cast(self.store[f"{self.prefix}.{name}"], np.float32)

    def _add_conv(self, name: str, c_out: int, c_in: int) -> None:
        """Kaiming-uniform 3x3 kernel and zero bias of one convolution."""
        self._add(f"{name}.w", self._uniform(c_in * 9, (c_out, c_in, 3, 3)))
        self._add(f"{name}.b", np.zeros(c_out))

    def _conv(self, x, name: str) -> Tensor:
        return conv2d(x, self._get(f"{name}.w"), self._get(f"{name}.b"))

    def _upconv(self, x, name: str) -> Tensor:
        """The convolution ``name`` of x upsampled 2x by nearest neighbour."""
        return upsample_conv2d(x, self._get(f"{name}.w"), self._get(f"{name}.b"))

    def _add_film(self, name: str, d: int, ch: int) -> None:
        """Parameters mapping a (N, d) conditioning vector to per-channel scale and shift."""
        self._add(f"{name}.sw", self._uniform(d, (d, ch)))
        self._add(f"{name}.sb", np.zeros(ch))
        self._add(f"{name}.tw", self._uniform(d, (d, ch)))
        self._add(f"{name}.tb", np.zeros(ch))

    def _film(self, x, name: str, cond: Tensor) -> Tensor:
        s = linear(cond, self._get(f"{name}.sw"), self._get(f"{name}.sb"))
        t = linear(cond, self._get(f"{name}.tw"), self._get(f"{name}.tb"))
        return scale_shift(x, s, t)


@functools.lru_cache(maxsize=None)
def interpolation_matrix(n: int, size: int) -> np.ndarray:
    """The (size, n) trigonometric interpolation of n periodic samples onto size > n; cached.

    Each real Fourier mode of n samples becomes the mode of its frequency on
    size samples, times sqrt(size/n); an even n's alternating mode becomes the
    cosine of frequency n/2, times a further 1/sqrt(2).
    """
    q_n, q_size = _real_fourier_basis(n)[0], _real_fourier_basis(size)[0]
    if n % 2 == 0:
        q_n[-1] /= math.sqrt(2.0)
    u = math.sqrt(size / n) * (q_size[:n].T @ q_n)
    u.flags.writeable = False
    return u


@functools.lru_cache(maxsize=None)
def linear_interpolation_matrix(n: int, size: int) -> np.ndarray:
    """The (size, n) linear interpolation of n samples onto size, corners aligned; cached.

    Fine sample i sits at coarse position i (n - 1) / (size - 1), so an affine
    signal on the coarse samples stays affine on the fine ones.
    """
    pos = np.arange(size) * (n - 1) / (size - 1)  # exact wherever a coarse sample sits
    u = np.maximum(0.0, 1.0 - np.abs(pos[:, None] - np.arange(n)))
    u.flags.writeable = False
    return u


def upsample(f, uh: np.ndarray, uw: np.ndarray) -> Tensor:
    """(..., h, w) samples onto (..., height, width), U_h f U_w^T: one node in f's dtype."""
    f = _as_tensor(f)
    uh = uh.astype(f.values.dtype, copy=False)
    uw = uw.astype(f.values.dtype, copy=False)
    return _make(uh @ f.values @ uw.T, (f,), lambda g: (uh.T @ g @ uw,))


def spectral_upsample(f, height: int, width: int) -> Tensor:
    """The trigonometric interpolation of (..., h, w) periodic samples onto (height, width)."""
    f = _as_tensor(f)
    h, w = f.values.shape[-2:]
    return upsample(f, interpolation_matrix(h, height), interpolation_matrix(w, width))


class RegistrationNet(_Net):
    """Per-frame encoder and band-limited velocity head: image pairs -> initial velocities.

    Input (T, 2, H, W), channel 0 the source frame and channel 1 the target.
    ``encode`` gives latents on a grid 2^num_down times coarser; ``decode``
    convolves them there and interpolates the 2-channel result onto the image
    grid, so v0 holds only that coarse grid's Fourier modes.
    """

    prefix = "reg"

    def __init__(self, config: UNetConfig, seed: int | None = 0):
        super().__init__(None, seed)
        self.config = config
        b, c, k = config.base_channels, config.latent_channels, config.num_down

        self._add_conv("enc.in", b, config.in_channels)
        for i in range(k):
            ch = b * 2**i
            self._add_conv(f"enc.refine{i}", ch, ch)
            self._add_conv(f"enc.down{i}", 2 * ch, ch)
        self._add_conv("enc.latent", c, b * 2**k)

        self._add_conv("dec.in", b * 2**k, c)
        self._add_conv("dec.mid", b, b * 2**k)
        self._add("dec.out.w", np.zeros((2, b, 3, 3)))

    def encode(self, pairs) -> Tensor:
        pairs = cast(pairs, np.float32)
        t, cin, h, w = pairs.values.shape
        if cin != self.config.in_channels:
            raise ValueError(f"expected {self.config.in_channels} input channels, got {cin}")
        if h % 2**self.config.num_down or w % 2**self.config.num_down:
            raise ValueError(f"spatial dims {h}x{w} not divisible by 2^{self.config.num_down}")
        x = relu(self._conv(pairs, "enc.in"))
        for i in range(self.config.num_down):
            x = relu(self._conv(x, f"enc.refine{i}"))
            x = avgpool2(x)
            x = relu(self._conv(x, f"enc.down{i}"))
        return self._conv(x, "enc.latent")

    def decode(self, z) -> Tensor:
        """(T, C, h, w) latents -> float32 (T, 2, h * 2^num_down, w * 2^num_down) velocities."""
        z = cast(z, np.float32)
        x = relu(self._conv(z, "dec.in"))
        x = relu(self._conv(x, "dec.mid"))
        scale = 2**self.config.num_down
        return spectral_upsample(conv2d(x, self._get("dec.out.w")),
                                 z.values.shape[2] * scale, z.values.shape[3] * scale)

    def forward(self, pairs) -> Tensor:
        return cast(self.decode(self.encode(pairs)), np.float64)


class NoisePredictor(_Net):
    """Estimates the smoothed noise component of a noisy latent stack.

    Frames are folded into channels so convolutions mix motion across
    time; the step index enters every stage through a sinusoidal
    embedding mapped to per-channel scale and shift.
    """

    prefix = "eps"

    def __init__(self, config: UNetConfig, num_frames: int,
                 store: ParameterStore | None = None, seed: int | None = 1):
        super().__init__(store, seed)
        self.config = config
        self.num_frames = num_frames
        hid, k, d = config.base_channels, config.num_down, config.time_embed_dim
        tc = num_frames * config.latent_channels

        self._add_conv("in", hid, tc)
        self._add_film("film0", d, hid)
        for i in range(k):
            ch = hid * 2**i
            self._add_conv(f"down{i}", 2 * ch, ch)
            self._add_film(f"film{i + 1}", d, 2 * ch)
            self._add_conv(f"up{i}", ch, 2 * ch)
        self._add("out.w", np.zeros((tc, hid, 3, 3)))

    def forward(self, z_noisy, step) -> Tensor:
        """Predicted noise of (..., T, C, h, w) latents at one step, or one step per item."""
        x, lead = _fold_frames(z_noisy, self.num_frames, self.config.latent_channels)
        n = x.values.shape[0]
        steps = np.reshape(step, -1)
        if steps.size not in (1, n):
            raise ValueError(f"expected 1 or {n} diffusion steps, got {steps.size}")
        if np.any(steps < 1):
            raise ValueError(f"diffusion step must be >= 1, got {step}")
        emb = sinusoidal_embedding(np.broadcast_to(steps, (n,)), self.config.time_embed_dim)
        emb = emb.astype(np.float32)
        x = relu(self._conv(x, "in"))
        x = self._film(x, "film0", emb)
        stack = [x]
        for i in range(self.config.num_down):
            x = avgpool2(x)
            x = relu(self._conv(x, f"down{i}"))
            x = self._film(x, f"film{i + 1}", emb)
            stack.append(x)
        for i in reversed(range(self.config.num_down)):
            x = relu(add(self._upconv(x, f"up{i}"), stack[i]))
        out = conv2d(x, self._get("out.w"))
        t, c = self.num_frames, self.config.latent_channels
        return cast(reshape(out, lead + (t, c) + out.values.shape[2:]), np.float64)


class MotionDecoder(_Net):
    """Reconstructs dense displacement sequences from latents alone.

    The only inputs are the refined latents; no encoder activation enters.
    Every layer runs on the latent grid: pooled latent statistics modulate
    each (per-channel scale and shift), and two fixed coordinate channels
    join before the head so smooth position-dependent motion is cheap.  The
    head's displacements are interpolated linearly onto the image grid,
    corners aligned, as a free-form deformation on a control grid (Rueckert
    et al., IEEE TMI 1999).  Output (..., T, 2, H, W) holds (x, y)
    displacement in pixels per frame.
    """

    prefix = "mot"

    def __init__(self, config: UNetConfig, num_frames: int, height: int, width: int,
                 store: ParameterStore | None = None, seed: int | None = 2):
        super().__init__(store, seed)
        self.config = config
        self.num_frames = num_frames
        self.height = height
        self.width = width
        k = config.num_down
        if height % 2**k or width % 2**k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by 2^{k}")
        hid = config.base_channels
        tc = num_frames * config.latent_channels

        self._add_conv("in", hid * 2**k, tc)
        self._add_film("film_in", tc, hid * 2**k)
        self._add_conv("head", hid, hid * 2**k + 2)
        self._add_film("film_head", tc, hid)
        self._add("out.w", np.zeros((2 * num_frames, hid, 3, 3)))

        h, w = height // 2**k, width // 2**k
        ys, xs = np.meshgrid(np.linspace(-1.0, 1.0, h), np.linspace(-1.0, 1.0, w), indexing="ij")
        self._coords = np.stack([xs, ys]).astype(np.float32)

    def forward(self, z) -> Tensor:
        x, lead = _fold_frames(z, self.num_frames, self.config.latent_channels)
        n, tc, h, w = x.values.shape
        if h * 2**self.config.num_down != self.height or w * 2**self.config.num_down != self.width:
            raise ValueError(
                f"latent dims {h}x{w} do not upsample to {self.height}x{self.width} "
                f"in {self.config.num_down} steps"
            )
        mean_w = np.full((h * w, 1), 1.0 / (h * w), dtype=np.float32)
        pooled = reshape(linear(reshape(x, (n * tc, h * w)), mean_w), (n, tc))

        x = relu(self._conv(x, "in"))
        x = self._film(x, "film_in", pooled)
        x = concat_channels([x, np.broadcast_to(self._coords, (n,) + self._coords.shape)])
        x = relu(self._conv(x, "head"))
        x = self._film(x, "film_head", pooled)
        out = upsample(conv2d(x, self._get("out.w")), linear_interpolation_matrix(h, self.height),
                       linear_interpolation_matrix(w, self.width))
        return cast(reshape(out, lead + (self.num_frames, 2, self.height, self.width)), np.float64)


def encoder_forward(net: RegistrationNet, image_pairs: np.ndarray) -> Tensor:
    """Frozen encoder pass: (T, 2, H, W) image pairs -> (T, C, h, w) latents."""
    with no_grad():
        return cast(net.encode(image_pairs), np.float64)

