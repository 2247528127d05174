"""The four networks of the motion-refinement pipeline.

RegistrationNet bundles a per-frame encoder (image pair -> latent motion
features) with a skip-connected decoder (latents -> initial velocity).
NoisePredictor estimates the smoothed noise injected at a given diffusion
step, conditioned on the step through a sinusoidal embedding.
MotionDecoder reconstructs dense displacement sequences from refined
latents alone, modulated by pooled latent statistics and aware of image
coordinates so smooth global motions are cheap to represent.

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
takes the float32 decoder output (``decode(*encode(pairs))``) and runs
the registration energy on it in float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterStore
from .tensor import (
    Tensor,
    add,
    avgpool2,
    cast,
    concat_channels,
    constant,
    conv2d,
    linear,
    nearest_upsample2,
    no_grad,
    relu,
    reshape,
    scale_shift,
)


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 2
    base_channels: int = 16
    latent_channels: int = 16
    num_down: int = 2
    time_embed_dim: int = 16

    def __post_init__(self):
        for field in ("in_channels", "base_channels", "latent_channels", "num_down"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be a positive integer")
        _check_embed_dim(self.time_embed_dim)


def _check_embed_dim(dim: int) -> None:
    if dim < 2 or dim % 2:
        raise ValueError(f"time_embed_dim must be an even integer >= 2, got {dim}")


def sinusoidal_embedding(steps, dim: int) -> np.ndarray:
    """Classic sin/cos positional code of N integer steps, one (N, dim) row each."""
    _check_embed_dim(dim)
    half = dim // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    angles = np.reshape(steps, (-1, 1)) * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def _kaiming_linear(rng: np.random.Generator, f_in: int, f_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / f_in)
    return rng.uniform(-bound, bound, size=(f_in, f_out))


def _fold_frames(z, num_frames: int, channels: int) -> tuple[Tensor, tuple]:
    """(..., T, C, h, w) latents as one float32 (N, T*C, h, w) stack, and their leading shape."""
    z = cast(z, np.float32)
    shape = z.values.shape
    if len(shape) < 4 or shape[-4:-2] != (num_frames, channels):
        raise ValueError(f"expected latents (..., {num_frames}, {channels}, h, w), got {shape}")
    return reshape(z, (-1, num_frames * channels) + shape[-2:]), shape[:-4]


class _Net:
    prefix: str  # names every parameter of the net "<prefix>.<name>"

    def __init__(self, store: ParameterStore | None):
        self.store = store if store is not None else ParameterStore()

    def _add(self, name: str, values) -> Tensor:
        return self.store.add(f"{self.prefix}.{name}", values)

    def _get(self, name: str) -> Tensor:
        """The float32 working copy of a float64 master parameter."""
        return cast(self.store[f"{self.prefix}.{name}"], np.float32)

    def _add_conv(self, rng, name: str, c_out: int, c_in: int) -> None:
        """Kaiming-uniform 3x3 kernel and zero bias of one convolution."""
        bound = math.sqrt(6.0 / (c_in * 9))
        self._add(f"{name}.w", rng.uniform(-bound, bound, size=(c_out, c_in, 3, 3)))
        self._add(f"{name}.b", np.zeros(c_out))

    def _conv(self, x, name: str) -> Tensor:
        return conv2d(x, self._get(f"{name}.w"), self._get(f"{name}.b"))

    def _add_film(self, rng, name: str, d: int, ch: int) -> None:
        """Parameters mapping a (N, d) conditioning vector to per-channel scale and shift."""
        self._add(f"{name}.sw", _kaiming_linear(rng, d, ch))
        self._add(f"{name}.sb", np.zeros(ch))
        self._add(f"{name}.tw", _kaiming_linear(rng, d, ch))
        self._add(f"{name}.tb", np.zeros(ch))

    def _film(self, x, name: str, cond: Tensor) -> Tensor:
        s = linear(cond, self._get(f"{name}.sw"), self._get(f"{name}.sb"))
        t = linear(cond, self._get(f"{name}.tw"), self._get(f"{name}.tb"))
        return scale_shift(x, s, t)


class RegistrationNet(_Net):
    """Encoder/decoder pair mapping image pairs to initial velocities.

    The encoder runs per frame: input (T, 2, H, W) where channel 0 is the
    source frame and channel 1 the target frame.  ``encode`` returns the
    skip activations that ``decode`` takes with the latents.
    """

    prefix = "reg"

    def __init__(self, config: UNetConfig, seed: int = 0):
        super().__init__(ParameterStore())
        self.config = config
        rng = np.random.default_rng(seed)
        b, c, k = config.base_channels, config.latent_channels, config.num_down

        self._add_conv(rng, "enc.in", b, config.in_channels)
        for i in range(k):
            ch = b * 2**i
            self._add_conv(rng, f"enc.refine{i}", ch, ch)
            self._add_conv(rng, f"enc.down{i}", 2 * ch, ch)
        self._add_conv(rng, "enc.latent", c, b * 2**k)

        self._add_conv(rng, "dec.in", b * 2**k, c)
        for i in reversed(range(k)):
            ch = b * 2**i
            self._add_conv(rng, f"dec.up{i}", ch, 2 * ch)
            self._add_conv(rng, f"dec.fuse{i}", ch, 2 * ch)
        self._add("dec.out.w", np.zeros((2, b, 3, 3)))

    def encode(self, pairs) -> tuple[Tensor, list[Tensor]]:
        pairs = cast(pairs, np.float32)
        t, cin, h, w = pairs.values.shape
        if cin != self.config.in_channels:
            raise ValueError(f"expected {self.config.in_channels} input channels, got {cin}")
        if h % 2**self.config.num_down or w % 2**self.config.num_down:
            raise ValueError(
                f"spatial dims {h}x{w} not divisible by 2^{self.config.num_down}"
            )
        x = relu(self._conv(pairs, "enc.in"))
        skips = []
        for i in range(self.config.num_down):
            x = relu(self._conv(x, f"enc.refine{i}"))
            skips.append(x)
            x = avgpool2(x)
            x = relu(self._conv(x, f"enc.down{i}"))
        z = self._conv(x, "enc.latent")
        return z, skips

    def decode(self, z, skips: list[Tensor]) -> Tensor:
        z = cast(z, np.float32)
        if len(skips) != self.config.num_down:
            raise ValueError(f"expected {self.config.num_down} skip tensors, got {len(skips)}")
        x = relu(self._conv(z, "dec.in"))
        for i in reversed(range(self.config.num_down)):
            x = nearest_upsample2(x)
            x = relu(self._conv(x, f"dec.up{i}"))
            skip = skips[i]
            if skip.values.shape[2:] != x.values.shape[2:] or skip.values.shape[0] != x.values.shape[0]:
                raise ValueError(
                    f"skip shape {skip.values.shape} incompatible with "
                    f"decoder activation {x.values.shape}"
                )
            x = concat_channels([x, skip])
            x = relu(self._conv(x, f"dec.fuse{i}"))
        return conv2d(x, self._get("dec.out.w"))

    def forward(self, pairs) -> Tensor:
        z, skips = self.encode(pairs)
        return cast(self.decode(z, skips), np.float64)


class NoisePredictor(_Net):
    """Estimates the smoothed noise component of a noisy latent stack.

    Frames are folded into channels so convolutions mix motion across
    time; the step index enters every stage through a sinusoidal
    embedding mapped to per-channel scale and shift.
    """

    prefix = "eps"

    def __init__(self, config: UNetConfig, num_frames: int,
                 store: ParameterStore | None = None, seed: int = 1):
        super().__init__(store)
        self.config = config
        self.num_frames = num_frames
        rng = np.random.default_rng(seed)
        hid, k, d = config.base_channels, config.num_down, config.time_embed_dim
        tc = num_frames * config.latent_channels

        self._add_conv(rng, "in", hid, tc)
        self._add_film(rng, "film0", d, hid)
        for i in range(k):
            ch = hid * 2**i
            self._add_conv(rng, f"down{i}", 2 * ch, ch)
            self._add_film(rng, f"film{i + 1}", d, 2 * ch)
            self._add_conv(rng, f"up{i}", ch, 2 * ch)
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
        emb = constant(emb.astype(np.float32))
        x = relu(self._conv(x, "in"))
        x = self._film(x, "film0", emb)
        stack = [x]
        for i in range(self.config.num_down):
            x = avgpool2(x)
            x = relu(self._conv(x, f"down{i}"))
            x = self._film(x, f"film{i + 1}", emb)
            stack.append(x)
        for i in reversed(range(self.config.num_down)):
            x = nearest_upsample2(x)
            x = self._conv(x, f"up{i}")
            x = relu(add(x, stack[i]))
        out = conv2d(x, self._get("out.w"))
        t, c = self.num_frames, self.config.latent_channels
        return cast(reshape(out, lead + (t, c) + out.values.shape[2:]), np.float64)


class MotionDecoder(_Net):
    """Reconstructs dense displacement sequences from latents alone.

    No encoder skips: the only inputs are the refined latents.  Pooled
    latent statistics modulate every stage (per-channel scale and shift),
    and two fixed coordinate channels join before the head so smooth
    position-dependent motion does not have to be synthesized from
    upsampled noise.  Output (..., T, 2, H, W) holds (x, y) displacement
    in pixels per frame.
    """

    prefix = "mot"

    def __init__(self, config: UNetConfig, num_frames: int, height: int, width: int,
                 store: ParameterStore | None = None, seed: int = 2):
        super().__init__(store)
        self.config = config
        self.num_frames = num_frames
        self.height = height
        self.width = width
        k = config.num_down
        if height % 2**k or width % 2**k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by 2^{k}")
        rng = np.random.default_rng(seed)
        hid = config.base_channels
        tc = num_frames * config.latent_channels

        self._add_conv(rng, "in", hid * 2**k, tc)
        self._add_film(rng, "film_in", tc, hid * 2**k)
        for i in range(k):
            ch = hid * 2 ** (k - i)
            self._add_conv(rng, f"up{i}", ch // 2, ch)
            self._add_film(rng, f"film{i}", tc, ch // 2)
        self._add_conv(rng, "head", hid, hid + 2)
        self._add_film(rng, "film_head", tc, hid)
        self._add("out.w", np.zeros((2 * num_frames, hid, 3, 3)))

        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        coords = np.stack([2 * xs / (width - 1) - 1, 2 * ys / (height - 1) - 1])
        self._coords = coords.astype(np.float32)

    def forward(self, z) -> Tensor:
        x, lead = _fold_frames(z, self.num_frames, self.config.latent_channels)
        n, tc, h, w = x.values.shape
        if h * 2**self.config.num_down != self.height or w * 2**self.config.num_down != self.width:
            raise ValueError(
                f"latent dims {h}x{w} do not upsample to {self.height}x{self.width} "
                f"in {self.config.num_down} steps"
            )
        mean_w = constant(np.full((h * w, 1), 1.0 / (h * w), dtype=np.float32))
        pooled = reshape(linear(reshape(x, (n * tc, h * w)), mean_w), (n, tc))

        x = relu(self._conv(x, "in"))
        x = self._film(x, "film_in", pooled)
        for i in range(self.config.num_down):
            x = nearest_upsample2(x)
            x = relu(self._conv(x, f"up{i}"))
            x = self._film(x, f"film{i}", pooled)
        x = concat_channels([x, constant(np.broadcast_to(self._coords, (n,) + self._coords.shape))])
        x = relu(self._conv(x, "head"))
        x = self._film(x, "film_head", pooled)
        out = conv2d(x, self._get("out.w"))
        return cast(reshape(out, lead + (self.num_frames, 2, self.height, self.width)), np.float64)


def encoder_forward(net: RegistrationNet, image_pairs: np.ndarray) -> Tensor:
    """Frozen encoder pass: (T, 2, H, W) image pairs -> (T, C, h, w) latents."""
    with no_grad():
        z, _ = net.encode(image_pairs)
    return cast(z, np.float64)

