"""Reverse-mode autodiff engine, differentiable field ops, and networks."""

from .fieldops import bilinear_warp, fd_dx, fd_dy, spectral_multiply
from .networks import (
    MotionDecoder,
    NoisePredictor,
    RegistrationNet,
    UNetConfig,
    encoder_forward,
    sinusoidal_embedding,
)
from .params import (
    ParameterStore,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import (
    Tensor,
    add,
    add_n,
    avgpool2,
    concat_channels,
    constant,
    conv2d,
    linear,
    mul,
    nearest_upsample2,
    neg,
    no_grad,
    relu,
    reshape,
    scale_shift,
    smul,
    sub,
    sum_all,
    take_index,
)

__all__ = [
    "Tensor", "no_grad", "constant",
    "add", "sub", "neg", "mul", "smul", "sum_all", "add_n", "relu",
    "reshape", "take_index", "concat_channels",
    "conv2d", "avgpool2", "nearest_upsample2", "linear", "scale_shift",
    "spectral_multiply", "fd_dx", "fd_dy", "bilinear_warp",
    "ParameterStore", "adam_step",
    "save_checkpoint", "load_checkpoint",
    "UNetConfig", "sinusoidal_embedding",
    "RegistrationNet", "NoisePredictor", "MotionDecoder",
    "encoder_forward",
]
