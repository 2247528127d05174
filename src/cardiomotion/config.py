"""Run configuration: one JSON document driving every pipeline stage.

The document is RunConfig as JSON: one object per section field (grid,
metric, shooting, registration, nets, diffusion, phantom), each holding
its section dataclass's fields, plus a top-level seed.  Unknown keys are
rejected with the full key path so typos fail loudly instead of
silently falling back to defaults.  `write_reference` emits the
complete default document; it is the single reference for every
tunable and its default value.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .container import atomic_write
from .errors import ConfigError


@dataclass(frozen=True)
class GridSection:
    height: int = 64
    width: int = 64
    spacing: float = 1.0


@dataclass(frozen=True)
class MetricSection:
    alpha: float = 3.0
    gamma: float = 1.0
    power: int = 3


@dataclass(frozen=True)
class ShootingSection:
    num_steps: int = 10


@dataclass(frozen=True)
class RegistrationSection:
    sigma: float = 0.03
    learning_rate: float = 1e-4
    max_iterations: int = 500
    convergence_tol: float = 1e-6


@dataclass(frozen=True)
class NetsSection:
    base_channels: int = 16
    latent_channels: int = 16
    num_down: int = 2
    time_embed_dim: int = 16


@dataclass(frozen=True)
class DiffusionSection:
    num_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    kernel_std: float = 1.0
    loss_alpha: float = 1e-2
    lambda_eps: float = 1e-4
    lambda_m: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 2000
    patience: int = 50
    learning_rate: float = 1e-4


@dataclass(frozen=True)
class PhantomSection:
    num_frames: int = 8
    contraction: tuple[float, float] = (0.05, 0.15)
    twist: tuple[float, float] = (0.1, 0.3)
    r_inner: tuple[float, float] = (8.0, 12.0)
    r_outer: tuple[float, float] = (18.0, 24.0)
    center_jitter: float = 0.0
    smoothing_std: float = 1.5


@dataclass(frozen=True)
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    metric: MetricSection = field(default_factory=MetricSection)
    shooting: ShootingSection = field(default_factory=ShootingSection)
    registration: RegistrationSection = field(default_factory=RegistrationSection)
    nets: NetsSection = field(default_factory=NetsSection)
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    phantom: PhantomSection = field(default_factory=PhantomSection)
    seed: int = 0


def _json_int(value, where: str) -> int:
    """A JSON integer; anything else is a ConfigError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _finite_float(value, where: str, expected: str) -> float:
    """A JSON number as a finite float; anything else is a ConfigError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be {expected}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _build_section(cls, data: dict, path: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {path}.{key}")
        f = fields[key]
        where = f"{path}.{key}"
        if f.type.startswith("tuple"):
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"{where} must be a two-element list")
            value = tuple(_finite_float(x, where, "a list of two numbers") for x in value)
        elif f.type == "int":
            value = _json_int(value, where)
        elif f.type == "float":
            value = _finite_float(value, where, "a number")
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    sections = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
                if f.default_factory is not dataclasses.MISSING}
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _json_int(value, "seed")
            if value < 0:
                raise ConfigError(f"seed must be non-negative, got {value}")
        elif key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be a JSON object")
            kwargs[key] = _build_section(sections[key], value, key)
        else:
            raise ConfigError(f"unknown config key: {key}")
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from e
    return config_from_dict(data)


def write_reference(path) -> None:
    """Write the default configuration document (the tunables reference)."""
    text = json.dumps(dataclasses.asdict(RunConfig()), indent=2) + "\n"
    atomic_write(path, text.encode("utf-8"))
