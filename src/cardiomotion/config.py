"""Run configuration: one JSON document driving every pipeline stage.

The document is RunConfig as JSON: one object per section field (grid,
metric, shooting, registration, nets, diffusion, phantom), each holding
its section dataclass's fields (the grid's is Grid2, the phantom's the
DatasetRanges that make_dataset draws), plus a top-level seed.  Unknown keys
and wrong JSON types are refused with the full key path.  A RunConfig builds
every stage's domain config on its own grid, so their checks, which bound each
size the run allocates by, are its range checks: a document is valid or invalid
as a whole.  `load_config` names the file in any error.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .container import _finite_float, _json_int, atomic_write, read_json
from .diffusion import DiffusionConfig, check_patience, make_schedule
from .errors import ConfigError
from .geodesic import ShootingConfig
from .grid import Grid2
from .metric import MetricOperator, SmoothingKernel
from .nn.networks import UNetConfig
from .nn.params import check_learning_rate
from .phantom import DatasetRanges
from .registration import RegistrationConfig


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
class RunConfig:
    grid: Grid2 = field(default_factory=Grid2)
    metric: MetricSection = field(default_factory=MetricSection)
    shooting: ShootingSection = field(default_factory=ShootingSection)
    registration: RegistrationSection = field(default_factory=RegistrationSection)
    nets: NetsSection = field(default_factory=NetsSection)
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    phantom: DatasetRanges = field(default_factory=DatasetRanges)
    seed: int = 0

    def __post_init__(self):  # the domain classes' checks are the document's range checks
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        self.registration_config(self.grid)
        self.unet_config()
        self.diffusion_config()
        self.phantom.check_corners(self.grid)

    def registration_config(self, grid: Grid2) -> RegistrationConfig:
        """Registration on ``grid``: the document's, or the grid of a dataset."""
        operator = MetricOperator(grid, **dataclasses.asdict(self.metric))
        return RegistrationConfig(ShootingConfig(self.shooting.num_steps, operator),
                                  **dataclasses.asdict(self.registration))

    def unet_config(self) -> UNetConfig:
        return UNetConfig(**dataclasses.asdict(self.nets))

    def diffusion_config(self) -> DiffusionConfig:
        """The chain and its training, which takes the checked learning rate and patience."""
        d = self.diffusion
        check_learning_rate("diffusion.learning_rate", d.learning_rate)
        check_patience(d.patience)
        return DiffusionConfig(make_schedule(d.num_steps, d.beta_start, d.beta_end),
                               SmoothingKernel(d.kernel_std), d.loss_alpha, d.lambda_eps,
                               d.lambda_m, d.batch_size, d.max_epochs)


def _build_section(cls, data, path: str):
    """A ``cls`` from the JSON object ``data`` at key path ``path``, "" for the document."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'the config document'} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in fields:
            raise ConfigError(f"unknown config key: {where}")
        f = fields[key]
        if f.type.startswith("tuple"):
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"{where} must be a two-element list")
            value = tuple(_finite_float(x, where, "a list of two numbers") for x in value)
        elif f.type == "int":
            value = _json_int(value, where)
        elif f.type == "float":
            value = _finite_float(value, where, "a number")
        else:  # a section of the document
            value = _build_section(f.default_factory, value, where)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data) -> RunConfig:
    return _build_section(RunConfig, data, "")


def load_config(path) -> RunConfig:
    """The document at ``path``, or the defaults when ``path`` is None."""
    if path is None:
        return RunConfig()
    document = read_json(path)
    try:
        return config_from_dict(document)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def write_reference(path) -> None:
    """Write the default configuration document (the tunables reference)."""
    text = json.dumps(dataclasses.asdict(RunConfig()), indent=2) + "\n"
    atomic_write(path, text.encode("utf-8"))
