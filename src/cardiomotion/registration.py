"""Pairwise diffeomorphic registration by geodesic shooting.

The registration energy of an initial velocity v0 for a source/target
image pair is

    E(v0) = Dist / (2 sigma^2) + <L v0, v0>,
    Dist  = sum of squared differences between source warped by the
            endpoint inverse map and the target,

where the endpoint map comes from Euler EPDiff integration of v0.  The
energy graph calls the shooting functions of ``geodesic`` with recording
on: EPDiff integration and the inverse flow are one node each, whose
hand-derived adjoints make the reverse-mode gradient the exact
derivative of the discrete objective (discretize-then-optimize), and
``shoot`` computes the same values.  The whole graph is 16 nodes at any
number of steps.  The momentum L v0 of the regulariser is the one EPDiff
starts from, so the energy multiplies by L once and by K once per Euler
step, and its gradient as often again.  v0 is a (2, H, W) Tensor, or
(T, 2, H, W) for T pairs, with the (x, y) components on axis -3.  The
two shooting nodes shoot T pairs as one chunk of pairs per CPU in the
process's affinity mask, each on its own thread, with bit-identical
output at any CPU count; a single pair (``register_pair``, ``energy``,
``energy_gradient``) runs inline.  The graph computes in the dtype of
v0: registration-net training passes the decoder's float32 output, so
its energy and gradients are float32, while the single-pair functions
take float64 fields and stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .geodesic import (GeodesicPath, ShootingConfig, integrate_epdiff, integrate_inverse_flow,
                       shoot)
from .grid import FieldSequence, Grid2, ScalarField, VectorField
from .nn.fieldops import bilinear_warp, spectral_multiply
from .nn.params import ParameterStore, adam_step, check_learning_rate
from .nn.tensor import (Tensor, _as_tensor, _keep_heap_mapped, add, constant, mul, smul, sub,
                        sum_all, take_index)


# the x and y coordinates of a (..., 2, H, W) map, as (..., H, W) fields
_X, _Y = np.s_[..., 0, :, :], np.s_[..., 1, :, :]


@dataclass
class RegistrationConfig:
    shooting: ShootingConfig
    sigma: float = 0.03
    learning_rate: float = 1e-4
    max_iterations: int = 500
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        check_learning_rate("learning_rate", self.learning_rate)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


@dataclass
class RegistrationResult:
    v0: VectorField
    path: GeodesicPath
    energy_trace: list


def _energy_terms(shooting: ShootingConfig, sigma: float, v0: Tensor,
                  source_values: np.ndarray, target_values: np.ndarray):
    """Build the energy graph; returns (total, dist, reg) tensors.

    v0 is (2, H, W) and the images (H, W) for one pair, or (T, 2, H, W)
    and (T, H, W) for T pairs, whose energies then add up in ``total``.
    """
    m0 = spectral_multiply(shooting.operator, v0)
    reg = sum_all(mul(m0, v0))

    phi = integrate_inverse_flow(shooting, integrate_epdiff(shooting, v0, m0))
    warped = bilinear_warp(constant(source_values), take_index(phi, _X), take_index(phi, _Y))
    diff = sub(warped, constant(target_values))
    dist = sum_all(mul(diff, diff))
    total = add(smul(dist, 0.5 / (sigma * sigma)), reg)
    return total, dist, reg


def _check_pair(cfg: RegistrationConfig, source: ScalarField, target: ScalarField,
                v0: VectorField | None = None) -> Grid2:
    """The registration grid, after checking that the images and v0 (if given) lie on it."""
    grid = cfg.shooting.operator.grid
    if source.grid != grid or target.grid != grid:
        raise ValueError("source/target grids do not match the registration operator")
    if v0 is not None and v0.grid != grid:
        raise ValueError("v0 grid does not match the registration operator")
    return grid


def energy(cfg: RegistrationConfig, v0: VectorField, source: ScalarField,
           target: ScalarField) -> tuple[float, float, float]:
    """(total, dist, reg) of the registration energy at v0."""
    _check_pair(cfg, source, target, v0)
    total, dist, reg = _energy_terms(cfg.shooting, cfg.sigma, constant(v0.values),
                                     source.values, target.values)
    return total.item(), dist.item(), reg.item()


def energy_gradient(cfg: RegistrationConfig, v0: VectorField, source: ScalarField,
                    target: ScalarField) -> VectorField:
    """Exact gradient of the discrete energy with respect to v0."""
    _check_pair(cfg, source, target, v0)
    v = Tensor(v0.values, requires_grad=True)
    total, _, _ = _energy_terms(cfg.shooting, cfg.sigma, v, source.values, target.values)
    total.backward()
    if not np.all(np.isfinite(v.grad)):
        raise IntegrationDivergedError(cfg.shooting.num_steps, "energy gradient")
    return VectorField(v0.grid, *v.grad)


def register_pair(cfg: RegistrationConfig, source: ScalarField,
                  target: ScalarField) -> RegistrationResult:
    """Minimize the energy over v0 (Adam, zero initialization).

    Stops at max_iterations or when the relative energy decrease between
    consecutive iterations falls below convergence_tol (increases do not
    trigger the stop; the optimizer is allowed to recover from them).
    Each iteration's energy graph is freed before the next one is built.
    """
    grid = _check_pair(cfg, source, target)
    store = ParameterStore()
    v = store.add("v0", np.zeros((2,) + grid.shape))

    _keep_heap_mapped()
    trace: list[float] = []
    for it in range(cfg.max_iterations + 1):
        total = _energy_terms(cfg.shooting, cfg.sigma, v, source.values, target.values)[0]
        e = total.item()
        if not np.isfinite(e):
            raise IntegrationDivergedError(it, "registration energy")
        trace.append(e)
        if it == cfg.max_iterations:
            break
        if it > 0 and 0.0 <= trace[-2] - e < cfg.convergence_tol * max(abs(trace[-2]), 1e-30):
            break
        total.backward()
        adam_step(store, cfg.learning_rate)
        del total

    v0 = VectorField(grid, *v.values)
    return RegistrationResult(
        v0=v0,
        path=shoot(cfg.shooting, v0),
        energy_trace=trace,
    )


def pair_stack(seq: FieldSequence) -> np.ndarray:
    """The (frame 0, frame tau) pairs, tau = 1..T, as one (T, 2, H, W) network input."""
    frames = seq.values
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to build pairs, got 1")
    return np.stack(np.broadcast_arrays(frames[:1], frames[1:]), axis=1)


def registration_network_loss(cfg: RegistrationConfig, v0_batch, pair_batch: np.ndarray) -> Tensor:
    """Mean per-pair energy over a batch; a scalar graph node.

    All pairs share one energy graph over (T, 2, H, W) stacks, whose
    total is the sum of the per-pair energies.

    v0_batch: (T, 2, H, W) tensor (typically a decoder output, so the
    loss is differentiable with respect to the network parameters).
    pair_batch: matching (T, 2, H, W) array, channel 0 = source, 1 = target.
    The loss is computed in v0's dtype (float32 or float64), and the
    images are cast to it.
    """
    v0_t = _as_tensor(v0_batch)
    # in v0's dtype: a float64 image would promote a float32 graph to float64
    pairs = np.asarray(pair_batch, dtype=v0_t.values.dtype)
    if v0_t.values.shape != pairs.shape:
        raise ValueError(
            f"velocity batch shape {v0_t.values.shape} does not match pair batch {pairs.shape}"
        )
    grid = cfg.shooting.operator.grid
    if pairs.shape[2:] != grid.shape:
        raise ValueError("pair batch grid does not match the registration operator")
    total, _, _ = _energy_terms(cfg.shooting, cfg.sigma, v0_t, pairs[:, 0], pairs[:, 1])
    return smul(total, 1.0 / pairs.shape[0])


def train_registration_network(net, sequences, cfg: RegistrationConfig, *, epochs: int,
                               learning_rate: float | None = None, seed: int = 0) -> list[float]:
    """Amortized registration: fit the encoder/decoder to minimize mean energy.

    sequences: list of (T, 2, H, W) pair stacks.  Returns the per-epoch
    mean training loss.  The energy takes the decoder's float32 output
    as is, so a step runs in float32 up to the float64 master parameters.
    Each step's graph is freed before the next one is built.
    """
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    rng = np.random.default_rng(seed)
    _keep_heap_mapped()
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(sequences))
        total = 0.0
        for position, idx in enumerate(order):
            pairs = sequences[idx]
            loss = registration_network_loss(cfg, net.decode(*net.encode(pairs)), pairs)
            value = loss.item()
            if not np.isfinite(value):
                raise IntegrationDivergedError(epoch * len(sequences) + position,
                                               "registration network training")
            loss.backward()
            adam_step(net.store, lr)
            del loss
            total += value
        history.append(total / len(sequences))
    return history
