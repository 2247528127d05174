"""Pairwise diffeomorphic registration by geodesic shooting.

The registration energy of an initial velocity v0 for a source/target
image pair is

    E(v0) = Dist / (2 sigma^2) + <L v0, v0>,
    Dist  = sum of squared differences between source warped by the
            endpoint inverse map and the target,

where the endpoint map comes from Euler EPDiff integration of v0.  The
energy is evaluated as a computation graph over the same kernels the
plain integrators use, so its reverse-mode gradient is the exact
derivative of the discrete objective (discretize-then-optimize), and
plain and differentiable evaluations agree to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, IntegrationDivergedError
from .geodesic import GeodesicPath, ShootingConfig, shoot
from .grid import FieldSequence, ScalarField, VectorField, coordinate_arrays
from .metric import MetricOperator
from .nn.fieldops import bilinear_warp, fd_dx, fd_dy, spectral_multiply
from .nn.params import ParameterStore, adam_step
from .nn.tensor import Tensor, add, constant, mul, neg, no_grad, smul, sub, sum_all, take_index


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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


@dataclass
class RegistrationResult:
    v0: VectorField
    path: GeodesicPath
    energy_trace: list
    warped_source: ScalarField


def _epdiff_rhs_graph(op: MetricOperator, vx: Tensor, vy: Tensor) -> tuple[Tensor, Tensor]:
    mx = spectral_multiply(op, vx)
    my = spectral_multiply(op, vy)
    dvx_dx, dvx_dy = fd_dx(vx), fd_dy(vx)
    dvy_dx, dvy_dy = fd_dx(vy), fd_dy(vy)
    ax = add(mul(dvx_dx, mx), mul(dvy_dx, my))
    ay = add(mul(dvx_dy, mx), mul(dvy_dy, my))
    bx = add(mul(fd_dx(mx), vx), mul(fd_dy(mx), vy))
    by = add(mul(fd_dx(my), vx), mul(fd_dy(my), vy))
    div = add(dvx_dx, dvy_dy)
    cx = mul(mx, div)
    cy = mul(my, div)
    rx = neg(spectral_multiply(op, add(add(ax, bx), cx), inverse=True))
    ry = neg(spectral_multiply(op, add(add(ay, by), cy), inverse=True))
    return rx, ry


def _energy_terms(shooting: ShootingConfig, sigma: float, v0x: Tensor, v0y: Tensor,
                  source_values: np.ndarray, target_values: np.ndarray):
    """Build the energy graph; returns (total, dist, reg, warped) tensors.

    The velocity components and images are (H, W) for one pair, or
    (T, H, W) for T pairs, whose energies then add up in ``total``.
    """
    op = shooting.operator
    n = shooting.num_steps
    dt = 1.0 / n

    lx = spectral_multiply(op, v0x)
    ly = spectral_multiply(op, v0y)
    reg = add(sum_all(mul(lx, v0x)), sum_all(mul(ly, v0y)))

    vx, vy = v0x, v0y
    velocities = [(vx, vy)]
    for k in range(n - 1):
        rx, ry = _epdiff_rhs_graph(op, vx, vy)
        vx = add(vx, smul(rx, dt))
        vy = add(vy, smul(ry, dt))
        if not (np.all(np.isfinite(vx.values)) and np.all(np.isfinite(vy.values))):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        velocities.append((vx, vy))

    xs, ys = coordinate_arrays(op.grid)
    xs_c = constant(np.broadcast_to(xs, v0x.shape))
    ys_c = constant(np.broadcast_to(ys, v0y.shape))
    px, py = xs_c, ys_c
    for wx, wy in velocities:
        qx = sub(xs_c, smul(wx, dt))
        qy = sub(ys_c, smul(wy, dt))
        px = bilinear_warp(px, qx, qy)
        py = bilinear_warp(py, qx, qy)

    warped = bilinear_warp(constant(source_values), px, py)
    diff = sub(warped, constant(target_values))
    dist = sum_all(mul(diff, diff))
    total = add(smul(dist, 0.5 / (sigma * sigma)), reg)
    return total, dist, reg, warped


def _check_pair(cfg: RegistrationConfig, source: ScalarField, target: ScalarField) -> None:
    grid = cfg.shooting.operator.grid
    if source.grid != grid or target.grid != grid:
        raise GridMismatchError("source/target grids do not match the registration operator")


def energy(cfg: RegistrationConfig, v0: VectorField, source: ScalarField,
           target: ScalarField) -> tuple[float, float, float]:
    """(total, dist, reg) of the registration energy at v0."""
    _check_pair(cfg, source, target)
    if v0.grid != cfg.shooting.operator.grid:
        raise GridMismatchError("v0 grid does not match the registration operator")
    with no_grad():
        total, dist, reg, _ = _energy_terms(
            cfg.shooting, cfg.sigma, constant(v0.x_component), constant(v0.y_component),
            source.values, target.values,
        )
    return total.item(), dist.item(), reg.item()


def energy_gradient(cfg: RegistrationConfig, v0: VectorField, source: ScalarField,
                    target: ScalarField) -> VectorField:
    """Exact gradient of the discrete energy with respect to v0."""
    _check_pair(cfg, source, target)
    grid = cfg.shooting.operator.grid
    if v0.grid != grid:
        raise GridMismatchError("v0 grid does not match the registration operator")
    vx = Tensor(v0.x_component.copy(), requires_grad=True)
    vy = Tensor(v0.y_component.copy(), requires_grad=True)
    total, _, _, _ = _energy_terms(cfg.shooting, cfg.sigma, vx, vy, source.values, target.values)
    total.backward()
    gx = vx.grad if vx.grad is not None else np.zeros(grid.shape)
    gy = vy.grad if vy.grad is not None else np.zeros(grid.shape)
    if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gy))):
        raise IntegrationDivergedError(cfg.shooting.num_steps, "energy gradient")
    return VectorField(grid, gx, gy)


def register_pair(cfg: RegistrationConfig, source: ScalarField,
                  target: ScalarField) -> RegistrationResult:
    """Minimize the energy over v0 (Adam, zero initialization).

    Stops at max_iterations or when the relative energy decrease between
    consecutive iterations falls below convergence_tol (increases do not
    trigger the stop; the optimizer is allowed to recover from them).
    """
    _check_pair(cfg, source, target)
    grid = cfg.shooting.operator.grid
    store = ParameterStore()
    vx = store.add("v0.x", np.zeros(grid.shape))
    vy = store.add("v0.y", np.zeros(grid.shape))

    trace: list[float] = []
    prev = None
    warped_values = source.values
    for it in range(cfg.max_iterations):
        total, _, _, warped = _energy_terms(
            cfg.shooting, cfg.sigma, vx, vy, source.values, target.values
        )
        e = total.item()
        if not np.isfinite(e):
            raise IntegrationDivergedError(it, "registration energy")
        trace.append(e)
        warped_values = warped.values
        if prev is not None:
            decrease = prev - e
            if 0.0 <= decrease < cfg.convergence_tol * max(abs(prev), 1e-30):
                break
        prev = e
        total.backward()
        adam_step(store, cfg.learning_rate)
    else:
        with no_grad():
            total, _, _, warped = _energy_terms(
                cfg.shooting, cfg.sigma, constant(vx.values), constant(vy.values),
                source.values, target.values,
            )
        e = total.item()
        if not np.isfinite(e):
            raise IntegrationDivergedError(cfg.max_iterations, "registration energy")
        trace.append(e)
        warped_values = warped.values

    v0 = VectorField(grid, vx.values.copy(), vy.values.copy())
    return RegistrationResult(
        v0=v0,
        path=shoot(cfg.shooting, v0),
        energy_trace=trace,
        warped_source=ScalarField(grid, warped_values),
    )


def build_pairs(seq: FieldSequence) -> list[tuple[ScalarField, ScalarField]]:
    """All (frame 0, frame tau) pairs of a sequence, tau = 1..T."""
    frames = seq.frames
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames to build pairs, got {len(frames)}")
    return [(frames[0], frames[t]) for t in range(1, len(frames))]


def pair_stack(seq: FieldSequence) -> np.ndarray:
    """Pairs of build_pairs as one (T, 2, H, W) array (network input layout)."""
    pairs = build_pairs(seq)
    return np.stack([np.stack([s.values, t.values]) for s, t in pairs])


def registration_network_loss(cfg: RegistrationConfig, v0_batch, pair_batch) -> Tensor:
    """Mean per-pair energy over a batch; a scalar graph node.

    All pairs share one energy graph over (T, H, W) arrays, whose total
    is the sum of the per-pair energies.

    v0_batch: (T, 2, H, W) tensor (typically a decoder output, so the
    loss is differentiable with respect to the network parameters).
    pair_batch: matching (T, 2, H, W) array, channel 0 = source, 1 = target.
    """
    v0_t = v0_batch if isinstance(v0_batch, Tensor) else constant(np.asarray(v0_batch, dtype=np.float64))
    if isinstance(pair_batch, np.ndarray):
        pairs = pair_batch.astype(np.float64, copy=False)
    else:
        pairs = np.stack([np.stack([s.values, t.values]) for s, t in pair_batch])
    if v0_t.values.shape != pairs.shape:
        raise ValueError(
            f"velocity batch shape {v0_t.values.shape} does not match pair batch {pairs.shape}"
        )
    grid = cfg.shooting.operator.grid
    if pairs.shape[2:] != grid.shape:
        raise GridMismatchError("pair batch grid does not match the registration operator")
    vx = take_index(v0_t, (slice(None), 0))
    vy = take_index(v0_t, (slice(None), 1))
    total, _, _, _ = _energy_terms(cfg.shooting, cfg.sigma, vx, vy, pairs[:, 0], pairs[:, 1])
    return smul(total, 1.0 / pairs.shape[0])


def train_registration_network(net, sequences, cfg: RegistrationConfig, *, epochs: int,
                               learning_rate: float | None = None, weight_decay: float = 0.0,
                               seed: int = 0, log=None) -> list[float]:
    """Amortized registration: fit the encoder/decoder to minimize mean energy.

    sequences: list of (T, 2, H, W) pair stacks.  Returns the per-epoch
    mean training loss.  ``log``, when given, is called with
    (epoch, mean_loss) after each epoch.
    """
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    rng = np.random.default_rng(seed)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(sequences))
        total = 0.0
        for idx in order:
            pairs = sequences[idx]
            loss = registration_network_loss(cfg, net.forward(pairs), pairs)
            value = loss.item()
            if not np.isfinite(value):
                raise IntegrationDivergedError(epoch, "registration network training")
            loss.backward()
            adam_step(net.store, lr, weight_decay)
            total += value
        history.append(total / len(sequences))
        if log is not None:
            log(epoch, history[-1])
    return history
