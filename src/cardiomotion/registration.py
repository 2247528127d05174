"""Pairwise diffeomorphic registration by geodesic shooting.

The registration energy of an initial velocity v0 for a source/target
image pair is

    E(v0) = Dist / (2 sigma^2) + <L v0, v0>,
    Dist  = sum of squared differences between source warped by the
            endpoint inverse map and the target,

where the endpoint map comes from Euler EPDiff integration of v0.  The
energy graph calls ``geodesic.integrate_geodesic`` with recording on:
EPDiff integration and the inverse flow are one node, whose
hand-derived adjoints make the reverse-mode gradient the exact
derivative of the discrete objective (discretize-then-optimize), and
``shoot`` computes the same values.  The whole graph is 12 nodes at any
number of steps.  The momentum L v0 of the regulariser is the one EPDiff
starts from, so the energy multiplies by L once and by K once per Euler
step, and its gradient as often again.  v0 is a (2, H, W) Tensor, or
(T, 2, H, W) for T pairs, with the (x, y) components on axis -3.  The
graph computes in the dtype of v0: registration-net training passes the
decoder's float32 output, so its energy and gradients are float32, while
the single-pair functions take float64 fields and stay float64.

A step of registration-net training splits its (T, 2, H, W) stack into
groups of ``PAIRS_PER_GROUP`` pairs, a split that depends on T alone.
Each group's forward and backward pass runs on a worker process of a
persistent pool, one worker per CPU in the process's affinity mask,
given the float64 master parameters; the groups' losses and parameter
gradients are summed in group order before the one Adam update, as
synchronous data-parallel training does.  With one CPU, or one group,
the groups run inline, so a step gives the same bytes at any CPU count.

Every energy evaluated outside the pool's workers, a single pair
(``register_pair``, ``energy``, ``energy_gradient``) included, runs its
shooting as two stages on two processes when this process may run on
two CPUs or more: EPDiff here, and the inverse flow one Euler step behind
it on a helper process (``geodesic.FlowHelper``), started on first use
from the pool's forkserver.  On one CPU, and inside the workers, both
stages run inline.  The bytes are the same either way, and only the CPU
count and whether the process is a worker decide.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .geodesic import (FlowHelper, GeodesicPath, ShootingConfig, integrate_forward_flow,
                       integrate_geodesic)
from .grid import FieldSequence, Grid2, MapField, ScalarField, VectorField
from .nn.fieldops import bilinear_warp, spectral_multiply
from .nn.params import ParameterStore, adam_step, check_learning_rate
from .nn.tensor import (Tensor, _as_tensor, _keep_heap_mapped, add, mul, smul, squared_error_sum,
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


def _energy_terms(shooting: ShootingConfig, sigma: float, v0,
                  source_values: np.ndarray, target_values: np.ndarray):
    """Build the energy graph; returns (total, dist, reg, velocities, inverse map).

    v0 (a Tensor or an array) is (2, H, W) and the images (H, W) for one
    pair, or (T, 2, H, W) and (T, H, W) for T pairs, whose energies then
    add up in ``total``.  The first three are tensors; the (N, ..., 2, H, W)
    velocities and the (..., 2, H, W) inverse map of the shooting are
    arrays.  The shooting runs on this process's flow helper, if it has
    one (``_flow_helper``).
    """
    m0 = spectral_multiply(shooting.operator, v0)
    reg = sum_all(mul(m0, v0))

    velocities, phi = integrate_geodesic(shooting, v0, m0, _flow_helper())
    warped = bilinear_warp(source_values, take_index(phi, _X), take_index(phi, _Y))
    dist = squared_error_sum(warped, target_values)
    total = add(smul(dist, 0.5 / (sigma * sigma)), reg)
    return total, dist, reg, velocities, phi.values


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
    total, dist, reg, _, _ = _energy_terms(cfg.shooting, cfg.sigma, v0.values,
                                           source.values, target.values)
    return total.item(), dist.item(), reg.item()


def energy_gradient(cfg: RegistrationConfig, v0: VectorField, source: ScalarField,
                    target: ScalarField) -> VectorField:
    """Exact gradient of the discrete energy with respect to v0."""
    _check_pair(cfg, source, target, v0)
    v = Tensor(v0.values, requires_grad=True)
    total = _energy_terms(cfg.shooting, cfg.sigma, v, source.values, target.values)[0]
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
    The last evaluation was at the final v0, so the path takes its
    velocities and inverse map, and integrates only the forward map: the
    same bits as ``shoot`` at v0.
    """
    grid = _check_pair(cfg, source, target)
    store = ParameterStore()
    v = store.add("v0", np.zeros((2,) + grid.shape))

    _keep_heap_mapped()
    trace: list[float] = []
    for it in range(cfg.max_iterations + 1):
        total, _, _, velocities, inverse = _energy_terms(cfg.shooting, cfg.sigma, v,
                                                         source.values, target.values)
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
        del total, velocities, inverse

    path = GeodesicPath(velocities, MapField(grid, *inverse),
                        MapField(grid, *integrate_forward_flow(cfg.shooting, velocities)))
    return RegistrationResult(v0=VectorField(grid, *v.values), path=path, energy_trace=trace)


def pair_stack(seq: FieldSequence) -> np.ndarray:
    """The (frame 0, frame tau) pairs, tau = 1..T, as one (T, 2, H, W) network input."""
    frames = seq.values
    if len(frames) < 2:
        raise ValueError("need at least 2 frames to build pairs, got 1")
    return np.stack(np.broadcast_arrays(frames[:1], frames[1:]), axis=1)


def registration_network_loss(cfg: RegistrationConfig, v0_batch, pair_batch: np.ndarray,
                              mean_over: int | None = None) -> Tensor:
    """Mean per-pair energy over a batch; a scalar graph node.

    All pairs share one energy graph over (T, 2, H, W) stacks, whose
    total is the sum of the per-pair energies, divided by ``mean_over``:
    T by default; a group of a stack's pairs passes the stack's T, so that
    the groups' losses add up to the stack's.

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
    total = _energy_terms(cfg.shooting, cfg.sigma, v0_t, pairs[:, 0], pairs[:, 1])[0]
    return smul(total, 1.0 / (pairs.shape[0] if mean_over is None else mean_over))


# A training step splits its stack into groups of this many pairs, the last
# one possibly smaller.  At T=8 on two CPUs, 4 pairs per group beat 1 and 2
# (NumPy's per-call overhead grows as a group shrinks) and 8 (one group).
PAIRS_PER_GROUP = 4


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _forkserver():
    """The context of the pool's workers and of the flow helper.

    They come from a forkserver, which imports this module once: forking
    the calling process is unsafe while its BLAS runs threads.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    return context


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (workers, pool), started on first use
_in_pool = False  # whether this process is one of the pool's workers


def _start_worker() -> None:
    global _in_pool
    _in_pool = True
    _keep_heap_mapped()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The module's pool of ``workers`` processes; a pool of another size is shut down first.

    Each worker keeps its heap mapped, as the training loop does.
    """
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = workers, ProcessPoolExecutor(workers, mp_context=_forkserver(),
                                             initializer=_start_worker)
    return _pool[1]


_helper: FlowHelper | None = None  # this process's flow helper, started on first use


def _flow_helper() -> FlowHelper | None:
    """The helper process on which this process's energy runs its inverse flow.

    None where the energy shoots inline: on one CPU, and in the pool's
    workers, where the CPUs are already taken.  A helper that an exception
    closed is replaced by a fresh one.
    """
    global _helper
    if _in_pool or _cpu_count() == 1:
        return None
    if _helper is None or _helper.closed:
        _helper = FlowHelper.start(_forkserver())
    return _helper


def _group_gradients(cfg: RegistrationConfig, net, group: np.ndarray,
                     pair_count: int) -> tuple[float, dict | None]:
    """(loss, {parameter name: gradient}) of one group of a stack of ``pair_count`` pairs.

    The gradients are taken from ``net``'s store, which is left without
    any; a non-finite loss has none.
    """
    loss = registration_network_loss(cfg, net.decode(net.encode(group)), group, pair_count)
    value = loss.item()
    if not np.isfinite(value):
        return value, None
    loss.backward()
    grads = {}
    for name, p in net.store.params.items():
        grads[name], p.grad = p.grad, None
    return value, grads


_worker_nets: dict = {}  # in a worker: a net per (class, config), whose values each task sets


def _worker_group_gradients(cfg: RegistrationConfig, net_key: tuple, params: dict,
                            group: np.ndarray, pair_count: int, errstate: dict):
    """``_group_gradients`` on a worker, at the given master parameters and NumPy errstate."""
    net = _worker_nets.get(net_key)
    if net is None:
        net_class, config = net_key
        net = _worker_nets[net_key] = net_class(config, seed=None)
    for name, p in net.store.params.items():
        p.values = params[name]
    with np.errstate(**errstate):
        return _group_gradients(cfg, net, group, pair_count)


def _step_gradients(cfg: RegistrationConfig, net, pairs: np.ndarray) -> float:
    """The loss of one training step on a (T, 2, H, W) stack, with its gradients in ``net``.

    The stack's groups of ``PAIRS_PER_GROUP`` pairs run on the pool, one
    worker per CPU in the process's affinity mask, each with a copy of the
    master parameters; with one CPU or one group they run inline.  The
    groups' losses and gradients are summed in group order either way, so
    a step gives the same bytes at any CPU count.  Every group runs to the
    end; if some diverged, the error of the earliest step is raised, and
    a non-finite loss leaves no gradient.
    """
    groups = [pairs[i:i + PAIRS_PER_GROUP] for i in range(0, len(pairs), PAIRS_PER_GROUP)]
    workers = _cpu_count()
    if workers == 1 or len(groups) == 1:
        outcomes = []
        for group in groups:
            try:
                outcomes.append(_group_gradients(cfg, net, group, len(pairs)))
            except IntegrationDivergedError as e:
                outcomes.append(e)
    else:
        pool = _worker_pool(workers)
        params = {name: p.values for name, p in net.store.params.items()}
        futures = [pool.submit(_worker_group_gradients, cfg, (type(net), net.config), params,
                               group, len(pairs), np.geterr()) for group in groups]
        outcomes = [f.exception() or f.result() for f in futures]
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    for e in errors:
        if not isinstance(e, IntegrationDivergedError):
            raise e
    if errors:
        raise min(errors, key=lambda e: e.step)
    value = sum(loss for loss, _ in outcomes)
    if np.isfinite(value):
        for name, p in net.store.params.items():
            p.grad = functools.reduce(np.add, [grads[name] for _, grads in outcomes])
    return value


def train_registration_network(net, sequences, cfg: RegistrationConfig, *, epochs: int,
                               learning_rate: float | None = None, seed: int = 0) -> list[float]:
    """Amortized registration: fit the encoder/decoder to minimize mean energy.

    sequences: list of (T, 2, H, W) pair stacks.  Returns the per-epoch
    mean training loss.  The energy takes the decoder's float32 output
    as is, so a step runs in float32 up to the float64 master parameters.
    Each step's pairs run in groups (``_step_gradients``), whose summed
    gradients make one Adam update; each group's graph is freed before
    the next step.
    """
    if not sequences:
        raise ValueError("no training sequences")
    lr = cfg.learning_rate if learning_rate is None else learning_rate
    rng = np.random.default_rng(seed)
    _keep_heap_mapped()
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(sequences))
        total = 0.0
        for position, idx in enumerate(order):
            value = _step_gradients(cfg, net, sequences[idx])
            if not np.isfinite(value):
                raise IntegrationDivergedError(epoch * len(sequences) + position,
                                               "registration network training")
            adam_step(net.store, lr)
            total += value
        history.append(total / len(sequences))
    return history
