"""Latent motion diffusion: schedules, forward/reverse processes, training.

The forward process perturbs latent motion features with spatially
smoothed Gaussian noise,

    step:    z^(m) = sqrt(1 - beta_m) z^(m-1) + sqrt(beta_m) K(eps)
    closed:  z^(m) = sqrt(abar_m) z^(0) + sqrt(1 - abar_m) K(eps)

with abar_m the running product of alpha_m = 1 - beta_m and K the
separable Gaussian smoothing of the metric module.  The reverse process
subtracts the predicted smoothed noise and re-injects a smoothed draw,

    z^(m-1) = (z^(m) - (1 - alpha_m)/sqrt(1 - abar_m) * eps_hat) / sqrt(alpha_m)
              + sigma_m K(gamma),     sigma_m = sqrt(beta_m),

with no injection at the final step m = 1.  Inference starts the chain
from the noised encoder output, not from pure noise, so the refinement
stays anchored to the registration estimate.

Regularization of the network parameters (the lambda weights) is
realized as decoupled weight decay inside the optimizer; the loss
functions here return data terms only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationDivergedError
from .grid import FieldSequence
from .metric import SmoothingKernel, smooth_noise
from .nn.networks import MotionDecoder, NoisePredictor, RegistrationNet, encoder_forward
from .nn.params import adam_step
from .nn.tensor import Tensor, _keep_heap_mapped, add, no_grad, smul, squared_error_sum
from .registration import pair_stack


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances and their running products, 1-indexed by step."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    @property
    def num_steps(self) -> int:
        return len(self.beta)

    def check_step(self, m: int) -> None:
        if not 1 <= m <= self.num_steps:
            raise ValueError(f"diffusion step {m} out of range 1..{self.num_steps}")


MAX_STEPS = 10_000  # a configuration builds its schedule whole when it loads


def make_schedule(num_steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear variance schedule; num_steps = 0 yields the degenerate no-op chain."""
    if not 0 <= num_steps <= MAX_STEPS:
        raise ValueError(f"num_steps must be in [0, {MAX_STEPS}], got {num_steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got [{beta_start}, {beta_end}]")
    if num_steps >= 2 and beta_start == beta_end:
        raise ValueError("beta_start must be < beta_end for a strictly increasing schedule")
    beta = np.linspace(beta_start, beta_end, num_steps)
    alpha = 1.0 - beta
    return NoiseSchedule(
        beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha), sigma=np.sqrt(beta)
    )


@dataclass
class DiffusionConfig:
    schedule: NoiseSchedule
    kernel: SmoothingKernel
    loss_alpha: float = 1e-2
    lambda_eps: float = 1e-4
    lambda_m: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 2000

    def __post_init__(self):
        if self.loss_alpha < 0:
            raise ValueError("loss_alpha must be nonnegative")
        if self.lambda_eps < 0 or self.lambda_m < 0:
            raise ValueError("weight decays must be nonnegative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive integers")


def _noise(schedule: NoiseSchedule, z: Tensor, m: int, eps) -> np.ndarray:
    """``eps`` as a float array, after checking step ``m`` and that eps matches ``z``."""
    schedule.check_step(m)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != z.values.shape:
        raise ValueError(f"noise shape {eps.shape} does not match latents {z.values.shape}")
    return eps


def forward_step(schedule: NoiseSchedule, kernel: SmoothingKernel, z_prev: Tensor,
                 m: int, eps: np.ndarray) -> Tensor:
    """One forward noising step z^(m-1) -> z^(m)."""
    eps = _noise(schedule, z_prev, m, eps)
    b = schedule.beta[m - 1]
    return Tensor(np.sqrt(1.0 - b) * z_prev.values + np.sqrt(b) * smooth_noise(kernel, eps))


def forward_sample(schedule: NoiseSchedule, kernel: SmoothingKernel, z0: Tensor,
                   m: int, eps: np.ndarray) -> Tensor:
    """Closed-form jump z^(0) -> z^(m) with a single smoothed draw."""
    eps = _noise(schedule, z0, m, eps)
    ab = schedule.alpha_bar[m - 1]
    return Tensor(np.sqrt(ab) * z0.values + np.sqrt(1.0 - ab) * smooth_noise(kernel, eps))


def reverse_step(schedule: NoiseSchedule, kernel: SmoothingKernel, z_m: Tensor,
                 m: int, model, gamma: np.ndarray) -> Tensor:
    """One denoising step z^(m) -> z^(m-1); no noise injection at m = 1."""
    gamma = _noise(schedule, z_m, m, gamma)
    with no_grad():
        eps_hat = model.forward(z_m.values, m).values
    a = schedule.alpha[m - 1]
    ab = schedule.alpha_bar[m - 1]
    mean = (z_m.values - (1.0 - a) / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(a)
    if m > 1:
        mean = mean + schedule.sigma[m - 1] * smooth_noise(kernel, gamma)
    return Tensor(mean)


def diffusion_loss(latents_batch, model, schedule: NoiseSchedule, kernel: SmoothingKernel,
                   rng: np.random.Generator) -> Tensor:
    """Noise-matching data term, averaged over the batch; a scalar graph node.

    Per item: a uniform step m, one smoothed draw eps' = K(eps), the
    closed-form noisy latents at m, and the squared L2 distance between
    eps' and the model's prediction.  The stacked items take one model call.
    """
    if len(latents_batch) == 0:
        raise ValueError("diffusion_loss requires a nonempty batch")
    if schedule.num_steps < 1:
        raise ValueError("diffusion_loss requires a schedule with at least 1 step")
    z0 = np.stack([z.values for z in latents_batch])
    # each item draws its step, then its noise, so batching does not change the draws
    steps, eps = zip(*[(rng.integers(1, schedule.num_steps + 1), rng.standard_normal(z.shape))
                       for z in z0])
    steps = np.array(steps)
    eps_prime = smooth_noise(kernel, np.stack(eps))
    ab = schedule.alpha_bar[steps - 1].reshape((-1,) + (1,) * (z0.ndim - 1))
    z_m = np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps_prime
    return smul(squared_error_sum(model.forward(z_m, steps), eps_prime), 1.0 / len(z0))


def motion_loss(latents_batch, truth_batch, model) -> Tensor:
    """Mean over sequences, sum over frames, of squared L2 displacement error; one model call."""
    if len(latents_batch) != len(truth_batch):
        raise ValueError(
            f"batch sizes differ: {len(latents_batch)} latents vs {len(truth_batch)} truths"
        )
    if len(latents_batch) == 0:
        raise ValueError("motion_loss requires a nonempty batch")
    truth = np.stack([np.asarray(u, dtype=np.float64) for u in truth_batch])
    pred = model.forward(np.stack([z.values for z in latents_batch]))
    if pred.values.shape != truth.shape:
        raise ValueError(
            f"decoded motion shape {pred.values.shape[1:]} does not match truth {truth.shape[1:]}"
        )
    return smul(squared_error_sum(pred, truth), 1.0 / len(truth))


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = float("inf")


def check_patience(patience: int) -> None:
    """Refuse a negative early-stopping patience (epochs without a better validation total)."""
    if patience < 0:
        raise ValueError(f"patience must be non-negative, got {patience}")


def train(reg_net: RegistrationNet, eps_net: NoisePredictor, mot_net: MotionDecoder,
          train_items, val_items, cfg: DiffusionConfig, *, learning_rate: float = 1e-4,
          patience: int = 50, seed: int = 0) -> TrainResult:
    """Joint training of the noise predictor and motion decoder.

    The registration encoder is frozen: latents are computed once up
    front.  Items are (pair_stack, motion_truth) array tuples.  The
    motion decoder consumes the clean encoder latents during training
    (the reverse chain runs only at inference).  Early stopping tracks
    validation l_total with fixed validation noise; the best parameters
    are restored before returning.  Each batch's graph is freed before the
    next one is built.  An epoch's losses are means over items, so each
    batch's mean counts by its size.  A non-finite batch loss, or
    validation total, raises IntegrationDivergedError naming the zero-based
    optimisation step that produced it.
    """
    if eps_net.store is not mot_net.store:
        raise ValueError("noise predictor and motion decoder must share a parameter store")
    if not train_items:
        raise ValueError("no training items")
    check_patience(patience)
    store = eps_net.store
    train_z = [encoder_forward(reg_net, pairs) for pairs, _ in train_items]
    val_z = [encoder_forward(reg_net, pairs) for pairs, _ in val_items]

    def decay(name: str) -> float:
        return cfg.lambda_eps if name.startswith(eps_net.prefix) else cfg.lambda_m

    def epoch_losses(latents, items, order, rng, learn):
        """Mean diffusion and motion losses over ``order``; with ``learn``, a step per batch."""
        nonlocal steps
        sum_diff = sum_mot = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            z = [latents[i] for i in batch]
            l_diff = diffusion_loss(z, eps_net, cfg.schedule, cfg.kernel, rng)
            l_mot = motion_loss(z, [items[i][1] for i in batch], mot_net)
            if learn:
                total = add(l_diff, smul(l_mot, cfg.loss_alpha))
                if not np.isfinite(total.item()):
                    raise IntegrationDivergedError(steps, "diffusion training")
                total.backward()
                adam_step(store, learning_rate, decay)
                steps += 1
                del total
            sum_diff += len(batch) * l_diff.item()
            sum_mot += len(batch) * l_mot.item()
            del l_diff, l_mot
        return sum_diff / len(order), sum_mot / len(order)

    _keep_heap_mapped()
    result = TrainResult()
    best_params = None
    since_best = steps = 0
    for epoch in range(cfg.max_epochs):
        rng = np.random.default_rng([seed, epoch])
        ep_diff, ep_mot = epoch_losses(train_z, train_items, rng.permutation(len(train_items)),
                                       rng, learn=True)
        ep_total = ep_diff + cfg.loss_alpha * ep_mot
        # fixed validation noise: same seed each epoch, so early stopping
        # compares parameters rather than draws; the items go in order
        if val_z:
            with no_grad():
                v_diff, v_mot = epoch_losses(val_z, val_items, range(len(val_z)),
                                             np.random.default_rng([seed, 0x5EED]), learn=False)
        else:
            v_diff, v_mot = ep_diff, ep_mot
        v_total = v_diff + cfg.loss_alpha * v_mot
        if not np.isfinite(v_total):  # the last step's parameters have diverged
            raise IntegrationDivergedError(steps - 1, "diffusion training")

        result.history.append((epoch, ep_diff, ep_mot, ep_total, v_diff, v_mot, v_total))

        if v_total < result.best_val:
            result.best_val = v_total
            result.best_epoch = epoch
            best_params = {k: p.values.copy() for k, p in store.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best > patience:
                break

    for k, p in store.params.items():  # every epoch's total is finite, so one was best
        p.values = best_params[k]
    return result


def infer(sequence: FieldSequence, reg_net: RegistrationNet, eps_net: NoisePredictor,
          mot_net: MotionDecoder, schedule: NoiseSchedule, kernel: SmoothingKernel,
          rng: np.random.Generator) -> np.ndarray:
    """Refined (T, 2, H, W) displacement stack for one image sequence.

    Encodes the (frame 0, frame tau) pairs, noises the latents to step M
    in closed form, runs the full reverse chain, and decodes dense
    displacements.  With an empty schedule (M = 0) the decoder consumes
    the encoder latents unchanged.
    """
    pairs = pair_stack(sequence)
    z = encoder_forward(reg_net, pairs)
    if schedule.num_steps > 0:
        m_final = schedule.num_steps
        eps = rng.standard_normal(z.values.shape)
        z = forward_sample(schedule, kernel, z, m_final, eps)
        for m in range(m_final, 0, -1):
            gamma = rng.standard_normal(z.values.shape)
            z = reverse_step(schedule, kernel, z, m, eps_net, gamma)
    with no_grad():
        return mot_net.forward(z).values
