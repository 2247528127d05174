"""Acceptance suite: eight pinned criteria, one pass/fail line each.

Every test freezes its full configuration (grids, operators, seeds,
optimizer settings) so a pass is reproducible bit for bit.  Tolerances are
stated next to each assertion; measured margins at the pinned seeds are
noted where they are much tighter than the bound.
"""

import json
import os
import time

import numpy as np
import pytest

from helpers import (RUN_CFG, clamped_convolution, directional_probe_check, force_node,
                     keep_away_from, keep_off_lattice, metric_norm)

from cardiomotion.cli import main as cli_main
from cardiomotion.container import read_container, write_container
from cardiomotion.diffusion import (DiffusionConfig, make_schedule, forward_sample, forward_step,
                                    reverse_step, train as train_diffusion, infer as infer_motion)
from cardiomotion.errors import ContainerFormatError
from cardiomotion.geodesic import (ShootingConfig, integrate_epdiff, integrate_inverse_flow,
                                   shoot)
from cardiomotion.grid import (Grid2, ScalarField, VectorField, coordinate_arrays,
                               jacobian_determinant, map_to_displacement)
from cardiomotion.metric import MetricOperator, SmoothingKernel, smooth_noise
from cardiomotion.nn.fieldops import bilinear_warp, fd_dx, fd_dy, spectral_multiply
from cardiomotion.nn.networks import MotionDecoder, NoisePredictor, RegistrationNet, UNetConfig
from cardiomotion.nn.params import ParameterStore
from cardiomotion.nn.tensor import (Tensor, add, avgpool2, concat_channels, conv2d, linear,
                                    mul, nearest_upsample2, no_grad, relu, reshape, scale_shift,
                                    smul, squared_error_sum, sum_all, take_index,
                                    upsample_conv2d)
from cardiomotion.phantom import (DatasetRanges, PhantomConfig, generate, make_dataset,
                                  time_profile)
from cardiomotion.registration import (RegistrationConfig, energy, energy_gradient, pair_stack,
                                       register_pair, train_registration_network)
from cardiomotion.strain import (Mask, deformation_gradient, epe, green_lagrange, segment_mask,
                                 segmental_strain, segmental_strain_error,
                                 strain_from_displacement)


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------


def _off_lattice_velocity(cfg, rng, margin=0.01):
    """A smooth v0 whose shooting keeps every bilinear sample off the lattice lines.

    v0 is a drift of half a pixel per unit time, which keeps every sample point
    away from the pixel it starts from, plus K-smoothed noise, which is
    periodic like the metric, so the geodesic stays as tame as v0.  It is
    redrawn until each inverse-flow sample point x - dt v_k and each final warp
    coordinate lies at least ``margin`` from an integer, where clamped bilinear
    interpolation has its kinks; an eps 1e-5 probe step moved them by at most
    1.6e-3 over 30 draws.  A final coordinate exactly on the domain's edge was
    clamped there and stays there, and is not checked.
    """
    op, n = cfg.shooting.operator, cfg.shooting.num_steps
    ident = np.stack(coordinate_arrays(op.grid))
    edge = np.array([op.grid.width - 1.0, op.grid.height - 1.0])[:, None, None]
    while True:
        noise = op.multiply(rng.standard_normal(ident.shape), inverse=True)
        v = 0.5 + 0.3 * noise / np.max(np.abs(noise))
        velocities = integrate_epdiff(cfg.shooting, v, op.multiply(v))
        phi = integrate_inverse_flow(cfg.shooting, velocities).values
        coords = np.concatenate([(ident - velocities.values / n).ravel(),
                                 phi[(phi > 0.0) & (phi < edge)]])
        if np.min(np.abs(coords - np.round(coords))) >= margin:
            return VectorField(op.grid, *v)


def _full_energy_probe(cfg, src, tgt, rng, tol, probes=8, eps=1e-5):
    """The worst relative mismatch between the registration energy's gradient and
    central differences along ``probes`` random directions, at an off-lattice v0."""
    grid = src.grid
    v0 = _off_lattice_velocity(cfg, rng)
    g = energy_gradient(cfg, v0, src, tgt)
    worst = 0.0
    for _ in range(probes):
        dx, dy = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        analytic = float(np.sum(g.x_component * dx) + np.sum(g.y_component * dy))
        plus = energy(cfg, VectorField(grid, v0.x_component + eps * dx,
                                       v0.y_component + eps * dy), src, tgt)[0]
        minus = energy(cfg, VectorField(grid, v0.x_component - eps * dx,
                                        v0.y_component - eps * dy), src, tgt)[0]
        fd = (plus - minus) / (2.0 * eps)
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
        worst = max(worst, rel)
        assert rel < tol
    return worst


def test_criterion_1_gradient_fidelity():
    """Every autodiff primitive and the full registration gradient match
    central finite differences with relative error < 1e-3 (16x16 fields,
    8 random probes each)."""
    t0 = time.monotonic()
    tol = 1e-3
    rng = np.random.default_rng(101)
    h = w = 16
    grid = Grid2(h, w)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)

    f2 = rng.standard_normal((h, w))
    g2 = rng.standard_normal((h, w))
    stack = rng.standard_normal((3, h, w))
    x4 = rng.standard_normal((2, 3, h, w))
    k4 = rng.standard_normal((4, 3, 3, 3)) * 0.3
    b1 = rng.standard_normal(4)
    xs = rng.standard_normal((3, 5))
    ws = rng.standard_normal((5, 4))
    bs = rng.standard_normal(4)
    ss = rng.standard_normal((2, 3))
    warp_vals = rng.standard_normal((h, w))
    mx = keep_off_lattice(rng.uniform(1.3, w - 2.3, size=(h, w)))
    my = keep_off_lattice(rng.uniform(1.3, h - 2.3, size=(h, w)))

    cases = [
        ("add", lambda ts: sum_all(mul(add(ts[0], ts[1]), ts[0])), [f2, g2]),
        ("subtract", lambda ts: sum_all(mul(add(ts[0], smul(ts[1], -1.0)), ts[1])), [f2, g2]),
        ("mul", lambda ts: sum_all(mul(ts[0], ts[1])), [f2, g2]),
        ("smul", lambda ts: sum_all(smul(mul(ts[0], ts[0]), 1.7)), [f2]),
        ("sum_all", lambda ts: mul(sum_all(ts[0]), sum_all(ts[0])), [f2]),
        ("add3", lambda ts: sum_all(mul(add(add(*ts[:2]), ts[2]), ts[0])), [f2, g2, f2 * 0.5]),
        ("relu", lambda ts: sum_all(mul(relu(ts[0]), ts[1])),
         [keep_away_from(f2, 0.0), g2]),
        ("reshape", lambda ts: sum_all(mul(reshape(ts[0], (h * w,)),
                                           reshape(ts[1], (h * w,)))), [f2, g2]),
        ("take_index", lambda ts: sum_all(mul(take_index(ts[0], 1), take_index(ts[0], 1))),
         [stack]),
        ("concat_channels", lambda ts: sum_all(mul(concat_channels(ts), concat_channels(ts))),
         [x4, rng.standard_normal((2, 2, h, w))]),
        ("conv2d", lambda ts: sum_all(mul(conv2d(*ts), conv2d(*ts))), [x4, k4, b1]),
        ("avgpool2", lambda ts: sum_all(mul(avgpool2(ts[0]), avgpool2(ts[0]))), [x4]),
        ("nearest_upsample2",
         lambda ts: sum_all(mul(nearest_upsample2(ts[0]), nearest_upsample2(ts[0]))),
         [rng.standard_normal((2, 3, h // 2, w // 2))]),
        ("linear", lambda ts: sum_all(mul(linear(*ts), linear(*ts))), [xs, ws, bs]),
        ("scale_shift", lambda ts: sum_all(mul(scale_shift(*ts), scale_shift(*ts))),
         [rng.standard_normal((2, 3, h, w)), ss, ss[::-1].copy()]),
        ("spectral_multiply_L", lambda ts: sum_all(mul(spectral_multiply(op, ts[0]), ts[0])),
         [f2]),
        ("fd_dx", lambda ts: sum_all(mul(fd_dx(ts[0]), ts[0])), [f2]),
        ("fd_dy", lambda ts: sum_all(mul(fd_dy(ts[0]), ts[0])), [f2]),
        ("bilinear_warp", lambda ts: sum_all(mul(bilinear_warp(*ts), bilinear_warp(*ts))),
         [warp_vals, mx, my]),
    ]
    worst = 0.0
    for name, f, leaves in cases:
        rel = directional_probe_check(f, leaves, rng, probes=8, eps=1e-6, rtol=tol)
        worst = max(worst, rel)
        if name == "spectral_multiply_L":
            # the eight directions of the K-multiply probe, which went with the
            # node, so that the later checks keep their draws
            rng.standard_normal((8, h, w))
    # the fused EPDiff force on a (2, H, W) velocity and momentum, probed from a
    # generator of its own so that it leaves the draws of the other checks alone
    frng = np.random.default_rng(102)
    worst = max(worst, directional_probe_check(
        lambda ts: sum_all(mul(force_node(*ts), force_node(*ts))),
        [frng.standard_normal((2, h, w)), frng.standard_normal((2, h, w))], frng, probes=8,
        eps=1e-6, rtol=tol))
    # the fused shooting nodes, from a generator of their own: EPDiff from a (2, H, W)
    # velocity and momentum, and the inverse flow of a 4-step velocity stack whose
    # steps move every sample 0.2-0.8 px, off the lattice lines where bilinear
    # interpolation has kinks
    srng = np.random.default_rng(103)
    scfg = ShootingConfig(4, op)
    weights = Tensor(srng.standard_normal((4, 2, h, w)))
    worst = max(worst, directional_probe_check(
        lambda ts: sum_all(mul(integrate_epdiff(scfg, *ts), weights)),
        [0.3 * srng.standard_normal((2, h, w)), srng.standard_normal((2, h, w))], srng,
        probes=8, eps=1e-6, rtol=tol))
    steps = srng.uniform(0.2, 0.8, (4, 2, h, w)) * srng.choice([-1.0, 1.0], (4, 2, h, w))
    worst = max(worst, directional_probe_check(
        lambda ts: sum_all(mul(integrate_inverse_flow(scfg, ts[0]), take_index(weights, 0))),
        [scfg.num_steps * steps], srng, probes=8, eps=1e-6, rtol=tol))
    # the upsampling convolution and the squared-error sum, from a generator of their own
    urng = np.random.default_rng(104)
    worst = max(worst, directional_probe_check(
        lambda ts: sum_all(mul(upsample_conv2d(*ts), upsample_conv2d(*ts))),
        [urng.standard_normal((2, 3, h // 2, w // 2)), 0.3 * urng.standard_normal((4, 3, 3, 3)),
         urng.standard_normal(4)], urng, probes=8, eps=1e-6, rtol=tol))
    target = urng.standard_normal((2, h, w))
    worst = max(worst, directional_probe_check(
        lambda ts: squared_error_sum(ts[0], target), [urng.standard_normal((2, h, w))], urng,
        probes=8, eps=1e-6, rtol=tol))

    # full registration energy gradient on a smooth random pair
    kern = SmoothingKernel(2.0, radius=6)
    src = ScalarField(grid, smooth_noise(kern, rng.standard_normal((h, w))))
    tgt = ScalarField(grid, smooth_noise(kern, rng.standard_normal((h, w))))
    cfg = RegistrationConfig(ShootingConfig(5, op), sigma=0.05, learning_rate=0.01,
                             max_iterations=10, convergence_tol=1e-9)
    worst = max(worst, _full_energy_probe(cfg, src, tgt, rng, tol))

    elapsed = time.monotonic() - t0
    assert worst < tol
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: operator correctness
# ---------------------------------------------------------------------------


def test_criterion_2_operator_correctness():
    """K o L = identity to 1e-8; single-Fourier-mode eigenvalues match the
    analytic symbol at the DFT frequencies to 1e-8."""
    grid = Grid2(64, 48)
    rng = np.random.default_rng(202)
    for alpha, gamma, power in ((3.0, 1.0, 3), (200.0, 1.0, 1), (2.5, 0.7, 2)):
        op = MetricOperator(grid, alpha=alpha, gamma=gamma, power=power)
        v = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        back = op.multiply(op.multiply(v.values), inverse=True)
        forth = op.multiply(op.multiply(v.values, inverse=True))
        for rec in (back, forth):
            assert np.abs(rec[0] - v.x_component).max() < 1e-8
            assert np.abs(rec[1] - v.y_component).max() < 1e-8

        ys, xs = np.meshgrid(np.arange(grid.height), np.arange(grid.width), indexing="ij")
        for k1, k2 in ((0, 0), (1, 0), (0, 1), (5, 3), (grid.width // 2, grid.height // 2),
                       (7, 11)):
            lam = (gamma + 2.0 * alpha * ((1.0 - np.cos(2.0 * np.pi * k1 / grid.width))
                                          + (1.0 - np.cos(2.0 * np.pi * k2 / grid.height))))
            eig = lam**power
            phase = 2.0 * np.pi * (k1 * xs / grid.width + k2 * ys / grid.height)
            for mode in (np.cos(phase), np.sin(phase)):
                norm2 = float(np.sum(mode * mode))
                if norm2 < 1e-12:  # sine of the zero/Nyquist mode vanishes
                    continue
                f = VectorField(grid, mode, np.zeros(grid.shape))
                lf = op.multiply(f.values)[0]
                kf = op.multiply(f.values, inverse=True)[0]
                assert np.abs(lf - eig * mode).max() < 1e-8 * max(1.0, eig)
                assert np.abs(kf - mode / eig).max() < 1e-8


# ---------------------------------------------------------------------------
# criterion 3: geodesic conservation
# ---------------------------------------------------------------------------


def test_criterion_3_geodesic_conservation():
    """metric_norm drift < 2% over 20 EPDiff steps for 20 random smooth unit
    fields at 64x64; Jacobian determinant stays positive."""
    t0 = time.monotonic()
    grid = Grid2(64, 64)
    op = MetricOperator(grid, alpha=3.0, gamma=1.0, power=3)
    cfg = ShootingConfig(20, op)
    rng = np.random.default_rng(33)
    worst_drift, min_jac = 0.0, np.inf
    for _ in range(20):
        raw = VectorField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
        sm = op.multiply(raw.values, inverse=True)
        scale = 1.0 / np.sqrt(metric_norm(op, sm))
        v0 = VectorField(grid, sm[0] * scale, sm[1] * scale)
        assert abs(metric_norm(op, v0.values) - 1.0) < 1e-12

        path = shoot(cfg, v0)
        norms = [metric_norm(op, v) for v in path.velocities]
        worst_drift = max(worst_drift, max(abs(n - norms[0]) / norms[0] for n in norms))

        min_jac = min(min_jac,
                      jacobian_determinant(path.forward_map).values.min(),
                      jacobian_determinant(path.inverse_map).values.min())
    elapsed = time.monotonic() - t0
    assert worst_drift < 0.02  # measured 0.134% at this seed
    assert min_jac > 0.0  # measured 0.974
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: registration recovery
# ---------------------------------------------------------------------------


def _sigmoid_disk(grid, cx, cy, r, soft=2.0):
    xs, ys = np.meshgrid(np.arange(grid.width, dtype=float),
                         np.arange(grid.height, dtype=float))
    d = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
    return 1.0 / (1.0 + np.exp((d - r) / soft))


def test_criterion_4_registration_recovery():
    """A 2 px disk translation is recovered with mean in-mask displacement
    error < 15% of the magnitude, and the energy trace is non-increasing
    after iteration 10 in >= 95% of 20 random phantom pairs."""
    t0 = time.monotonic()
    grid = Grid2(64, 64)
    op = MetricOperator(grid, alpha=200.0, gamma=1.0, power=1)

    cfg = RegistrationConfig(ShootingConfig(10, op), sigma=0.01, learning_rate=0.01,
                             max_iterations=400, convergence_tol=1e-6)
    src = _sigmoid_disk(grid, 30.0, 32.0, 6.0)
    tgt = _sigmoid_disk(grid, 32.0, 32.0, 6.0)
    result = register_pair(cfg, ScalarField(grid, src), ScalarField(grid, tgt))
    u = map_to_displacement(result.path.forward_map)
    err = np.hypot(u.x_component - 2.0, u.y_component)[src > 0.5]
    recovery_frac = err.mean() / 2.0
    assert recovery_frac < 0.15  # measured 3.2%

    gentle = RegistrationConfig(ShootingConfig(10, op), sigma=0.01, learning_rate=0.001,
                                max_iterations=60, convergence_tol=1e-6)
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(20):
        a = float(rng.uniform(0.05, 0.15))
        tw = float(rng.uniform(0.1, 0.3))
        ri = float(rng.uniform(8, 12))
        ro = float(rng.uniform(18, 24))
        tau = int(rng.integers(1, 9))
        ph = generate(PhantomConfig(contraction_amp=a, twist_amp=tw, r_inner=ri, r_outer=ro,
                                    seed=int(rng.integers(2**31))))
        res = register_pair(gentle, ph.images[0], ph.images[tau])
        trace = np.asarray(res.energy_trace)
        if (np.diff(trace[10:]) > 0).any():
            violations += 1
    elapsed = time.monotonic() - t0
    assert violations <= 1  # >= 95% of 20; measured 0
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 5: diffusion algebra
# ---------------------------------------------------------------------------


class _OracleNoise:
    """Noise predictor that returns the exact smoothed noise it was given."""

    def __init__(self, eps_smoothed):
        self._eps = eps_smoothed

    def forward(self, values, m):
        return Tensor(self._eps)


def test_criterion_5_diffusion_algebra():
    """alpha_bar recursion to 1e-12; closed-form jump vs iterated chain
    per-pixel mean/variance within 5% over 10,000 draws; exact M=1 round
    trip with the oracle noise predictor to 1e-8."""
    t0 = time.monotonic()

    schedule = make_schedule(12)
    prod = 1.0
    for m in range(12):
        prod *= schedule.alpha[m]
        assert abs(schedule.alpha_bar[m] - prod) < 1e-12
        assert abs(schedule.sigma[m] - np.sqrt(schedule.beta[m])) < 1e-12

    # Monte-Carlo moments: 10,000 draws batched along the frame axis
    steps, h, w, n = 6, 8, 8, 10000
    sch = make_schedule(steps)
    kernel = SmoothingKernel(1.0)
    rng = np.random.default_rng(2)
    z0_vals = 1.5 + rng.uniform(-0.5, 0.5, size=(1, 1, h, w))
    z0 = Tensor(np.broadcast_to(z0_vals, (n, 1, h, w)).copy())

    closed = forward_sample(sch, kernel, z0, steps, rng.standard_normal((n, 1, h, w))).values
    z = z0
    for m in range(1, steps + 1):
        z = forward_step(sch, kernel, z, m, rng.standard_normal((n, 1, h, w)))
    iterated = z.values

    # analytic per-pixel law of both chains, with clamped-edge kernel variance
    row_op = clamped_convolution(kernel.weights, np.eye(h), axis=1).T
    sq_row = (row_op**2).sum(axis=1)
    ab = sch.alpha_bar[steps - 1]
    mean_true = np.sqrt(ab) * z0_vals[0, 0]
    var_true = (1.0 - ab) * np.outer(sq_row, sq_row)

    mean_c, var_c = closed.mean(axis=0)[0], closed.var(axis=0, ddof=1)[0]
    mean_i, var_i = iterated.mean(axis=0)[0], iterated.var(axis=0, ddof=1)[0]
    assert (np.abs(mean_i - mean_c) / np.abs(mean_true)).max() < 0.05  # measured 0.33%
    assert (np.abs(var_i - var_c) / var_true).max() < 0.05  # measured 3.3%
    for m_emp, v_emp in ((mean_c, var_c), (mean_i, var_i)):
        assert (np.abs(m_emp - mean_true) / np.abs(mean_true)).max() < 0.05
        assert (np.abs(v_emp - var_true) / var_true).max() < 0.05  # measured <= 2.9%

    # M = 1 round trip: the reverse mean with the true smoothed noise is z0
    one = make_schedule(1)
    z0_small = Tensor(rng.standard_normal((2, 3, h, w)))
    eps = rng.standard_normal((2, 3, h, w))
    z1 = forward_sample(one, kernel, z0_small, 1, eps)
    oracle = _OracleNoise(smooth_noise(kernel, eps))
    back = reverse_step(one, kernel, z1, 1, oracle, np.zeros_like(eps))
    assert np.abs(back.values - z0_small.values).max() < 1e-8  # measured ~1e-15

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 6: refinement beats registration-only motion
# ---------------------------------------------------------------------------


def test_criterion_6_refinement_beats_registration():
    """On 30 phantom sequences (64x64, T=8) the trained refinement pipeline
    achieves lower masked EPE than registration-only displacement on >= 80%
    of held-out sequences with median improvement >= 20%."""
    t0 = time.monotonic()
    grid = Grid2(64, 64)
    op = MetricOperator(grid, alpha=200.0, gamma=1.0, power=1)
    rcfg = RegistrationConfig(ShootingConfig(10, op), sigma=0.01, learning_rate=0.001,
                              max_iterations=60, convergence_tol=1e-6)
    splits = make_dataset(30, grid, DatasetRanges(), seed=2026)
    assert (len(splits["train"]), len(splits["validation"]), len(splits["test"])) == (22, 4, 4)

    ucfg = UNetConfig(in_channels=2, base_channels=8, latent_channels=8, num_down=2,
                      time_embed_dim=16)
    reg = RegistrationNet(ucfg, seed=0)
    t_reg = time.monotonic()
    train_registration_network(reg, [pair_stack(s.images) for s in splits["train"]], rcfg,
                               epochs=30, learning_rate=1e-3, seed=0)
    t_reg = time.monotonic() - t_reg

    store = ParameterStore()
    eps_net = NoisePredictor(ucfg, 8, store, seed=1)
    mot_net = MotionDecoder(ucfg, 8, 64, 64, store, seed=2)
    schedule = make_schedule(8)
    kernel = SmoothingKernel(1.0)
    dcfg = DiffusionConfig(schedule=schedule, kernel=kernel, loss_alpha=1e-2, batch_size=4,
                           max_epochs=500)
    t_diff = time.monotonic()
    result = train_diffusion(
        reg, eps_net, mot_net,
        [(pair_stack(s.images), s.motions.values) for s in splits["train"]],
        [(pair_stack(s.images), s.motions.values) for s in splits["validation"]],
        dcfg, learning_rate=1e-3, patience=75, seed=0)
    t_diff = time.monotonic() - t_diff
    print(f"registration-net training {t_reg:.1f} s; diffusion training {t_diff:.1f} s "
          f"over {len(result.history)} epochs")

    def registration_motions(sample):
        with no_grad():
            v0s = reg.forward(pair_stack(sample.images)).values
        maps = [shoot(rcfg.shooting, VectorField(grid, *v0)).forward_map for v0 in v0s]
        return np.stack([map_to_displacement(phi).values for phi in maps])

    def refined_motions(sample, chain_schedule, rng):
        return infer_motion(sample.images, reg, eps_net, mot_net, chain_schedule, kernel, rng)

    def mean_epe(sample, motions):
        return float(np.mean([epe(VectorField(grid, *u), truth, sample.mask)
                              for u, truth in zip(motions, sample.motions.frames)]))

    def strain_error(sample, motions):
        """Eval's mid-cycle segmental strain error, averaged over the six segments."""
        peak = max(1, round(len(motions) / 2))
        center = sample.mask.centroid()
        seg = segment_mask(sample.mask, center, sample.insertion_angle)
        return float(np.mean(segmental_strain_error(
            strain_from_displacement(VectorField(grid, *motions[peak - 1]), center),
            strain_from_displacement(sample.motions[peak - 1], center), seg)))

    improvements = []
    wins = 0
    for i, sample in enumerate(splits["test"]):
        base_motions = registration_motions(sample)
        refined_pred = refined_motions(sample, schedule, np.random.default_rng([9, i]))
        base, refined = mean_epe(sample, base_motions), mean_epe(sample, refined_pred)
        wins += refined < base
        improvements.append(1.0 - refined / base)
        # what the chain adds: the decoder on the clean encoder latents (an empty
        # chain), and the spread of the chain's EPE over 5 more draws; and the strain
        # error of each estimate; not gated
        decoder_pred = refined_motions(sample, make_schedule(0), np.random.default_rng(0))
        draws = [mean_epe(sample, refined_motions(sample, schedule,
                                                  np.random.default_rng([10, i, d])))
                 for d in range(5)]
        print(f"held-out {i}: registration {base:.3f} refined {refined:.3f} "
              f"improvement {100.0 * improvements[-1]:.1f}% "
              f"decoder-only {mean_epe(sample, decoder_pred):.3f} "
              f"chain over 5 draws {min(draws):.3f}-{max(draws):.3f}; strain error: "
              f"registration {strain_error(sample, base_motions):.4f} "
              f"decoder-only {strain_error(sample, decoder_pred):.4f} "
              f"refined {strain_error(sample, refined_pred):.4f}")

    elapsed = time.monotonic() - t0
    assert wins / len(splits["test"]) >= 0.8  # measured 4/4
    assert float(np.median(improvements)) >= 0.20  # measured 66.1%
    assert elapsed < 7200.0  # measured 67 s with one BLAS thread (2-core VM)


# ---------------------------------------------------------------------------
# criterion 7: strain analytics
# ---------------------------------------------------------------------------


def test_criterion_7_strain_analytics():
    """Rigid rotation gives |Ecc| < 1e-6; uniform contraction a=0.1 gives
    segmental Ecc = -0.095 +- 1e-3 in all six segments; Ecc+Err equals
    trace(E) to 1e-10; the 3-4-5 end-point error is exactly 5.0 mm."""
    grid = Grid2(64, 64)
    xs, ys = coordinate_arrays(grid)

    center = (31.7, 32.3)
    theta = 0.3
    dx, dy = xs - center[0], ys - center[1]
    rot_u = VectorField(grid,
                        np.cos(theta) * dx - np.sin(theta) * dy - dx,
                        np.sin(theta) * dx + np.cos(theta) * dy - dy)
    rigid = strain_from_displacement(rot_u, center)
    rr = np.sqrt(dx**2 + dy**2)
    ring = Mask(grid, (rr >= 10.0) & (rr <= 25.0) & rigid.valid)
    assert np.abs(rigid.ecc[ring.labels]).max() < 1e-6

    sample = generate(PhantomConfig(contraction_amp=0.1))
    peak = max(1, round(sample.config.num_frames / 2))
    assert time_profile(sample.config, peak) == pytest.approx(1.0, abs=1e-12)
    strain = strain_from_displacement(sample.motions[peak - 1], sample.mask.centroid())
    segments = segment_mask(sample.mask, sample.mask.centroid(), sample.insertion_angle)
    means = segmental_strain(strain, segments)
    expected = ((1.0 - 0.1) ** 2 - 1.0) / 2.0  # -0.095
    assert means.shape == (6,)
    assert np.abs(means - expected).max() < 1e-3

    f = deformation_gradient(sample.motions[peak - 1])
    e = green_lagrange(f)
    trace = e[..., 0, 0] + e[..., 1, 1]
    total = strain.ecc + strain.err
    assert np.abs((total - trace)[strain.valid]).max() < 1e-10

    truth = VectorField(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    pred = VectorField(grid, np.full(grid.shape, 3.0), np.full(grid.shape, 4.0))
    assert epe(pred, truth, sample.mask) == 5.0


# ---------------------------------------------------------------------------
# criterion 8: reproducibility and I/O
# ---------------------------------------------------------------------------

def _run_pipeline(root):
    root.mkdir()
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    data, direct, joint = str(root / "data"), str(root / "direct"), str(root / "joint")
    regmodel, pred = str(root / "reg.lmf1"), str(root / "pred.lmf1")
    # split 2/1/1: two training sequences fill each diffusion batch of 2
    assert cli_main(["phantom", "--config", str(cfg), "--out", data, "--n", "4"]) == 0
    assert cli_main(["register", "--config", str(cfg), "--dataset", data, "--mode", "direct",
                     "--split", "train", "--out", direct]) == 0
    assert cli_main(["register", "--config", str(cfg), "--dataset", data, "--mode", "train",
                     "--split", "train", "--out", str(root / "regtrain"),
                     "--model-out", regmodel, "--epochs", "30"]) == 0
    assert cli_main(["train", "--config", str(cfg), "--dataset", data,
                     "--registration-model", regmodel, "--out", joint]) == 0
    sample = os.path.join(data, "sample_003.lmf1")  # the held-out test sample
    assert cli_main(["infer", "--config", str(cfg), "--sample", sample,
                     "--registration-model", regmodel,
                     "--model", os.path.join(joint, "model.lmf1"),
                     "--out", pred, "--seed", "7"]) == 0
    assert cli_main(["eval", "--sample", sample, "--pred", pred,
                     "--out", str(root / "eval.csv")]) == 0
    assert cli_main(["strain", "--sample", sample,
                     "--out-prefix", str(root / "gt")]) == 0
    return ["data/manifest.json", "data/sample_000.lmf1", "data/sample_003.lmf1",
            "direct/energies.csv", "regtrain/register_train_log.csv", "joint/train_log.csv",
            "joint/model.lmf1", "pred.lmf1", "eval.csv", "gt_strain.csv", "gt_ecc.pgm"]


def test_criterion_8_reproducibility_and_io(tmp_path):
    """The fixed-seed pipeline produces byte-identical outputs twice in a
    row; container round trips are bit-exact; corrupt containers are
    rejected with byte-offset diagnostics."""
    t0 = time.monotonic()
    files = _run_pipeline(tmp_path / "run1")
    _run_pipeline(tmp_path / "run2")
    for rel in files:
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"

    rng = np.random.default_rng(808)
    arrays = {
        "volume": rng.standard_normal((3, 4, 5)),
        "image": (rng.uniform(0, 255, size=(8, 8))).astype(np.uint8),
        "empty": np.zeros((0, 3)),
        "fortran": np.asfortranarray(rng.standard_normal((6, 7))),
    }
    path = tmp_path / "roundtrip.lmf1"
    write_container(path, arrays)
    loaded = read_container(path)
    assert list(loaded) == list(arrays)
    for name, original in arrays.items():
        got = loaded[name]
        assert got.shape == original.shape and got.dtype == original.dtype
        assert np.ascontiguousarray(original).tobytes() == got.tobytes()
    first = path.read_bytes()
    write_container(path, loaded)
    assert path.read_bytes() == first

    corrupt = tmp_path / "corrupt.lmf1"
    for blob, offset in ((b"XXXX" + first[4:], 0),
                         (first[:4], 4),
                         (first + b"\x00", len(first))):
        corrupt.write_bytes(blob)
        with pytest.raises(ContainerFormatError) as exc:
            read_container(corrupt)
        assert exc.value.offset == offset
        assert "byte offset" in str(exc.value) and str(corrupt) in str(exc.value)

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0  # measured ~25 s
