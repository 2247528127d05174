"""Layer probes: the program's public functions at the workloads' shapes.

A traced run ends with this fixed suite, under the tracer, so every
workload reports the same per-layer metrics whatever layers its own
operations reach.  Each probe repeats its call and reports the median
over repeats of a span's duration (or of the sum of the spans of one
name inside it, for conv2d).
"""

from __future__ import annotations

import json
import os

import numpy as np

import workloads as W

import cardiomotion.container as container
import cardiomotion.diffusion as diffusion
import cardiomotion.geodesic as geodesic
import cardiomotion.grid as grid_mod
import cardiomotion.metric as metric
import cardiomotion.nn.fieldops as fieldops
import cardiomotion.nn.networks as networks
import cardiomotion.nn.params as params
import cardiomotion.nn.tensor as tensor
import cardiomotion.phantom as phantom
import cardiomotion.registration as registration
import cardiomotion.strain as strain

# name -> unit, in report order
PROBES = {
    "conv2d_fwd_ms": "ms", "conv2d_bwd_ms": "ms", "backward_ms": "ms",
    "bilinear_warp_fwd_us": "us", "bilinear_warp_bwd_us": "us", "fd_fwd_bwd_us": "us",
    "multiply_us": "us", "smooth_noise_us": "us",
    "shoot_ms": "ms", "energy_ms": "ms", "energy_gradient_ms": "ms", "loss_build_ms": "ms",
    "regnet_forward_ms": "ms", "noise_predictor_forward_ms": "ms",
    "motion_decoder_forward_ms": "ms",
    "adam_step_ms": "ms", "checkpoint_load_ms": "ms",
    "train_batch_ms": "ms", "reverse_step_ms": "ms", "infer_ms": "ms",
    "generate_ms": "ms", "write_mb_per_s": "MB/s", "read_mb_per_s": "MB/s",
    "strain_ms": "ms", "epe_ms": "ms", "infer_request_ms": "ms",
}


def run_probes(tracer, workdir: str, seed: int) -> dict:
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, 4])
    cfg = W.phantom_configs(rng, 1)[0]
    sample = phantom.generate(cfg)
    pairs = registration.pair_stack(sample.images)
    truth = W._truth_stack(sample)
    rcfg = W.registration_config()
    op = rcfg.shooting.operator
    g = op.grid
    ucfg = networks.UNetConfig(**W.UNET)
    out: dict[str, float] = {}

    def first(name: str, call, reps: int, scale: float) -> float:
        """Median over reps of the first span named ``name`` that ``call`` records."""
        call()  # warm-up
        values = []
        for _ in range(reps):
            m = tracer.mark()
            call()
            values.append(tracer.durations(name, m)[0])
        return float(np.median(values) * scale)

    tracer.install()
    try:
        # registration net: one training step at the regnet_train shapes
        net = networks.RegistrationNet(ucfg, seed=0)
        net.store["reg.dec.out.w"].values[...] = 0.01 * rng.standard_normal((2, 8, 3, 3))

        def step() -> dict:
            d = tracer.durations
            m0 = tracer.mark()
            v = net.forward(pairs)
            m1 = tracer.mark()
            loss = registration.registration_network_loss(rcfg, v, pairs)
            m2 = tracer.mark()
            loss.backward()
            params.adam_step(net.store, 1e-4)
            return dict(regnet_forward_ms=d("nn.networks:RegistrationNet.forward", m0)[0],
                        conv2d_fwd_ms=sum(d("nn.tensor:conv2d", m0, m1)),
                        loss_build_ms=d("registration:registration_network_loss", m1)[0],
                        backward_ms=d("nn.tensor:Tensor.backward", m2)[0],
                        conv2d_bwd_ms=sum(d("nn.tensor:conv2d.vjp", m2)),
                        adam_step_ms=d("nn.params:adam_step", m2)[0])

        steps = [step() for _ in range(5)][2:]  # the first steps page-fault the graph memory
        out.update({k: float(np.median([s[k] for s in steps]) * 1e3) for k in steps[0]})

        # field kernels at 64x64
        vx = tensor.Tensor(rng.standard_normal(g.shape), requires_grad=True)
        xs, ys = grid_mod.coordinate_arrays(g)
        qx = tensor.Tensor(xs + rng.uniform(-2, 2, g.shape), requires_grad=True)
        qy = tensor.Tensor(ys + rng.uniform(-2, 2, g.shape), requires_grad=True)
        warp = lambda: tensor.sum_all(fieldops.bilinear_warp(vx, qx, qy)).backward()
        fd = lambda: tensor.sum_all(fieldops.fd_dx(vx)).backward()
        out["bilinear_warp_fwd_us"] = first("nn.fieldops:bilinear_warp", warp, 50, 1e6)
        out["bilinear_warp_bwd_us"] = first("nn.fieldops:bilinear_warp.vjp", warp, 50, 1e6)
        out["fd_fwd_bwd_us"] = (first("nn.fieldops:fd_dx", fd, 50, 1e6)
                                + first("nn.fieldops:fd_dx.vjp", fd, 50, 1e6))
        out["multiply_us"] = first("metric:MetricOperator.multiply",
                                   lambda: op.multiply(vx.values), 50, 1e6)

        # geodesic shooting and the registration energy at the registered pairs' scale
        v0 = grid_mod.VectorField(g, 0.5 * metric.smooth_noise(metric.SmoothingKernel(3.0, 9),
                                                               rng.standard_normal(g.shape)),
                                  0.5 * metric.smooth_noise(metric.SmoothingKernel(3.0, 9),
                                                            rng.standard_normal(g.shape)))
        src, tgt = sample.images[0], sample.images[3]
        out["shoot_ms"] = first("geodesic:shoot", lambda: geodesic.shoot(rcfg.shooting, v0), 3,
                                1e3)
        out["energy_ms"] = first("registration:energy",
                                 lambda: registration.energy(rcfg, v0, src, tgt), 3, 1e3)
        out["energy_gradient_ms"] = first(
            "registration:energy_gradient",
            lambda: registration.energy_gradient(rcfg, v0, src, tgt), 3, 1e3)

        # diffusion stage at the refine shapes
        store, eps, mot = W._refine_nets(ucfg)
        reg = networks.RegistrationNet(ucfg, seed=0)
        z = networks.encoder_forward(reg, pairs)
        dcfg = W._diffusion_config(1)
        noise = rng.standard_normal(z.values.shape)
        batch = [z] * W.REFINE_BATCH
        out["noise_predictor_forward_ms"] = first("nn.networks:NoisePredictor.forward",
                                                  lambda: eps.forward(z.values, 3), 5, 1e3)
        out["motion_decoder_forward_ms"] = first("nn.networks:MotionDecoder.forward",
                                                 lambda: mot.forward(z), 5, 1e3)
        out["reverse_step_ms"] = first(
            "diffusion:reverse_step",
            lambda: diffusion.reverse_step(dcfg.schedule, dcfg.kernel, z, 3, eps, noise), 5, 1e3)
        out["smooth_noise_us"] = first("metric:smooth_noise",
                                       lambda: metric.smooth_noise(dcfg.kernel, noise), 20, 1e6)

        def train_batch():
            with tracer.span("bench:train_batch"):
                brng = np.random.default_rng(0)
                l_diff = diffusion.diffusion_loss(batch, eps, dcfg.schedule, dcfg.kernel, brng)
                l_mot = diffusion.motion_loss(batch, [truth] * len(batch), mot)
                tensor.add(l_diff, tensor.smul(l_mot, 1e-2)).backward()
                params.adam_step(store, 1e-4)

        out["train_batch_ms"] = first("bench:train_batch", train_batch, 3, 1e3)
        out["infer_ms"] = first(
            "diffusion:infer",
            lambda: diffusion.infer(sample.images, reg, eps, mot, dcfg.schedule, dcfg.kernel,
                                    np.random.default_rng(0)), 3, 1e3)

        # checkpoints, containers and phantom synthesis
        model_path = os.path.join(workdir, "model.lmf1")
        reg_path = os.path.join(workdir, "reg.lmf1")
        params.save_checkpoint(store, model_path)
        params.save_checkpoint(reg.store, reg_path)
        records = {f"r{k}/{name}": value for k in range(4)
                   for name, value in container.read_container(model_path).items()}
        mb = sum(a.nbytes for a in records.values()) / 1e6
        blob_path = os.path.join(workdir, "blob.lmf1")
        out["checkpoint_load_ms"] = first("nn.params:load_checkpoint",
                                          lambda: params.load_checkpoint(store, model_path), 5,
                                          1e3)
        out["write_mb_per_s"] = mb / first(
            "container:write_container",
            lambda: container.write_container(blob_path, records), 5, 1.0)
        out["read_mb_per_s"] = mb / first("container:read_container",
                                          lambda: container.read_container(blob_path), 5, 1.0)
        out["generate_ms"] = first("phantom:generate", lambda: phantom.generate(cfg), 5, 1e3)

        # strain, end-point error and one CLI infer request
        center = sample.mask.centroid()
        out["strain_ms"] = first(
            "strain:strain_from_displacement",
            lambda: strain.strain_from_displacement(sample.motions[3], center), 5, 1e3)

        def epe_all():
            with tracer.span("bench:epe"):
                for t in range(W.FRAMES):
                    strain.epe(sample.motions[t], sample.motions[0], sample.mask)

        out["epe_ms"] = first("bench:epe", epe_all, 5, 1e3)
        sample_path = os.path.join(workdir, "sample.lmf1")
        phantom.save_sample(sample_path, sample)
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(W._refine_run_config(), fh)
        infer_args = ["infer", "--config", cfg_path, "--sample", sample_path,
                      "--registration-model", reg_path, "--model", model_path,
                      "--out", os.path.join(workdir, "pred.lmf1"), "--seed", "1"]

        def request():
            if W._request(infer_args) != 0:
                raise RuntimeError("probe infer request failed")

        out["infer_request_ms"] = first("cli:main", request, 3, 1e3)
    finally:
        tracer.uninstall()
    return out
