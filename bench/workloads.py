"""The three benchmark workloads.

Each workload is a single-client closed loop: the benchmark calls the
program's public functions one after another and waits for each.  A run

1. builds its inputs from ``--seed`` (only the phantom data depend on it;
   network initialisations and training seeds are fixed, as in the
   acceptance suite), timing that set-up SETUP_REPEATS times;
2. warms up on throwaway state, so page faults of the first steps stay
   out of the rates;
3. runs a fixed amount of work, sized from ``--seconds`` by the nominal
   costs below, in whole operations;
4. checks the outputs against ``reference.py`` or against properties the
   method must have.

Phantom parameters are spread over the acceptance ranges by a fixed
stratified design; the seed moves each value inside its stratum and sets
the centre offset, insertion angle and order.  So a workload's difficulty
is the same from seed to seed while every image differs.

In a traced run every other operation (all of refine's training) runs
with the tracer installed; the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reference as R

import cardiomotion.cli as cli
import cardiomotion.container as container
import cardiomotion.diffusion as diffusion
import cardiomotion.geodesic as geodesic
import cardiomotion.grid as grid_mod
import cardiomotion.metric as metric
import cardiomotion.nn.networks as networks
import cardiomotion.nn.params as params
import cardiomotion.nn.tensor as tensor
import cardiomotion.phantom as phantom
import cardiomotion.registration as registration

SETUP_REPEATS = 9
JITTER = 0.15   # share of a stratum by which the seed moves a phantom parameter

# the acceptance configuration (test_criterion_6)
SIZE, FRAMES, SHOOT_STEPS = 64, 8, 10
ALPHA, GAMMA, POWER, SIGMA = 200.0, 1.0, 1, 0.01
UNET = dict(in_channels=2, base_channels=8, latent_channels=8, num_down=2, time_embed_dim=16)
RANGES = phantom.DatasetRanges()

# regnet_train: every round trains a fresh net for EPOCHS epochs over SEQS sequences
REGNET_SEQS, REGNET_EPOCHS, REGNET_LR = 4, 2, 1e-3
REGNET_ROUND_S = 6.0          # nominal seconds per round
# direct_register: PHASES target phases per sequence, a fixed Adam budget per pair
DIRECT_PHASES, DIRECT_ITERS, DIRECT_LR = 4, 30, 0.01
DIRECT_SEQ_S = 5.0            # nominal seconds per sequence (PHASES pairs)
NO_EARLY_STOP = 1e-300        # convergence tolerance under which register_pair runs its budget
# refine: request rounds (one request per held-out sequence) before and after joint training
REFINE_TRAIN, REFINE_VAL, REFINE_TEST, REFINE_BATCH, REFINE_LR = 24, 2, 8, 4, 2e-3
REFINE_DIFFUSION_STEPS, REFINE_KERNEL_STD = 8, 1.0
REFINE_EPOCH_S = 1.1         # nominal seconds per training epoch
REQUEST_ROUNDS_BEFORE, REQUEST_ROUNDS_AFTER = 2, 3
REQUEST_S = 0.08              # nominal seconds per request


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)      # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)       # (name, ok, detail)
    notes: dict = field(default_factory=dict)
    op_seconds: dict = field(default_factory=lambda: {True: [], False: []})  # traced? -> times
    traced_ops: int = 0
    traced_marks: list = field(default_factory=list)  # (start, stop) span indices

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def fail(self, what: str, count: int, err: Exception) -> None:
        self.failed += count
        self.notes.setdefault("errors", []).append(f"{what}: {type(err).__name__}: {err}")


class _Phase:
    """Installs the tracer for one operation when ``traced``; records its span range."""

    def __init__(self, tracer, traced: bool, outcome: Outcome, ops: int):
        self.tracer, self.traced, self.outcome, self.ops = tracer, traced, outcome, ops

    def __enter__(self):
        if self.traced:
            self.tracer.install()
            self.start = self.tracer.mark()
        return self

    def __exit__(self, *exc):
        if self.traced:
            self.tracer.uninstall()
            self.outcome.traced_marks.append((self.start, self.tracer.mark()))
            self.outcome.traced_ops += self.ops
        return False


def _traced(tracer, index: int) -> bool:
    return tracer is not None and index % 2 == 0


def strata(rng: np.random.Generator, n: int, lo: float, hi: float, shift: int = 0) -> np.ndarray:
    """n values of [lo, hi], one per equal-width stratum, jittered by JITTER of a stratum.

    Value i lies in stratum (i + shift) mod n, so the design (which strata go
    together) is fixed and the seed only moves each value inside its stratum.
    """
    k = (np.arange(n) + shift) % n
    return lo + (hi - lo) * (k + 0.5 + rng.uniform(-JITTER, JITTER, n)) / n


def phantom_configs(rng: np.random.Generator, n: int, center_jitter: float = 0.0) -> list:
    """n acceptance phantoms spread over the acceptance ranges, in seed-dependent order."""
    grid = grid_mod.Grid2(SIZE, SIZE)
    c = strata(rng, n, *RANGES.contraction)
    tw = strata(rng, n, *RANGES.twist, shift=n // 2)
    ri = strata(rng, n, *RANGES.r_inner, shift=1)
    ro = strata(rng, n, *RANGES.r_outer, shift=n - 1)
    return [phantom.PhantomConfig(grid=grid, num_frames=FRAMES, contraction_amp=float(c[i]),
                                  twist_amp=float(tw[i]), r_inner=float(ri[i]),
                                  r_outer=float(ro[i]), center_jitter=center_jitter,
                                  seed=int(rng.integers(0, 2**31)))
            for i in rng.permutation(n)]


def registration_config(max_iterations: int = 60, learning_rate: float = 1e-3,
                        convergence_tol: float = 1e-6):
    op = metric.MetricOperator(grid_mod.Grid2(SIZE, SIZE), alpha=ALPHA, gamma=GAMMA, power=POWER)
    return registration.RegistrationConfig(geodesic.ShootingConfig(SHOOT_STEPS, op), sigma=SIGMA,
                                           learning_rate=learning_rate,
                                           max_iterations=max_iterations,
                                           convergence_tol=convergence_tol)


def reference_energy(source, target, vx, vy) -> float:
    return R.registration_energy(source, target, vx, vy, num_steps=SHOOT_STEPS, alpha=ALPHA,
                                 gamma=GAMMA, power=POWER, sigma=SIGMA)[0]


def _timed_setups(build, workdir, outcome: Outcome):
    times, state = [], None
    for k in range(SETUP_REPEATS):
        path = os.path.join(workdir, f"setup{k}")
        os.makedirs(path)
        gc.collect()  # the previous repetition's garbage is not this one's cost
        t0 = time.perf_counter()
        state = build(path)
        times.append(time.perf_counter() - t0)
    outcome.metrics["setup_s"] = (float(np.median(times)), "s")
    outcome.notes["setup_s_all"] = times
    return state


def _truth_stack(sample) -> np.ndarray:
    return np.stack([np.stack([m.x_component, m.y_component]) for m in sample.motions.frames])


def _round_trip(samples, path: str) -> list:
    """Write each sample as a container and load it back, as a user's pipeline would."""
    out = []
    for i, s in enumerate(samples):
        name = os.path.join(path, f"sample_{i:03d}.lmf1")
        phantom.save_sample(name, s)
        out.append((name, phantom.load_sample(name)))
    return out


# ---------------------------------------------------------------------------
# regnet_train
# ---------------------------------------------------------------------------


def regnet_train(seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    out = Outcome()
    rounds = max(2, round(seconds / REGNET_ROUND_S))
    steps_per_round = REGNET_SEQS * REGNET_EPOCHS
    ucfg = networks.UNetConfig(**UNET)

    def build(path):
        rng = np.random.default_rng([seed, 1])
        samples = [phantom.generate(c) for c in phantom_configs(rng, REGNET_SEQS)]
        loaded = [s for _, s in _round_trip(samples, path)]
        stacks = [registration.pair_stack(s.images) for s in loaded]
        return loaded, stacks, registration_config(), networks.RegistrationNet(ucfg, seed=0)

    samples, stacks, rcfg, warm_net = _timed_setups(build, workdir, out)
    registration.train_registration_network(warm_net, stacks[:2], rcfg, epochs=2,
                                            learning_rate=REGNET_LR, seed=0)

    histories, trained = [], None
    for r in range(rounds):
        net = networks.RegistrationNet(ucfg, seed=0)
        out.attempted += steps_per_round
        traced = _traced(tracer, r)
        stamps = [time.perf_counter()]
        with _Phase(tracer, traced, out, steps_per_round), _step_clock(stamps):
            try:
                history = registration.train_registration_network(
                    net, stacks, rcfg, epochs=REGNET_EPOCHS, learning_rate=REGNET_LR, seed=0)
            except Exception as e:  # counted, the run goes on
                out.fail(f"round {r}", steps_per_round, e)
                continue
        out.op_seconds[traced].extend(np.diff(stamps).tolist())
        histories.append(history)
        trained = net
    if trained is None:
        return out

    # training starts from zero velocities (the output layer is initialised
    # to zero), so the objective is reported as a share of that energy
    zero = np.zeros((SIZE, SIZE))
    e_zero = np.mean([reference_energy(st[t, 0], st[t, 1], zero, zero)
                      for st in stacks for t in range(st.shape[0])])
    worst, epes = 0.0, []
    for sample, stack in zip(samples, stacks):
        with tensor.no_grad():
            v = trained.forward(stack).values
            loss = registration.registration_network_loss(rcfg, v, stack).item()
        ref = np.mean([reference_energy(stack[t, 0], stack[t, 1], v[t, 0], v[t, 1])
                       for t in range(stack.shape[0])])
        worst = max(worst, abs(loss - ref) / abs(ref))
        for t in range(stack.shape[0]):
            v0 = grid_mod.VectorField(rcfg.shooting.operator.grid, v[t, 0], v[t, 1])
            phi = geodesic.shoot(rcfg.shooting, v0).forward_map
            u = sample.motions[t]
            epes.append(_map_epe(phi, u.x_component, u.y_component, sample.mask.labels))

    step_s = out.op_seconds[False] + out.op_seconds[True]
    loss = histories[0]
    out.metrics["work_per_s"] = (FRAMES * len(step_s) / sum(step_s), "1/s")
    out.metrics["op_ms_p50"] = (1e3 * float(np.median(step_s)), "ms")
    out.metrics["error_mm"] = (float(np.mean(epes)), "mm")
    out.metrics["objective_ratio"] = (float(loss[-1] / e_zero), "1")
    out.notes.update(epoch_losses=loss, zero_velocity_energy=float(e_zero))
    out.check("epoch loss falls", loss[-1] < loss[0], f"{loss[0]:.6g} -> {loss[-1]:.6g}")
    out.check("rounds give identical losses", all(h == loss for h in histories))
    out.check("network loss equals reference energy", worst < 1e-9, f"rel {worst:.2e}")
    return out


@contextlib.contextmanager
def _step_clock(stamps: list):
    """Appends a timestamp at the end of every training step (its optimiser update)."""
    update = registration.adam_step

    def stamped(*args, **kwargs):
        update(*args, **kwargs)
        stamps.append(time.perf_counter())

    registration.adam_step = stamped
    try:
        yield
    finally:
        registration.adam_step = update


def _map_epe(phi, tx, ty, mask) -> float:
    """Reference EPE of a forward map's displacement against a true displacement."""
    ys, xs = np.indices(phi.x.shape, dtype=np.float64)
    return R.masked_epe(phi.x - xs, phi.y - ys, tx, ty, mask, phi.grid.spacing)


# ---------------------------------------------------------------------------
# direct_register
# ---------------------------------------------------------------------------


def direct_register(seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    out = Outcome()
    n_seq = max(1, round(seconds / DIRECT_SEQ_S))

    def build(path):
        rng = np.random.default_rng([seed, 2])
        pairs = []
        for k, cfg in enumerate(phantom_configs(rng, n_seq, center_jitter=1.0)):
            sample = phantom.generate(cfg)
            # a distinct continuous phase per pair: no target frame repeats
            taus = strata(rng, DIRECT_PHASES, 0.5, FRAMES / 2.0)
            records = {"frame0": phantom.render_frame(cfg, 0.0, sample.center).values,
                       "mask": sample.mask.labels.astype(np.uint8)}
            for j, tau in enumerate(taus):
                records[f"frame{j + 1}"] = phantom.render_frame(cfg, tau, sample.center).values
                u = phantom.motion_model(cfg, tau, sample.center)
                records[f"truth{j + 1}"] = np.stack([u.x_component, u.y_component])
            name = os.path.join(path, f"pairs_{k:03d}.lmf1")
            container.write_container(name, records)
            back = container.read_container(name)
            mask = back["mask"].astype(bool)
            for j in range(DIRECT_PHASES):
                pairs.append((back["frame0"], back[f"frame{j + 1}"], back[f"truth{j + 1}"], mask))
        return pairs, registration_config(DIRECT_ITERS, DIRECT_LR, NO_EARLY_STOP)

    pairs, rcfg = _timed_setups(build, workdir, out)
    g = rcfg.shooting.operator.grid
    scalar = grid_mod.ScalarField
    registration.register_pair(registration_config(3, DIRECT_LR, NO_EARLY_STOP),
                               scalar(g, pairs[0][0]), scalar(g, pairs[0][1]))

    results = []
    for i, (src, tgt, truth, mask) in enumerate(pairs):
        out.attempted += 1
        traced = _traced(tracer, i)
        with _Phase(tracer, traced, out, 1):
            t0 = time.perf_counter()
            try:
                res = registration.register_pair(rcfg, scalar(g, src), scalar(g, tgt))
            except Exception as e:  # counted, the run goes on
                out.fail(f"pair {i}", 1, e)
                continue
            dt = time.perf_counter() - t0
        out.op_seconds[traced].append(dt)
        results.append((res, src, tgt, truth, mask))
    if not results:
        return out

    zero = np.zeros(g.shape)
    reg_epe, zero_epe, e_final, e_zero, worst, min_det = [], [], [], [], 0.0, np.inf
    for res, src, tgt, truth, mask in results:
        e_final.append(res.energy_trace[-1])
        e_ref = reference_energy(src, tgt, res.v0.x_component, res.v0.y_component)
        worst = max(worst, abs(e_final[-1] - e_ref) / abs(e_ref))
        e_zero.append(reference_energy(src, tgt, zero, zero))
        phi = res.path.forward_map
        min_det = min(min_det, float(R.jacobian_determinant(phi.x, phi.y).min()))
        reg_epe.append(_map_epe(phi, truth[0], truth[1], mask))
        zero_epe.append(R.masked_epe(zero, zero, truth[0], truth[1], mask, g.spacing))

    pair_s = out.op_seconds[False] + out.op_seconds[True]
    iters = sum(len(res.energy_trace) - 1 for res, *_ in results)
    out.metrics["work_per_s"] = (iters / sum(pair_s), "1/s")
    out.metrics["op_ms_p50"] = (1e3 * float(np.median(pair_s)), "ms")
    out.metrics["error_mm"] = (float(np.mean(reg_epe)), "mm")
    ratios = np.array(e_final) / np.array(e_zero)
    out.metrics["objective_ratio"] = (float(np.median(ratios)), "1")
    out.notes.update(zero_motion_epe_mm=float(np.mean(zero_epe)), min_det_forward_map=min_det,
                     iterations=iters, pair_epe_mm=reg_epe, pair_zero_epe_mm=zero_epe,
                     pair_final_energy=e_final, pair_zero_energy=e_zero)
    out.check("final energy equals reference energy", worst < 1e-9, f"rel {worst:.2e}")
    out.check("final energy below zero-velocity energy", max(ratios) < 1.0,
              f"largest ratio {max(ratios):.4f}")
    out.check("forward maps are diffeomorphic", min_det > 0.0, f"min det {min_det:.4f}")
    ratio = float(np.mean(reg_epe) / np.mean(zero_epe))
    out.check("registered EPE below zero-motion EPE", ratio < 1.0, f"ratio {ratio:.4f}")
    return out


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def _refine_run_config() -> dict:
    return {"grid": {"height": SIZE, "width": SIZE},
            "metric": {"alpha": ALPHA, "gamma": GAMMA, "power": POWER},
            "shooting": {"num_steps": SHOOT_STEPS},
            "nets": {k: v for k, v in UNET.items() if k != "in_channels"},
            "diffusion": {"num_steps": REFINE_DIFFUSION_STEPS, "kernel_std": REFINE_KERNEL_STD,
                          "batch_size": REFINE_BATCH, "learning_rate": REFINE_LR},
            "phantom": {"num_frames": FRAMES},
            "seed": 0}


def _diffusion_config(epochs: int):
    return diffusion.DiffusionConfig(schedule=diffusion.make_schedule(REFINE_DIFFUSION_STEPS),
                                     kernel=metric.SmoothingKernel(REFINE_KERNEL_STD),
                                     loss_alpha=1e-2, batch_size=REFINE_BATCH, max_epochs=epochs)


def _refine_nets(ucfg):
    store = params.ParameterStore()
    eps = networks.NoisePredictor(ucfg, FRAMES, store, seed=1)
    mot = networks.MotionDecoder(ucfg, FRAMES, SIZE, SIZE, store, seed=2)
    return store, eps, mot


def _request(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def _eval_epes(csv_blob: bytes) -> list[float]:
    rows = [line.split(",") for line in csv_blob.decode("utf-8").splitlines()[1:]]
    return [float(r[3]) for r in rows if r[0] == "epe"]


def refine(seed: int, seconds: float, tracer, workdir: str) -> Outcome:
    out = Outcome()
    request_s = (REQUEST_ROUNDS_BEFORE + REQUEST_ROUNDS_AFTER) * REFINE_TEST * REQUEST_S
    epochs = max(4, round((seconds - request_s) / REFINE_EPOCH_S))
    batches = epochs * -(-REFINE_TRAIN // REFINE_BATCH)
    ucfg = networks.UNetConfig(**UNET)

    def build(path):
        rng = np.random.default_rng([seed, 3])
        splits = [phantom_configs(rng, n) for n in (REFINE_TRAIN, REFINE_VAL, REFINE_TEST)]
        loaded = _round_trip([phantom.generate(c) for part in splits for c in part], path)
        items = [(registration.pair_stack(s.images), _truth_stack(s)) for _, s in loaded]
        cfg_path = os.path.join(path, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(_refine_run_config(), fh)
        reg = networks.RegistrationNet(ucfg, seed=0)
        reg_path = os.path.join(path, "reg.lmf1")
        params.save_checkpoint(reg.store, reg_path)
        return dict(path=path, cfg=cfg_path, reg=reg, reg_path=reg_path,
                    train=items[:REFINE_TRAIN],
                    val=items[REFINE_TRAIN:REFINE_TRAIN + REFINE_VAL],
                    test=loaded[REFINE_TRAIN + REFINE_VAL:], nets=_refine_nets(ucfg))

    st = _timed_setups(build, workdir, out)
    _, w_eps, w_mot = _refine_nets(ucfg)
    diffusion.train(st["reg"], w_eps, w_mot, st["train"][:REFINE_BATCH], st["val"],
                    _diffusion_config(1), learning_rate=REFINE_LR, seed=0)
    store, eps, mot = st["nets"]
    times: list[float] = []
    n_requests = [0]

    def serve(model: str, rounds: int) -> tuple[dict[int, tuple[bytes, bytes]], bool]:
        """REFINE_TEST requests per round: each sequence's outputs, and whether repeats agree."""
        first: dict[int, tuple[bytes, bytes]] = {}
        same = True
        for _ in range(rounds):
            for i, (sample_path, _) in enumerate(st["test"]):
                out.attempted += 1
                traced = _traced(tracer, n_requests[0])
                n_requests[0] += 1
                with _Phase(tracer, traced, out, 1):
                    t0 = time.perf_counter()
                    try:
                        code, blobs = _infer_and_eval(st, model, i, sample_path)
                    except Exception as e:  # counted, the run goes on
                        out.fail(f"request {i}", 1, e)
                        continue
                    dt = time.perf_counter() - t0
                if code != 0:
                    out.fail(f"request {i}", 1, RuntimeError(f"exit code {code}"))
                    continue
                out.op_seconds[traced].append(dt)
                times.append(dt)
                same &= first.setdefault(i, blobs) == blobs
        return first, same

    # requests are served before and after training: their cost does not depend
    # on the weights, and two windows average more of the host's drift
    initial = os.path.join(st["path"], "initial.lmf1")
    params.save_checkpoint(store, initial)
    _infer_and_eval(st, initial, 0, st["test"][0][0])  # warm-up, not counted
    _, same_before = serve(initial, REQUEST_ROUNDS_BEFORE)
    out.attempted += batches
    result = None
    with _Phase(tracer, tracer is not None, out, batches):
        t0 = time.perf_counter()
        try:
            result = diffusion.train(st["reg"], eps, mot, st["train"], st["val"],
                                     _diffusion_config(epochs), learning_rate=REFINE_LR,
                                     patience=epochs, seed=0)
        except Exception as e:  # counted, the run goes on
            out.fail("joint training", batches, e)
        train_s = time.perf_counter() - t0
    if result is None:
        return out
    model = os.path.join(st["path"], "model.lmf1")
    params.save_checkpoint(store, model)
    after, same_after = serve(model, REQUEST_ROUNDS_AFTER)
    if len(after) < REFINE_TEST:
        return out

    refined, zero, worst = [], [], 0.0
    for i, (pred_blob, csv_blob) in sorted(after.items()):
        sample = st["test"][i][1]
        pred = container.read_container(_pred_path(st, i))["motions"]
        truth = _truth_stack(sample)
        mask = sample.mask.labels
        reported = _eval_epes(csv_blob)
        ours = [R.masked_epe(pred[t, 0], pred[t, 1], truth[t, 0], truth[t, 1], mask)
                for t in range(FRAMES)]
        worst = max([worst] + [abs(a - b) / max(abs(b), 1e-12) for a, b in zip(reported, ours)])
        if len(reported) != FRAMES:
            worst = np.inf
        refined.append(np.mean(reported))
        zero.append(np.mean([R.masked_epe(0.0, 0.0, truth[t, 0], truth[t, 1], mask)
                             for t in range(FRAMES)]))
    ms = np.array(times) * 1000.0
    history = [row[3] for row in result.history]  # training l_total per epoch
    ratio = float(np.mean(refined) / np.mean(zero))
    out.metrics["work_per_s"] = (epochs * REFINE_TRAIN / train_s, "1/s")
    out.metrics["op_ms_p50"] = (float(np.median(ms)), "ms")
    out.metrics["error_mm"] = (float(np.mean(refined)), "mm")
    out.metrics["objective_ratio"] = (float(history[-1] / history[0]), "1")
    out.notes.update(request_ms_p75=float(np.percentile(ms, 75)), request_samples=len(ms),
                     zero_motion_epe_mm=float(np.mean(zero)), epochs=epochs,
                     best_epoch=result.best_epoch, epoch_losses=history)
    out.check("repeated requests give identical bytes", same_before and same_after)
    out.check("refined EPE clearly below zero-motion EPE", ratio < 0.75, f"ratio {ratio:.4f}")
    out.check("eval EPE equals reference EPE", worst < 1e-9, f"rel {worst:.2e}")
    return out


def _pred_path(st: dict, i: int) -> str:
    return os.path.join(st["path"], f"pred_{i:03d}.lmf1")


def _infer_and_eval(st: dict, model: str, i: int, sample_path: str) -> tuple[int, tuple]:
    """One request: ``infer`` then ``eval`` through the CLI; (exit code, output bytes)."""
    pred = _pred_path(st, i)
    csv_path = os.path.join(st["path"], f"eval_{i:03d}.csv")
    code = _request(["infer", "--config", st["cfg"], "--sample", sample_path,
                     "--registration-model", st["reg_path"], "--model", model,
                     "--out", pred, "--seed", str(100 + i)])
    if code == 0:
        code = _request(["eval", "--sample", sample_path, "--pred", pred, "--out", csv_path])
    if code != 0:
        return code, ()
    with open(pred, "rb") as fh_p, open(csv_path, "rb") as fh_c:
        return code, (fh_p.read(), fh_c.read())


WORKLOADS = {"regnet_train": regnet_train, "direct_register": direct_register, "refine": refine}
