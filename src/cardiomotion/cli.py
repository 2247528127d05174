"""Command-line entry points tying the pipeline together.

Subcommands: phantom (synthesize a dataset), register (direct LDDMM,
network pre-training, or amortized apply), train (joint refinement
training), infer (refined displacements for one sequence), strain and
eval (analytics CSVs and PGM maps), config-reference (default config
document).  Every subcommand exits 0 on success and nonzero with a
single-line diagnostic on failure; outputs are written to a temporary
file and renamed, so a crash never leaves partial files behind.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config, write_reference
from .container import atomic_write, checked_record, read_checked, read_json, write_container
from .diffusion import infer as diffusion_infer, train as diffusion_train
from .errors import ConfigError, IntegrationDivergedError
from .grid import FieldSequence, Grid2, VectorField
from .nn.networks import MotionDecoder, NoisePredictor, RegistrationNet
from .nn.params import (ParameterStore, check_learning_rate, checkpoint_records, load_checkpoint,
                        save_checkpoint)
from .nn.tensor import no_grad
from .phantom import load_sample, make_dataset, save_sample
from .registration import energy, pair_stack, register_pair, train_registration_network
from .strain import (check_window, epe, segment_mask, segmental_strain, segmental_strain_error,
                     strain_from_displacement, write_pgm)


def _atomic_text(path, text: str) -> None:
    atomic_write(path, text.encode("utf-8"))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _run_config(args) -> RunConfig:
    """The --config document, checked as written, with --seed (when given) as its seed."""
    cfg = load_config(args.config)
    if args.seed is None:
        return cfg
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return dataclasses.replace(cfg, seed=args.seed)


def _mid_cycle(num_frames: int) -> int:  # the 1-based frame that strain and eval default to
    return max(1, round(num_frames / 2))


def _refinement_nets(cfg: RunConfig, grid: Grid2, num_frames: int, registration_model: str,
                     model: str | None):
    """Registration net from its checkpoint, then the noise predictor and motion
    decoder on one store, restored from ``model`` unless it is None.  A net that
    a checkpoint restores draws no initial weights."""
    ucfg = cfg.unet_config()
    reg = RegistrationNet(ucfg, seed=None)
    load_checkpoint(reg.store, registration_model)
    store = ParameterStore()
    eps_seed, mot_seed = (None, None) if model is not None else (cfg.seed + 1, cfg.seed + 2)
    eps_net = NoisePredictor(ucfg, num_frames, store, seed=eps_seed)
    mot_net = MotionDecoder(ucfg, num_frames, grid.height, grid.width, store, seed=mot_seed)
    if model is not None:
        load_checkpoint(store, model)
    return reg, eps_net, mot_net


def _load_split(dataset_dir: str, split: str) -> list:
    path = os.path.join(dataset_dir, "manifest.json")
    manifest = read_json(path)
    for name in ("train", "validation", "test"):
        if name not in manifest:
            raise ConfigError(f"{path}: manifest missing split {name!r}")
        files = manifest[name]
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise ConfigError(f"{path}: manifest split {name!r} must be a list of file names")
    names = (manifest["train"] + manifest["validation"] + manifest["test"] if split == "all"
             else manifest[split])
    return [(name, load_sample(os.path.join(dataset_dir, name))) for name in names]


def _common_grid(items) -> Grid2:
    """The grid of the first loaded sample, after checking that every sample shares it."""
    first, sample = items[0]
    grid = sample.images.grid
    for name, s in items[1:]:
        g = s.images.grid
        if g != grid:
            raise ConfigError(
                f"{name}: grid {g.height}x{g.width} at {g.spacing:g} mm/px differs from "
                f"{grid.height}x{grid.width} at {grid.spacing:g} mm/px of {first}")
    return grid


def _motions_from_file(path, grid: Grid2, num_frames: int) -> FieldSequence:
    """The displacements of a motions file, after checking them against the sample."""
    return read_checked(path, lambda records: FieldSequence(
        grid, checked_record(records, "motions", (num_frames, 2) + grid.shape)))


def cmd_phantom(args) -> int:
    cfg = _run_config(args)
    splits = make_dataset(args.n, cfg.grid, cfg.phantom, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    manifest = {split_name: [] for split_name in splits}
    index = 0
    for split_name, samples in splits.items():
        for sample in samples:
            name = f"sample_{index:03d}.lmf1"
            save_sample(os.path.join(args.out, name), sample)
            manifest[split_name].append(name)
            index += 1
    _atomic_text(os.path.join(args.out, "manifest.json"),
                 json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {index} samples to {args.out} "
          f"({len(manifest['train'])}/{len(manifest['validation'])}/{len(manifest['test'])})")
    return 0


# A register mode returns its containers by path, its CSV log's name and rows and a
# summary line; cmd_register writes them after the mode succeeds, so a failure leaves no --out


def _register_direct(args, cfg: RunConfig, rcfg, items):
    rows = [["file", "pair", "iterations", "final_energy"]]
    containers = {}
    for name, sample in items:
        fields = []
        for k in range(len(sample.images) - 1):
            result = register_pair(rcfg, sample.images[0], sample.images[k + 1])
            fields.append(result.v0.values)
            rows.append([name, k, len(result.energy_trace) - 1, _fmt(result.energy_trace[-1])])
        containers[os.path.join(args.out, f"v0_{name}")] = {"v0": np.stack(fields)}
    return containers, "energies.csv", rows, f"registered {len(items)} sequences"


def _register_train(args, cfg: RunConfig, rcfg, items):
    if not args.model_out:
        raise ConfigError("train mode requires --model-out")
    net = RegistrationNet(cfg.unet_config(), seed=cfg.seed)
    history = train_registration_network(net, [pair_stack(s.images) for _, s in items], rcfg,
                                         epochs=args.epochs, learning_rate=args.learning_rate,
                                         seed=cfg.seed)
    rows = [["epoch", "loss"]] + [[i, _fmt(v)] for i, v in enumerate(history)]
    return ({args.model_out: checkpoint_records(net.store)}, "register_train_log.csv", rows,
            f"trained registration network: loss {history[0]:.6g} -> {history[-1]:.6g}")


def _register_apply(args, cfg: RunConfig, rcfg, items):
    if not args.model_in:
        raise ConfigError("apply mode requires --model-in")
    net = RegistrationNet(cfg.unet_config(), seed=cfg.seed)
    load_checkpoint(net.store, args.model_in)
    rows = [["file", "pair", "iterations", "final_energy"]]
    containers = {}
    for name, sample in items:
        with no_grad():
            v0 = net.forward(pair_stack(sample.images)).values
        for k, v in enumerate(v0):
            total, _, _ = energy(rcfg, VectorField(sample.images.grid, *v), sample.images[0],
                                 sample.images[k + 1])
            rows.append([name, k, 0, _fmt(total)])
        containers[os.path.join(args.out, f"v0_{name}")] = {"v0": v0}
    return (containers, "energies.csv", rows,
            f"applied registration network to {len(items)} sequences")


def cmd_register(args) -> int:
    if args.mode == "train" and args.epochs < 1:
        raise ConfigError(f"--epochs must be at least 1, got {args.epochs}")
    if args.mode == "train" and args.learning_rate is not None:
        check_learning_rate("--learning-rate", args.learning_rate)
    cfg = _run_config(args)
    items = _load_split(args.dataset, args.split)
    if not items:
        raise ConfigError(f"split {args.split!r} is empty")
    rcfg = cfg.registration_config(_common_grid(items))
    mode = {"direct": _register_direct, "train": _register_train, "apply": _register_apply}
    containers, log_name, rows, summary = mode[args.mode](args, cfg, rcfg, items)
    os.makedirs(args.out, exist_ok=True)
    for path, records in containers.items():
        write_container(path, records)
    _atomic_text(os.path.join(args.out, log_name), _csv_text(rows))
    print(summary)
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    train_items = _load_split(args.dataset, "train")
    val_items = _load_split(args.dataset, "validation")
    if not train_items:
        raise ConfigError("training split is empty")
    grid = _common_grid(train_items + val_items)
    first, sample = train_items[0]
    num_frames = len(sample.motions)
    for name, s in train_items + val_items:
        if len(s.motions) != num_frames:
            raise ConfigError(f"{name}: {len(s.motions)} frames differ from {num_frames} "
                              f"of {first}")

    reg, eps_net, mot_net = _refinement_nets(cfg, grid, num_frames, args.registration_model,
                                             args.resume)
    result = diffusion_train(
        reg, eps_net, mot_net,
        [(pair_stack(s.images), s.motions.values) for _, s in train_items],
        [(pair_stack(s.images), s.motions.values) for _, s in val_items],
        cfg.diffusion_config(), learning_rate=cfg.diffusion.learning_rate, patience=cfg.diffusion.patience,
        seed=cfg.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    rows = [["epoch", "l_diffusion", "l_motion", "l_total", "val_diffusion", "val_motion",
             "val_total"]]
    rows += [[epoch] + [_fmt(v) for v in losses] for epoch, *losses in result.history]
    _atomic_text(os.path.join(args.out, "train_log.csv"), _csv_text(rows))
    save_checkpoint(eps_net.store, os.path.join(args.out, "model.lmf1"))
    print(f"trained {len(result.history)} epochs; best validation {result.best_val:.6g} "
          f"at epoch {result.best_epoch}")
    return 0


def cmd_infer(args) -> int:
    cfg = _run_config(args)
    sample = load_sample(args.sample)
    reg, eps_net, mot_net = _refinement_nets(cfg, sample.images.grid, len(sample.motions),
                                             args.registration_model, args.model)
    dcfg = cfg.diffusion_config()
    rng = np.random.default_rng(cfg.seed)
    motions = diffusion_infer(sample.images, reg, eps_net, mot_net, dcfg.schedule, dcfg.kernel, rng)
    write_container(args.out, {"motions": motions})
    print(f"wrote {motions.shape[0]}-frame displacement sequence to {args.out}")
    return 0


def cmd_strain(args) -> int:
    window = check_window((args.window_low, args.window_high))
    sample = load_sample(args.sample)
    motions = (_motions_from_file(args.motions, sample.images.grid, len(sample.motions))
               if args.motions else sample.motions)
    num_frames = len(motions)
    frame = args.frame if args.frame is not None else _mid_cycle(num_frames)
    if not 1 <= frame <= num_frames:
        raise ConfigError(f"--frame {frame} outside 1..{num_frames}")
    center = sample.mask.centroid()
    smap = strain_from_displacement(motions[frame - 1], center)
    seg = segment_mask(sample.mask, center, sample.insertion_angle)
    means = segmental_strain(smap, seg)
    rows = [["segment", "mean_ecc"]]
    rows += [[k + 1, _fmt(means[k]) if np.isfinite(means[k]) else "missing"] for k in range(6)]
    _atomic_text(args.out_prefix + "_strain.csv", _csv_text(rows))
    ecc_masked = np.where(sample.mask.labels & smap.valid, smap.ecc, np.nan)
    write_pgm(args.out_prefix + "_ecc.pgm", ecc_masked, window)
    print(f"wrote {args.out_prefix}_strain.csv and {args.out_prefix}_ecc.pgm (frame {frame})")
    return 0


def cmd_eval(args) -> int:
    sample = load_sample(args.sample)
    truth = sample.motions
    pred = _motions_from_file(args.pred, sample.images.grid, len(truth))
    center = sample.mask.centroid()
    seg = segment_mask(sample.mask, center, sample.insertion_angle)
    rows = [["quantity", "frame", "segment", "value"]]
    for t in range(len(truth)):
        rows.append(["epe", t + 1, "", _fmt(epe(pred[t], truth[t], sample.mask))])
    peak = _mid_cycle(len(truth))
    sp = strain_from_displacement(pred[peak - 1], center)
    st = strain_from_displacement(truth[peak - 1], center)
    errs = segmental_strain_error(sp, st, seg)
    for k in range(6):
        value = _fmt(errs[k]) if np.isfinite(errs[k]) else "missing"
        rows.append(["strain_error", peak, k + 1, value])
    _atomic_text(args.out, _csv_text(rows))
    print(f"wrote {args.out}")
    return 0


def cmd_config_reference(args) -> int:
    write_reference(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiomotion",
        description="Cardiac motion estimation: registration, latent refinement, strain.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # options of every configured subcommand
    run.add_argument("--config", help="run configuration JSON")
    run.add_argument("--seed", type=int, help="seed of every draw (default: the config's seed)")

    p = commands.add_parser("phantom", parents=[run],
                       help="synthesize an annulus dataset with ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of sequences")
    p.set_defaults(func=cmd_phantom)

    p = commands.add_parser("register", parents=[run],
                       help="LDDMM registration: direct, train, or apply")
    p.add_argument("--dataset", required=True, help="dataset directory with manifest.json")
    p.add_argument("--mode", choices=("direct", "train", "apply"), required=True)
    p.add_argument("--split", default="train", choices=("train", "validation", "test", "all"))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model-in", help="checkpoint to apply")
    p.add_argument("--model-out", help="checkpoint to write (train mode)")
    p.add_argument("--epochs", type=int, default=50, help="train-mode epochs")
    p.add_argument("--learning-rate", type=float, default=None,
                   help="train-mode learning rate (default: registration lr)")
    p.set_defaults(func=cmd_register)

    p = commands.add_parser("train", parents=[run],
                       help="jointly train the noise predictor and motion decoder")
    p.add_argument("--dataset", required=True)
    p.add_argument("--registration-model", required=True, help="pre-trained encoder checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("infer", parents=[run], help="refined displacement sequence for one sample")
    p.add_argument("--sample", required=True, help="phantom sample file")
    p.add_argument("--registration-model", required=True)
    p.add_argument("--model", required=True, help="refinement checkpoint")
    p.add_argument("--out", required=True, help="output displacement file")
    p.set_defaults(func=cmd_infer)

    p = commands.add_parser("strain", help="strain map and segment means for one frame")
    p.add_argument("--sample", required=True, help="sample file (mask, insertion angle)")
    p.add_argument("--motions", help="displacement file (default: the sample's ground truth)")
    p.add_argument("--frame", type=int, help="1-based frame (default: mid-cycle)")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--window-low", type=float, default=-0.25, help="PGM window lower bound")
    p.add_argument("--window-high", type=float, default=0.25, help="PGM window upper bound")
    p.set_defaults(func=cmd_strain)

    p = commands.add_parser("eval", help="end-point error and segmental strain error vs ground truth")
    p.add_argument("--sample", required=True, help="sample file with ground truth")
    p.add_argument("--pred", required=True, help="predicted displacement file")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("config-reference", help="write the default configuration document")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_config_reference)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run is reported by its one error line, not by numpy's
        # warnings on the way; training workers inherit this errstate
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, IntegrationDivergedError, OSError) as e:
        # a key or file name from the input may hold line breaks; the diagnostic is one line
        print("error: " + "\\n".join(str(e).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
