"""End-to-end command-line pipeline on a small synthetic dataset."""

import csv
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cardiomotion
import cardiomotion.cli
import cardiomotion.diffusion
from cardiomotion.cli import main
from cardiomotion.config import config_from_dict
from cardiomotion.container import read_container, write_container
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.nn.networks import MotionDecoder, NoisePredictor, UNetConfig
from cardiomotion.nn.params import ParameterStore, save_checkpoint
from cardiomotion.nn.tensor import constant
from cardiomotion.phantom import load_sample

_CFG = {
    "grid": {"height": 32, "width": 32},
    "metric": {"alpha": 200.0, "gamma": 1.0, "power": 1},
    "shooting": {"num_steps": 5},
    "registration": {"sigma": 0.05, "learning_rate": 0.01, "max_iterations": 150,
                     "convergence_tol": 1e-9},
    "nets": {"base_channels": 4, "latent_channels": 4, "num_down": 2, "time_embed_dim": 8},
    "diffusion": {"num_steps": 3, "kernel_std": 1.0, "batch_size": 2, "max_epochs": 15,
                  "patience": 10, "learning_rate": 1e-3},
    "phantom": {"num_frames": 4, "r_inner": [6.0, 8.0], "r_outer": [12.0, 14.0]},
    "seed": 0,
}


def _energies(out_dir):
    with open(os.path.join(out_dir, "energies.csv")) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(_CFG))
    paths = {
        "root": root, "cfg": str(cfg_path),
        "data": str(root / "data"), "data2": str(root / "data2"),
        "direct": str(root / "direct"), "regtrain": str(root / "regtrain"),
        "regmodel": str(root / "reg.lmf1"), "apply": str(root / "apply"),
        "joint": str(root / "joint"),
        "pred": str(root / "pred.lmf1"), "pred_again": str(root / "pred_again.lmf1"),
        "pred_other": str(root / "pred_other.lmf1"),
    }
    run = lambda argv: main(argv)
    assert run(["phantom", "--config", paths["cfg"], "--out", paths["data"], "--n", "3"]) == 0
    assert run(["phantom", "--config", paths["cfg"], "--out", paths["data2"], "--n", "3"]) == 0
    assert run(["register", "--config", paths["cfg"], "--dataset", paths["data"],
                "--mode", "direct", "--split", "train", "--out", paths["direct"]]) == 0
    assert run(["register", "--config", paths["cfg"], "--dataset", paths["data"],
                "--mode", "train", "--split", "train", "--out", paths["regtrain"],
                "--model-out", paths["regmodel"], "--epochs", "200",
                "--learning-rate", "0.001"]) == 0
    assert run(["register", "--config", paths["cfg"], "--dataset", paths["data"],
                "--mode", "apply", "--split", "train", "--out", paths["apply"],
                "--model-in", paths["regmodel"]]) == 0
    assert run(["train", "--config", paths["cfg"], "--dataset", paths["data"],
                "--registration-model", paths["regmodel"], "--out", paths["joint"]]) == 0
    sample = os.path.join(paths["data"], "sample_002.lmf1")  # the test-split sample
    model = os.path.join(paths["joint"], "model.lmf1")
    for out, seed in ((paths["pred"], "7"), (paths["pred_again"], "7"),
                      (paths["pred_other"], "8")):
        assert run(["infer", "--config", paths["cfg"], "--sample", sample,
                    "--registration-model", paths["regmodel"], "--model", model,
                    "--out", out, "--seed", seed]) == 0
    paths["sample"] = sample
    paths["model"] = model
    return paths


def test_phantom_outputs_and_determinism(pipeline):
    manifest = json.loads(open(os.path.join(pipeline["data"], "manifest.json")).read())
    names = manifest["train"] + manifest["validation"] + manifest["test"]
    assert len(names) == 3
    assert (len(manifest["train"]), len(manifest["validation"]), len(manifest["test"])) == (1, 1, 1)
    for name in names:
        a = open(os.path.join(pipeline["data"], name), "rb").read()
        b = open(os.path.join(pipeline["data2"], name), "rb").read()
        assert a == b  # same seed, byte-identical dataset


def test_direct_registration_energies(pipeline):
    rows = _energies(pipeline["direct"])
    assert len(rows) == 4  # one row per (0, tau) pair
    for row in rows:
        assert float(row["final_energy"]) >= 0.0
        assert int(row["iterations"]) >= 1
    # the cycle closes, so the final pair compares identical frames
    assert float(rows[-1]["final_energy"]) < 1e-9
    v0 = read_container(os.path.join(pipeline["direct"], "v0_sample_000.lmf1"))["v0"]
    assert v0.shape == (4, 2, 32, 32)


def test_amortized_apply_approaches_direct_energy(pipeline):
    direct = sum(float(r["final_energy"]) for r in _energies(pipeline["direct"]))
    amortized = sum(float(r["final_energy"]) for r in _energies(pipeline["apply"]))
    assert amortized < 1.25 * direct
    log = open(os.path.join(pipeline["regtrain"], "register_train_log.csv")).read().splitlines()
    assert log[0] == "epoch,loss"
    assert len(log) == 201
    losses = [float(line.split(",")[1]) for line in log[1:]]
    assert losses[-1] < losses[0]


def test_joint_training_artifacts(pipeline):
    log = open(os.path.join(pipeline["joint"], "train_log.csv")).read().splitlines()
    assert log[0] == "epoch,l_diffusion,l_motion,l_total,val_diffusion,val_motion,val_total"
    assert 2 <= len(log) <= 16
    assert os.path.exists(pipeline["model"])


def test_infer_is_seed_deterministic(pipeline):
    a = open(pipeline["pred"], "rb").read()
    b = open(pipeline["pred_again"], "rb").read()
    c = open(pipeline["pred_other"], "rb").read()
    assert a == b
    assert a != c
    motions = read_container(pipeline["pred"])["motions"]
    assert motions.shape == (4, 2, 32, 32)


def test_strain_on_ground_truth_matches_analytic_value(pipeline, tmp_path):
    prefix = str(tmp_path / "gt")
    assert main(["strain", "--sample", pipeline["sample"], "--out-prefix", prefix]) == 0
    with open(prefix + "_strain.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["segment"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    sample = load_sample(pipeline["sample"])
    a = sample.config.contraction_amp
    exact = ((1.0 - a) ** 2 - 1.0) / 2.0  # peak-frame circumferential strain
    for r in rows:
        assert float(r["mean_ecc"]) == pytest.approx(exact, abs=1e-9)
    pgm = open(prefix + "_ecc.pgm", "rb").read()
    assert pgm.startswith(b"P5\n32 32\n255\n")
    assert len(pgm) == len(b"P5\n32 32\n255\n") + 32 * 32


def test_eval_of_truth_is_zero_error(pipeline, tmp_path):
    sample = load_sample(pipeline["sample"])
    truth = sample.motions.values
    pred_path = str(tmp_path / "truth.lmf1")
    write_container(pred_path, {"motions": truth})
    out = str(tmp_path / "eval.csv")
    assert main(["eval", "--sample", pipeline["sample"], "--pred", pred_path,
                 "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    epe_rows = [r for r in rows if r["quantity"] == "epe"]
    strain_rows = [r for r in rows if r["quantity"] == "strain_error"]
    assert len(epe_rows) == 4 and len(strain_rows) == 6
    for r in rows:
        assert float(r["value"]) == 0.0


def test_eval_of_prediction_reports_finite_errors(pipeline, tmp_path):
    out = str(tmp_path / "eval_pred.csv")
    assert main(["eval", "--sample", pipeline["sample"], "--pred", pipeline["pred"],
                 "--out", out]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["value"] != "missing":
            assert np.isfinite(float(r["value"]))


def test_config_reference_round_trips(tmp_path):
    out = str(tmp_path / "ref.json")
    assert main(["config-reference", "--out", out]) == 0
    from cardiomotion.config import RunConfig, config_from_dict

    assert config_from_dict(json.loads(open(out).read())) == RunConfig()


def test_cli_error_paths(pipeline, tmp_path, capsys):
    # missing dataset directory
    assert main(["register", "--dataset", str(tmp_path / "nope"), "--mode", "direct",
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    # invalid config document
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"grdi": {}}')
    assert main(["phantom", "--config", str(bad_cfg), "--out", str(tmp_path / "d"),
                 "--n", "3"]) == 1
    assert "unknown config key" in capsys.readouterr().err
    # frame outside the sequence
    assert main(["strain", "--sample", pipeline["sample"], "--frame", "99",
                 "--out-prefix", str(tmp_path / "s")]) == 1
    assert "outside" in capsys.readouterr().err
    # train mode without a checkpoint destination
    assert main(["register", "--dataset", pipeline["data"], "--mode", "train",
                 "--out", str(tmp_path / "o2")]) == 1
    assert "--model-out" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()
    # apply mode without a checkpoint to apply
    assert main(["register", "--dataset", pipeline["data"], "--mode", "apply",
                 "--out", str(tmp_path / "o3")]) == 1
    assert "--model-in" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()
    # wrong checkpoint kind for infer
    assert main(["infer", "--config", pipeline["cfg"], "--sample", pipeline["sample"],
                 "--registration-model", pipeline["regmodel"],
                 "--model", pipeline["regmodel"], "--out", str(tmp_path / "p.lmf1")]) == 1
    capsys.readouterr()
    # corrupted container
    broken = tmp_path / "broken.lmf1"
    broken.write_bytes(b"JUNKJUNK")
    assert main(["eval", "--sample", pipeline["sample"], "--pred", str(broken),
                 "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert "byte offset" in err and str(broken) in err


def _rewrite_meta(src, dst, edit):
    records = read_container(src)
    meta = json.loads(records["meta"].tobytes().decode("utf-8"))
    edit(meta)
    records["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    write_container(dst, records)


def _single_error_line(err: str, needle: str):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0], err


_META_EDITS = {
    "grid": lambda meta: meta.pop("grid"),
    "num_frames": lambda meta: meta.update(num_frames=None),
}


@pytest.mark.parametrize("field", sorted(_META_EDITS))
def test_strain_on_malformed_sample_meta_is_one_error_line(pipeline, tmp_path, capsys, field):
    bad = str(tmp_path / "bad.lmf1")
    _rewrite_meta(pipeline["sample"], bad, _META_EDITS[field])
    assert main(["strain", "--sample", bad, "--out-prefix", str(tmp_path / "x")]) == 1
    _single_error_line(capsys.readouterr().err, repr(field))
    assert not list(tmp_path.glob("x_*"))


# a meta edit that writes a non-finite number, or an integer beyond the float
# range -> the field that the message names
_NON_FINITE_META = {
    "angle_nan": (lambda meta: meta.update(insertion_angle=float("nan")), "insertion_angle"),
    "angle_inf": (lambda meta: meta.update(insertion_angle=float("inf")), "insertion_angle"),
    "angle_huge": (lambda meta: meta.update(insertion_angle=10**400), "insertion_angle"),
    "spacing_inf": (lambda meta: meta["grid"].__setitem__(2, float("inf")), "grid"),
    "spacing_huge": (lambda meta: meta["grid"].__setitem__(2, 10**400), "grid"),
    "center_nan": (lambda meta: meta["center"].__setitem__(0, float("nan")), "center"),
    "center_huge": (lambda meta: meta["center"].__setitem__(0, 10**400), "center"),
}


@pytest.mark.parametrize("command", ["strain", "eval"])
@pytest.mark.parametrize("defect", sorted(_NON_FINITE_META))
def test_non_finite_sample_meta_is_one_error_line_naming_the_file(pipeline, tmp_path, capsys,
                                                                  defect, command):
    edit, field = _NON_FINITE_META[defect]
    bad = str(tmp_path / "bad.lmf1")
    _rewrite_meta(pipeline["sample"], bad, edit)
    argv = {"strain": ["strain", "--sample", bad, "--out-prefix", str(tmp_path / "x")],
            "eval": ["eval", "--sample", bad, "--pred", pipeline["pred"],
                     "--out", str(tmp_path / "x_eval.csv")]}[command]
    assert main(argv) == 1
    _single_error_line(capsys.readouterr().err, f"{bad}: sample meta field {field!r}")
    assert not list(tmp_path.glob("x*"))


def _drop_images_frames(records):
    records["images"] = records["images"][:-2]


# a defect of a sample's records -> the message that follows the file's path
_SAMPLE_DEFECTS = {
    "missing_record": (lambda records: records.pop("mask"), "missing record 'mask'"),
    "missing_meta_field": (None, "sample meta lacks field 'grid'"),
    "wrong_shape": (_drop_images_frames,
                    "record 'images' has shape (3, 32, 32), expected (5, 32, 32)"),
}


def _write_defective_sample(src, dst, defect):
    edit, needle = _SAMPLE_DEFECTS[defect]
    if edit is None:
        _rewrite_meta(src, dst, lambda meta: meta.pop("grid"))
    else:
        records = read_container(src)
        edit(records)
        write_container(dst, records)
    return f"{dst}: {needle}"


@pytest.mark.parametrize("defect", sorted(_SAMPLE_DEFECTS))
def test_defective_sample_is_one_error_line_naming_the_file(pipeline, tmp_path, capsys, defect):
    bad = str(tmp_path / "bad.lmf1")
    needle = _write_defective_sample(pipeline["sample"], bad, defect)
    assert main(["strain", "--sample", bad, "--out-prefix", str(tmp_path / "x")]) == 1
    _single_error_line(capsys.readouterr().err, needle)
    assert not list(tmp_path.glob("x_*"))


def test_register_over_a_dataset_names_its_defective_sample(pipeline, tmp_path, capsys):
    # one sample of three lacks a meta field: the message says which one
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    bad = str(data / "sample_001.lmf1")
    needle = _write_defective_sample(os.path.join(pipeline["data"], "sample_001.lmf1"), bad,
                                     "missing_meta_field")
    out = tmp_path / "o"
    assert main(["register", "--config", pipeline["cfg"], "--dataset", str(data),
                 "--mode", "direct", "--split", "all", "--out", str(out)]) == 1
    _single_error_line(capsys.readouterr().err, needle)
    assert not out.exists()


def _mixed_grid_dataset(pipeline, tmp_path):
    """A copy of the pipeline's dataset whose sample_001 (validation) is on a 36x36 grid."""
    cfg = tmp_path / "cfg36.json"
    cfg.write_text(json.dumps(dict(_CFG, grid={"height": 36, "width": 36})))
    other = tmp_path / "data36"
    assert main(["phantom", "--config", str(cfg), "--out", str(other), "--n", "3"]) == 0
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    shutil.copyfile(other / "sample_001.lmf1", data / "sample_001.lmf1")
    return data


@pytest.mark.parametrize("command", [["register", "--mode", "direct", "--split", "all"],
                                     ["register", "--mode", "train", "--split", "all",
                                      "--epochs", "1"],
                                     ["train"]],
                         ids=["register-direct", "register-train", "train"])
def test_dataset_with_mixed_grids_is_one_error_line_naming_the_file(pipeline, tmp_path, capsys,
                                                                     command):
    # refused before any registration or training, whichever sample comes first
    data = _mixed_grid_dataset(pipeline, tmp_path)
    out, model = tmp_path / "o", tmp_path / "reg.lmf1"
    argv = command + ["--config", pipeline["cfg"], "--dataset", str(data), "--out", str(out)]
    if command[0] == "register":
        argv += ["--model-out", str(model)]
    else:
        argv += ["--registration-model", pipeline["regmodel"]]
    capsys.readouterr()
    assert main(argv) == 1
    _single_error_line(capsys.readouterr().err,
                       "sample_001.lmf1: grid 36x36 at 1 mm/px differs from 32x32 at 1 mm/px "
                       "of sample_000.lmf1")
    assert not out.exists() and not model.exists()


def test_register_on_list_manifest_is_one_error_line(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "manifest.json").write_text(json.dumps(["train", "validation", "test"]))
    assert main(["register", "--dataset", str(data), "--mode", "direct",
                 "--out", str(tmp_path / "o")]) == 1
    _single_error_line(capsys.readouterr().err, "manifest")


def test_register_with_an_overflowing_metric_is_one_error_line(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CFG, "metric": {"alpha": 1e200, "gamma": 1.0, "power": 2}}))
    out = tmp_path / "o"
    assert main(["register", "--config", str(cfg), "--dataset", pipeline["data"],
                 "--mode", "direct", "--out", str(out)]) == 1
    _single_error_line(capsys.readouterr().err, "metric symbol overflows at alpha=1e+200")
    assert not out.exists()


@pytest.mark.parametrize("alpha, power", [(1e200, 1), (1e150, 2)])
def test_register_with_a_metric_beyond_float32_is_one_error_line(pipeline, tmp_path, capsys,
                                                                   alpha, power):
    # finite in float64 but not in float32: refused by name, before any shooting
    # could overflow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CFG, "metric": {"alpha": alpha, "gamma": 1.0, "power": power}}))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["register", "--config", str(cfg), "--dataset", pipeline["data"],
                     "--mode", "direct", "--out", str(out)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _single_error_line(capsys.readouterr().err,
                       f"metric symbol overflows at alpha={alpha}, gamma=1.0, power={power}")
    assert not out.exists()


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_register_train_rejects_epochs_below_one(pipeline, tmp_path, capsys, epochs):
    model = tmp_path / "reg.lmf1"
    assert main(["register", "--config", pipeline["cfg"], "--dataset", pipeline["data"],
                 "--mode", "train", "--out", str(tmp_path / "o"), "--model-out", str(model),
                 "--epochs", epochs]) == 1
    _single_error_line(capsys.readouterr().err, "--epochs")
    assert not model.exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("lr", ["0", "-5", "nan"])
def test_register_train_rejects_learning_rate_not_positive(pipeline, tmp_path, capsys, lr):
    model = tmp_path / "reg.lmf1"
    assert main(["register", "--config", pipeline["cfg"], "--dataset", pipeline["data"],
                 "--mode", "train", "--out", str(tmp_path / "o"), "--model-out", str(model),
                 "--epochs", "1", "--learning-rate", lr]) == 1
    _single_error_line(capsys.readouterr().err, "--learning-rate")
    assert not model.exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("config_seed, flag, needle", [
    (-1, [], "seed must be non-negative, got -1"),
    (0, ["--seed", "-4"], "--seed must be non-negative, got -4"),
], ids=["config", "flag"])
def test_negative_seed_is_one_error_line_naming_it(tmp_path, capsys, config_seed, flag, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_CFG, seed=config_seed)))
    out = tmp_path / "d"
    assert main(["phantom", "--config", str(cfg), "--out", str(out), "--n", "3"] + flag) == 1
    _single_error_line(capsys.readouterr().err, needle)
    assert not out.exists()


def _with(section, **values):
    return dict(_CFG, **{section: dict(_CFG[section], **values)})


# bad keys and types, then values that the section types accept but a domain class refuses;
# the last two phantom ranges hold draws that PhantomConfig or the sample mask refuse at
# some seeds only
_BAD_DOCUMENTS = {
    "unknown_key": {"grdi": {}},
    "negative_seed": {"seed": -1},
    "height_not_integer": {"grid": {"height": "x"}},
    "section_not_object": {"metric": []},
    "key_with_line_break": {"gr\nid": {}},
    "grid_height_2": {"grid": {"height": 2}},
    "r_inner_above_r_outer": {"phantom": {"r_inner": [8.0, 8.0], "r_outer": [5.5, 6.0]}},
    "metric_alpha_0": _with("metric", alpha=0),
    "sigma_0": _with("registration", sigma=0),
    "shooting_steps_0": _with("shooting", num_steps=0),
    "diffusion_learning_rate_0": _with("diffusion", learning_rate=0),
    "patience_-3": _with("diffusion", patience=-3),
    "time_embed_dim_3": _with("nets", time_embed_dim=3),
    "kernel_std_1.7e308": _with("diffusion", kernel_std=1.7e308),
    "contraction_up_to_0.4": _with("phantom", contraction=[0.05, 0.4]),
    "radii_ranges_overlap": _with("phantom", r_inner=[6.0, 13.5], r_outer=[12.0, 14.0]),
}


def _one_error_line_naming(cfg, out, capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: "), lines
    assert lines[0].count(str(cfg)) == 1 and not out.exists()


@pytest.mark.parametrize("name", list(_BAD_DOCUMENTS))
def test_bad_config_key_or_value_is_one_error_line_naming_the_file(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_BAD_DOCUMENTS[name]))
    out = tmp_path / "d"
    for seed in range(4):
        assert main(["phantom", "--config", str(cfg), "--out", str(out), "--n", "3",
                     "--seed", str(seed)]) == 1
        _one_error_line_naming(cfg, out, capsys)


def test_register_refuses_a_zero_sigma_at_load(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_BAD_DOCUMENTS["sigma_0"]))
    out = tmp_path / "o"
    assert main(["register", "--config", str(cfg), "--dataset", pipeline["data"],
                 "--mode", "direct", "--out", str(out)]) == 1
    _one_error_line_naming(cfg, out, capsys)


def test_strain_with_empty_window_writes_nothing(pipeline, tmp_path, capsys):
    prefix = str(tmp_path / "s")
    for window in (["--window-low=1", "--window-high=1"],
                   ["--window-low=-inf", "--window-high=inf"], ["--window-high=inf"]):
        assert main(["strain", "--sample", pipeline["sample"], "--out-prefix", prefix]
                    + window) == 1
        _single_error_line(capsys.readouterr().err, "window")
        assert not os.path.exists(prefix + "_strain.csv")
        assert not os.path.exists(prefix + "_ecc.pgm")


def _train_argv(pipeline, cfg, out):
    return ["train", "--config", str(cfg), "--dataset", pipeline["data"],
            "--registration-model", pipeline["regmodel"], "--out", str(out)]


@pytest.mark.parametrize("key, value, needle", [
    ("learning_rate", 0, "diffusion.learning_rate must be positive and finite"),
    ("learning_rate", -1, "diffusion.learning_rate must be positive and finite"),
    ("loss_alpha", float("nan"), "diffusion.loss_alpha must be finite"),
    ("patience", -3, "patience must be non-negative"),
], ids=["learning_rate=0", "learning_rate=-1", "loss_alpha=NaN", "patience=-3"])
def test_train_rejects_bad_config_before_any_output(pipeline, tmp_path, capsys, key, value,
                                                    needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_CFG, diffusion=dict(_CFG["diffusion"], **{key: value}))))
    assert main(_train_argv(pipeline, cfg, tmp_path / "o")) == 1
    _single_error_line(capsys.readouterr().err, needle)
    assert not (tmp_path / "o").exists()


def test_train_failing_mid_run_leaves_no_output(pipeline, tmp_path, capsys, monkeypatch):
    real_step = cardiomotion.diffusion.adam_step
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("injected optimizer failure")
        real_step(*args, **kwargs)

    monkeypatch.setattr(cardiomotion.diffusion, "adam_step", failing_step)
    assert main(_train_argv(pipeline, pipeline["cfg"], tmp_path / "o")) == 1
    _single_error_line(capsys.readouterr().err, "injected optimizer failure")
    assert len(calls) == 3
    assert not (tmp_path / "o").exists()


# the motion-loss call that returns NaN -> the zero-based optimisation step the error names;
# one training sequence, so each epoch makes one training call, then one validation call
@pytest.mark.parametrize("bad_call, step", [(3, 1), (2, 0)], ids=["training", "validation"])
def test_train_diverging_is_one_error_line_naming_the_step(pipeline, tmp_path, capsys,
                                                           monkeypatch, bad_call, step):
    real_loss = cardiomotion.diffusion.motion_loss
    calls = []

    def diverging_loss(*args, **kwargs):
        calls.append(None)
        loss = real_loss(*args, **kwargs)
        return constant(np.nan) if len(calls) == bad_call else loss

    monkeypatch.setattr(cardiomotion.diffusion, "motion_loss", diverging_loss)
    assert main(_train_argv(pipeline, pipeline["cfg"], tmp_path / "o")) == 1
    _single_error_line(capsys.readouterr().err,
                       f"diffusion training diverged (non-finite values) at step {step}")
    assert len(calls) == bad_call
    assert not (tmp_path / "o").exists()


def test_train_resume_carries_the_optimizer_on(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_CFG, diffusion=dict(_CFG["diffusion"], max_epochs=2,
                                                         patience=2))))
    first = str(tmp_path / "a" / "model.lmf1")
    assert main(_train_argv(pipeline, cfg, tmp_path / "a")) == 0
    assert main(_train_argv(pipeline, cfg, tmp_path / "b") + ["--resume", first]) == 0
    step_a = read_container(first)["meta/step"].item()
    step_b = read_container(str(tmp_path / "b" / "model.lmf1"))["meta/step"].item()
    assert step_a > 0 and step_b == 2 * step_a

    # a checkpoint of nets with another latent width does not fit the configured nets
    ucfg = UNetConfig(in_channels=2, base_channels=4, latent_channels=2, num_down=2,
                      time_embed_dim=8)
    store = ParameterStore()
    NoisePredictor(ucfg, 4, store, seed=1)
    MotionDecoder(ucfg, 4, 32, 32, store, seed=2)
    other = str(tmp_path / "other.lmf1")
    save_checkpoint(store, other)
    capsys.readouterr()
    assert main(_train_argv(pipeline, cfg, tmp_path / "c") + ["--resume", other]) == 1
    _single_error_line(capsys.readouterr().err, other)
    assert not (tmp_path / "c").exists()


def test_diffusion_parts_derive_kernel_radius_from_std():
    cfg = config_from_dict(dict(_CFG, diffusion=dict(_CFG["diffusion"], kernel_std=1.5)))
    assert cfg.diffusion_config().kernel.radius == 5


def test_apply_with_negative_checkpoint_step_is_one_error_line(pipeline, tmp_path, capsys):
    records = read_container(pipeline["regmodel"])
    records["meta/step"] = np.asarray(-1.0)
    bad = str(tmp_path / "reg.lmf1")
    write_container(bad, records)
    assert main(["register", "--config", pipeline["cfg"], "--dataset", pipeline["data"],
                 "--mode", "apply", "--out", str(tmp_path / "o"), "--model-in", bad]) == 1
    _single_error_line(capsys.readouterr().err, "meta/step")
    assert not (tmp_path / "o").exists()


def test_register_direct_diverging_on_a_later_sequence_leaves_no_output(pipeline, tmp_path,
                                                                         capsys, monkeypatch):
    real_register = cardiomotion.cli.register_pair
    calls = []

    def diverging(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:  # the first pair of the second sequence
            raise IntegrationDivergedError(3, "registration energy")
        return real_register(*args, **kwargs)

    monkeypatch.setattr(cardiomotion.cli, "register_pair", diverging)
    assert main(["register", "--config", pipeline["cfg"], "--dataset", pipeline["data"],
                 "--mode", "direct", "--split", "all", "--out", str(tmp_path / "o")]) == 1
    _single_error_line(capsys.readouterr().err, "registration energy diverged")
    assert len(calls) == 5
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["strain", "eval"])
def test_motions_with_the_wrong_frame_count_are_one_error_line(pipeline, tmp_path, capsys,
                                                               command):
    truth = load_sample(pipeline["sample"]).motions.values
    with_nan = truth.copy()
    with_nan[1, 0, 5, 5] = np.nan
    for name, motions, needle in (
            ("short.lmf1", truth[:2],
             "record 'motions' has shape (2, 2, 32, 32), expected (4, 2, 32, 32)"),
            ("nan.lmf1", with_nan, "record 'motions' contains non-finite values")):
        path = str(tmp_path / name)
        write_container(path, {"motions": motions})
        argv = {"strain": ["strain", "--sample", pipeline["sample"], "--motions", path,
                           "--out-prefix", str(tmp_path / "x")],
                "eval": ["eval", "--sample", pipeline["sample"], "--pred", path,
                         "--out", str(tmp_path / "x_eval.csv")]}[command]
        assert main(argv) == 1
        _single_error_line(capsys.readouterr().err, f"{path}: {needle}")
        assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("record", ["images", "motions"])
def test_sample_with_a_non_finite_value_is_one_error_line(pipeline, tmp_path, capsys, record):
    records = read_container(pipeline["sample"])
    records[record][1, 0, 5] = np.nan
    bad = str(tmp_path / "bad.lmf1")
    write_container(bad, records)
    assert main(["eval", "--sample", bad, "--pred", pipeline["pred"],
                 "--out", str(tmp_path / "e.csv")]) == 1
    _single_error_line(capsys.readouterr().err,
                       f"{bad}: record '{record}' contains non-finite values")
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("record", ["param/mot.out.w", "param/eps.out.w", None],
                         ids=["nan_mot", "nan_eps", "truncated"])
def test_infer_with_an_unusable_model_is_one_error_line(pipeline, tmp_path, capsys, record):
    bad = tmp_path / "model.lmf1"
    if record is None:
        with open(pipeline["model"], "rb") as fh:
            bad.write_bytes(fh.read()[:-100])
        needle = "truncated container"
    else:
        records = read_container(pipeline["model"])
        records[record].flat[0] = np.nan
        write_container(bad, records)
        needle = f"record '{record}' contains non-finite values"
    out = tmp_path / "p.lmf1"
    assert main(["infer", "--config", pipeline["cfg"], "--sample", pipeline["sample"],
                 "--registration-model", pipeline["regmodel"], "--model", str(bad),
                 "--out", str(out)]) == 1
    _single_error_line(capsys.readouterr().err, f"{bad}: {needle}")
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs_in_subprocess(tmp_path):
    out = tmp_path / "ref.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cardiomotion.cli", "config-reference", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    bad = subprocess.run(
        [sys.executable, "-m", "cardiomotion.cli", "eval", "--sample", "missing.lmf1",
         "--pred", "missing.lmf1", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith("error:")


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_thread_count_that_is_not_a_positive_integer_is_one_error_line(
        tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("CARDIOMOTION_THREADS", threads)
    out = tmp_path / "ref.json"
    assert main(["config-reference", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: CARDIOMOTION_THREADS must be a positive integer, got {threads!r}\n"
    assert not out.exists()


# one child process per BLAS thread count: the CLI copies CARDIOMOTION_THREADS
# into the BLAS variables before numpy loads, so each count needs a fresh process
_PIPELINE_SCRIPT = """
import os, sys
from cardiomotion.cli import main
cfg, out = sys.argv[1], sys.argv[2]
data, reg, joint = out + "/data", out + "/reg.lmf1", out + "/joint"
steps = [
    ["phantom", "--config", cfg, "--out", data, "--n", "3"],
    ["register", "--config", cfg, "--dataset", data, "--mode", "train", "--out", out + "/regtrain",
     "--model-out", reg, "--epochs", "1"],
    ["train", "--config", cfg, "--dataset", data, "--registration-model", reg, "--out", joint],
    ["infer", "--config", cfg, "--sample", data + "/sample_002.lmf1", "--registration-model", reg,
     "--model", joint + "/model.lmf1", "--out", out + "/pred.lmf1", "--seed", "7"],
]
for argv in steps:
    assert main(argv) == 0, argv
print(os.environ["OPENBLAS_NUM_THREADS"])
"""


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_CFG, diffusion=dict(_CFG["diffusion"], max_epochs=2))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cardiomotion.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", _PIPELINE_SCRIPT, str(cfg), str(out)],
                              env=dict(env, CARDIOMOTION_THREADS=threads),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == threads
        outputs[threads] = {str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
    assert {"reg.lmf1", "joint/model.lmf1", "pred.lmf1"} <= set(outputs["1"])
    assert outputs["1"].keys() == outputs["2"].keys()
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], name
