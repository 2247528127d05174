"""Run configuration: parsing, validation, and the reference document."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from cardiomotion.config import RunConfig, config_from_dict, load_config, write_reference
from cardiomotion.errors import ConfigError


def test_defaults_round_trip():
    cfg = RunConfig()
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_partial_document_overrides_only_named_keys():
    cfg = config_from_dict({"grid": {"height": 56}, "seed": 7})
    assert cfg.grid.height == 56
    assert cfg.grid.width == 64  # untouched default
    assert cfg.seed == 7
    assert cfg.metric.alpha == 3.0
    # the default phantom ranges reach an outer radius of 24, which a height of 32 cannot hold
    with pytest.raises(ValueError, match="r_outer 24.0 plus center_jitter 0.0 exceeds 14.0"):
        config_from_dict({"grid": {"height": 32}})


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown config key: grid.heihgt"):
        config_from_dict({"grid": {"heihgt": 32}})
    with pytest.raises(ConfigError, match="unknown config key: grdi"):
        config_from_dict({"grdi": {}})


def test_type_validation():
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict({"grid": {"height": 32.5}})
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"metric": {"alpha": "three"}})
    with pytest.raises(ConfigError, match="two-element list"):
        config_from_dict({"phantom": {"twist": [0.1, 0.2, 0.3]}})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        config_from_dict({"grid": 3})
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict([1, 2])


def test_negative_seed_rejected_by_name():
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        config_from_dict({"seed": -1})
    assert config_from_dict({"seed": 0}).seed == 0


def test_non_finite_numbers_rejected(tmp_path):
    nan, inf = float("nan"), float("inf")
    for section, key, value in (("metric", "alpha", nan), ("diffusion", "loss_alpha", inf),
                                ("registration", "sigma", -inf),
                                ("phantom", "twist", [0.1, nan])):
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            config_from_dict({section: {key: value}})
    # Python's json reads NaN and Infinity literals
    doc = tmp_path / "nan.json"
    doc.write_text('{"diffusion": {"loss_alpha": NaN}}')
    with pytest.raises(ConfigError, match="diffusion.loss_alpha must be finite"):
        load_config(doc)


def test_numbers_beyond_the_float_range_rejected(tmp_path):
    # Python's json reads any integer; float() of one with 401 digits overflows
    doc = tmp_path / "big.json"
    for section, key, text in (("metric", "alpha", "1" + "0" * 400),
                               ("phantom", "twist", "[0.1, -1" + "0" * 400 + "]")):
        doc.write_text(f'{{"{section}": {{"{key}": {text}}}}}')
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            load_config(doc)


def test_list_elements_must_be_numbers():
    for element in ("a", None, True):
        with pytest.raises(ConfigError, match="phantom.twist must be a list of two numbers"):
            config_from_dict({"phantom": {"twist": [element, 0.3]}})
        with pytest.raises(ConfigError, match="phantom.r_inner must be a list of two numbers"):
            config_from_dict({"phantom": {"r_inner": [8.0, element]}})


def test_tuple_fields_parse_from_lists():
    cfg = config_from_dict({"phantom": {"contraction": [0.06, 0.1]}})
    assert cfg.phantom.contraction == (0.06, 0.1)
    assert isinstance(cfg.phantom.contraction, tuple)


def test_int_accepted_for_float_field():
    cfg = config_from_dict({"registration": {"sigma": 1}})
    assert cfg.registration.sigma == 1.0
    assert isinstance(cfg.registration.sigma, float)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_readme_quick_start_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    document = readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    cfg = config_from_dict(json.loads(document))
    assert cfg.grid.shape == (32, 32) and cfg.phantom.num_frames == 4


# the default document: every section, every key in its order and every default
_REFERENCE = {
    "grid": {"height": 64, "width": 64, "spacing": 1.0},
    "metric": {"alpha": 3.0, "gamma": 1.0, "power": 3},
    "shooting": {"num_steps": 10},
    "registration": {"sigma": 0.03, "learning_rate": 0.0001, "max_iterations": 500,
                     "convergence_tol": 1e-06},
    "nets": {"base_channels": 16, "latent_channels": 16, "num_down": 2, "time_embed_dim": 16},
    "diffusion": {"num_steps": 100, "beta_start": 0.0001, "beta_end": 0.02, "kernel_std": 1.0,
                  "loss_alpha": 0.01, "lambda_eps": 0.0001, "lambda_m": 0.0001,
                  "batch_size": 32, "max_epochs": 2000, "patience": 50,
                  "learning_rate": 0.0001},
    "phantom": {"num_frames": 8, "contraction": [0.05, 0.15], "twist": [0.1, 0.3],
                "r_inner": [8.0, 12.0], "r_outer": [18.0, 24.0], "center_jitter": 0.0,
                "smoothing_std": 1.5},
    "seed": 0,
}


def test_reference_document_is_complete_and_loadable(tmp_path):
    path = tmp_path / "reference.json"
    write_reference(path)
    assert path.read_text() == json.dumps(_REFERENCE, indent=2) + "\n"
    assert config_from_dict(json.loads(path.read_text())) == RunConfig()
    # rewriting is byte-identical
    again = tmp_path / "again.json"
    write_reference(again)
    assert again.read_bytes() == path.read_bytes()


def test_reversed_phantom_range_is_refused_as_the_section_is_read(tmp_path):
    # the phantom section refuses it before RunConfig's checks reach the zero sigma
    path = tmp_path / "reversed.json"
    for key in ("contraction", "twist", "r_inner", "r_outer"):
        document = {"registration": {"sigma": 0}, "phantom": {key: [0.3, 0.2]}}
        with pytest.raises(ValueError, match=f"^range {key} has lo > hi$"):
            config_from_dict(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: range {key} has lo > hi$"):
            load_config(path)


@pytest.mark.parametrize("section, key, value, needle", [
    ("shooting", "num_steps", 10**12, "num_steps must be in [1, 10000], got 1000000000000"),
    ("phantom", "num_frames", 10**12, "num_frames must be in [1, 100], got 1000000000000"),
    ("nets", "num_down", 11, "num_down must be in [1, 10], got 11"),
    ("nets", "base_channels", 257, "base_channels * 2**num_down must be in [1, 1024], got 1028"),
    ("nets", "latent_channels", 1025, "latent_channels must be in [1, 1024], got 1025"),
    ("nets", "time_embed_dim", 1026,
     "time_embed_dim must be an even integer in [2, 1024], got 1026"),
], ids=["shooting.num_steps", "phantom.num_frames", "nets.num_down", "nets.base_channels",
        "nets.latent_channels", "nets.time_embed_dim"])
def test_sizes_the_run_allocates_by_are_bounded_at_load(section, key, value, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        config_from_dict({section: {key: value}})


def test_sizes_at_their_bounds_load():
    cfg = config_from_dict({"shooting": {"num_steps": 10_000}, "phantom": {"num_frames": 100},
                            "nets": {"base_channels": 1, "num_down": 10, "latent_channels": 1024,
                                     "time_embed_dim": 1024}})
    assert cfg.unet_config().base_channels * 2**cfg.nets.num_down == 1024
