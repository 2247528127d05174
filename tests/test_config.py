"""Run configuration: parsing, validation, and the reference document."""

import dataclasses
import json
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


def test_reference_document_is_complete_and_loadable(tmp_path):
    path = tmp_path / "reference.json"
    write_reference(path)
    data = json.loads(path.read_text())
    assert config_from_dict(data) == RunConfig()
    # every section and every field appears in the reference
    for section in ("grid", "metric", "shooting", "registration", "nets",
                    "diffusion", "phantom"):
        assert section in data
    assert data["seed"] == 0
    assert data["diffusion"]["num_steps"] == 100
    assert data["phantom"]["twist"] == [0.1, 0.3]
    # rewriting is byte-identical
    again = tmp_path / "again.json"
    write_reference(again)
    assert again.read_bytes() == path.read_bytes()
