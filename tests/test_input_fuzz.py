"""A Hypothesis fuzz of the JSON inputs: a valid config, dataset manifest or
sample meta with one key dropped, one key added or one value replaced by an
arbitrary JSON value is either accepted (exit 0) or refused with exactly one
``error:`` line on stderr (exit 1), never a traceback."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardiomotion.cli import main
from cardiomotion.config import PhantomSection, RegistrationSection, RunConfig, ShootingSection
from cardiomotion.container import read_container, write_container
from cardiomotion.grid import Grid2

# a 16x16, 2-frame phantom, each command as cheap as it can be
_CONFIG = dataclasses.asdict(RunConfig(
    grid=Grid2(height=16, width=16),
    shooting=ShootingSection(num_steps=2),
    registration=RegistrationSection(max_iterations=1),
    phantom=PhantomSection(num_frames=2, r_inner=(2.5, 3.0), r_outer=(5.5, 6.0),
                           smoothing_std=1.0)))

_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def _json_values(names=()):
    """Any JSON value, or one of ``names``.  Integers stay small, so that a grid
    size or frame count drawn here keeps the command cheap."""
    leaves = (st.none() | st.booleans() | st.integers(-5, 40) | st.floats()
              | st.text(max_size=8))
    if names:
        leaves |= st.sampled_from(names)
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                        max_leaves=6)


def _slots(doc, path=()):
    """The path of every object or list in a JSON document."""
    if isinstance(doc, (dict, list)):
        yield path
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from _slots(doc[key], path + (key,))


def _mutate(data, doc, names=()):
    """A copy of ``doc`` with one key dropped, one added or one value replaced."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    container = doc
    for key in data.draw(st.sampled_from(slots), label="path"):
        container = container[key]
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    ops = ["add"] + (["drop", "replace"] if keys else [])
    op = data.draw(st.sampled_from(ops), label="operation")
    if op == "add":
        value = data.draw(_json_values(names), label="value")
        if isinstance(container, dict):
            container[data.draw(st.text(max_size=8), label="key")] = value
        else:
            container.insert(data.draw(st.integers(0, len(container)), label="index"), value)
    else:
        key = data.draw(st.sampled_from(keys), label="key")
        if op == "drop":
            del container[key]
        else:
            container[key] = data.draw(_json_values(names), label="value")
    return doc


def _run(argv) -> None:
    """Run the CLI; it must exit 0, or 1 with exactly one ``error:`` line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error: ")), \
        (code, err.getvalue())


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(_CONFIG))
    data = root / "data"
    assert main(["phantom", "--config", str(cfg), "--out", str(data), "--n", "3"]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    records = read_container(data / manifest["test"][0])
    return {"cfg": str(cfg), "data": data, "manifest": manifest,
            "names": sorted(os.listdir(data)), "records": records,
            "meta": json.loads(records["meta"].tobytes().decode("utf-8"))}


@_SETTINGS
@given(data=st.data())
def test_mutated_config(data):
    doc = _mutate(data, _CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        _run(["phantom", "--config", cfg, "--out", os.path.join(tmp, "d"), "--n", "3"])


@_SETTINGS
@given(data=st.data())
def test_mutated_manifest(dataset, data):
    doc = _mutate(data, dataset["manifest"], dataset["names"])
    (dataset["data"] / "manifest.json").write_text(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        _run(["register", "--config", dataset["cfg"], "--dataset", str(dataset["data"]),
              "--mode", "direct", "--out", tmp])


@_SETTINGS
@given(data=st.data())
def test_mutated_sample_meta(dataset, data):
    meta = json.dumps(_mutate(data, dataset["meta"])).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        sample = os.path.join(tmp, "sample.lmf1")
        write_container(sample, dict(dataset["records"], meta=np.frombuffer(meta, np.uint8)))
        _run(["strain", "--sample", sample, "--out-prefix", os.path.join(tmp, "s")])
