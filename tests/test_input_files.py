"""Malformed input files: each is one error line naming the file, and a
deterministic sweep of container corruptions never escapes as anything but a
ValueError that names the file."""

import json
import math
import struct

import numpy as np
import pytest

from cardiomotion.cli import main
from cardiomotion.container import read_container, write_container
from cardiomotion.errors import ContainerFormatError
from cardiomotion.grid import Grid2
from cardiomotion.nn.networks import RegistrationNet, UNetConfig
from cardiomotion.nn.params import ParameterStore, load_checkpoint, save_checkpoint
from cardiomotion.phantom import PhantomConfig, generate, load_sample, save_sample

_NETS = {"base_channels": 4, "latent_channels": 4, "num_down": 2, "time_embed_dim": 8}

_TOO_DEEP = b"[" * 200_000 + b"]" * 200_000

# the JSON inputs that no reader accepts -> the message that follows the file's path
_BAD_JSON = {
    "malformed": (b"not json", "invalid JSON (Expecting value"),
    "not_utf8": (b"\xff\xfe{}", "invalid JSON ('utf-8' codec can't decode byte 0xff"),
    "huge_integer": (b'{"seed": ' + b"9" * 5000 + b"}", "invalid JSON (Exceeds the limit (4300"),
    "too_deep": (_TOO_DEEP, "invalid JSON (maximum recursion depth exceeded"),
    "not_an_object": (b"[1, 2]", "the document must be a JSON object"),
}


def _single_error_line(err: str, needle: str):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0], err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 16x16, 2-frame sample, a small checkpoint, and a config whose nets fit
    a registration checkpoint."""
    root = tmp_path_factory.mktemp("inputs")
    sample = str(root / "sample.lmf1")
    save_sample(sample, generate(PhantomConfig(grid=Grid2(16, 16), num_frames=2, r_inner=2.5,
                                               r_outer=5.5, smoothing_std=1.0, seed=3)))
    checkpoint = str(root / "store.lmf1")
    save_checkpoint(_store(), checkpoint)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"nets": _NETS}))
    regmodel = str(root / "reg.lmf1")
    save_checkpoint(RegistrationNet(UNetConfig(in_channels=2, **_NETS), seed=0).store, regmodel)
    return {"sample": sample, "checkpoint": checkpoint, "cfg": str(cfg),
            "regmodel": regmodel}


def _store() -> ParameterStore:
    store = ParameterStore()
    rng = np.random.default_rng(0)
    store.add("a.w", rng.standard_normal((3, 4)))
    store.add("b", rng.standard_normal(2))
    return store


# ---------------------------------------------------------------------------
# every malformed input file is one error line naming that file
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("form", sorted(_BAD_JSON))
def test_malformed_config_is_one_error_line_naming_it(tmp_path, capsys, form):
    bad = tmp_path / "cfg.json"
    document, needle = _BAD_JSON[form]
    bad.write_bytes(document)
    out = tmp_path / "d"
    assert main(["phantom", "--config", str(bad), "--out", str(out), "--n", "3"]) == 1
    _single_error_line(capsys.readouterr().err, f"{bad}: {needle}")
    assert not out.exists()


@pytest.mark.parametrize("form", sorted(_BAD_JSON))
def test_malformed_manifest_is_one_error_line_naming_it(tmp_path, capsys, form):
    data = tmp_path / "data"
    data.mkdir()
    document, needle = _BAD_JSON[form]
    (data / "manifest.json").write_bytes(document)
    out = tmp_path / "o"
    assert main(["register", "--dataset", str(data), "--mode", "direct", "--out", str(out)]) == 1
    _single_error_line(capsys.readouterr().err, f"{data / 'manifest.json'}: {needle}")
    assert not out.exists()


# each writes one defective file at ``bad`` from the fixture's good ones, and
# returns the message that must follow the file's path


def _deep_meta(files, bad):
    records = read_container(files["sample"])
    records["meta"] = np.frombuffer(_TOO_DEEP, dtype=np.uint8)
    write_container(bad, records)
    return "sample meta: invalid JSON (maximum recursion depth exceeded"


def _truncated_sample(files, bad):
    blob = _read_bytes(files["sample"])
    with open(bad, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    return "truncated container"


def _nan_moment(files, bad):
    records = read_container(files["regmodel"])
    name = next(k for k in records if k.startswith("m1/"))
    records[name].flat[0] = np.nan
    write_container(bad, records)
    return f"record '{name}' contains non-finite values"


def _short_motions(files, bad):
    write_container(bad, {"motions": read_container(files["sample"])["motions"][:1]})
    return "record 'motions' has shape (1, 2, 16, 16), expected (2, 2, 16, 16)"


def _strain_of_sample(files, bad):
    return ["strain", "--sample", bad, "--out-prefix", "x"]


# a defective file -> its writer and the command line that reads it
_DEFECTIVE_FILES = {
    "sample_deep_meta": (_deep_meta, _strain_of_sample),
    "sample_truncated": (_truncated_sample, _strain_of_sample),
    "checkpoint_nan_moment": (_nan_moment, lambda f, bad: [
        "infer", "--config", f["cfg"], "--sample", f["sample"], "--registration-model", bad,
        "--model", f["checkpoint"], "--out", "x.lmf1"]),
    "motions_wrong_shape": (_short_motions, lambda f, bad: [
        "strain", "--sample", f["sample"], "--motions", bad, "--out-prefix", "x"]),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTIVE_FILES))
def test_defective_input_file_is_one_error_line_naming_it(files, tmp_path, capsys, monkeypatch,
                                                          defect):
    write, argv = _DEFECTIVE_FILES[defect]
    bad = str(tmp_path / "bad.lmf1")
    needle = write(files, bad)
    monkeypatch.chdir(tmp_path)
    assert main(argv(files, bad)) == 1
    _single_error_line(capsys.readouterr().err, f"{bad}: {needle}")
    assert not list(tmp_path.glob("x*"))


# ---------------------------------------------------------------------------
# a deterministic sweep of container corruptions
# ---------------------------------------------------------------------------


def _layout(blob: bytes):
    """The byte offsets of the file header and of every record header, and each
    record's payload range by name, read independently of the program's parser."""
    headers = list(range(8))
    payloads = {}
    offset = 8
    for _ in range(struct.unpack_from("<I", blob, 4)[0]):
        start = offset
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2 : offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        rank = blob[offset]
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 1)
        offset += 1 + 4 * rank
        itemsize = {0: 8, 1: 1}[blob[offset]]
        offset += 1
        headers += range(start, offset)
        payloads[name] = range(offset, offset + itemsize * math.prod(dims))
        offset = payloads[name].stop
    assert offset == len(blob)
    return headers, payloads


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cuts(blob: bytes) -> list[int]:
    """Every header offset, and a stride through the payloads."""
    headers, payloads = _layout(blob)
    return sorted(set(headers) | {i for r in payloads.values() for i in r[::97]})


@pytest.mark.parametrize("kind", ["sample", "checkpoint"])
def test_every_cut_of_a_container_is_a_format_error_at_or_before_the_cut(files, tmp_path, kind):
    blob = _read_bytes(files[kind])
    cut_path = tmp_path / "cut.lmf1"
    cuts = _cuts(blob)
    assert len(cuts) > 50
    for cut in cuts:
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(ContainerFormatError) as exc:
            read_container(cut_path)
        assert exc.value.offset <= cut, cut
        assert str(exc.value).startswith(f"{cut_path}: "), cut


def _load_checkpoint(path):
    load_checkpoint(_store(), path)


@pytest.mark.parametrize("kind, load", [("sample", load_sample),
                                        ("checkpoint", _load_checkpoint)],
                         ids=["sample", "checkpoint"])
def test_overwritten_header_or_meta_bytes_are_a_value_error_naming_the_file(
        files, tmp_path, kind, load):
    blob = _read_bytes(files[kind])
    headers, payloads = _layout(blob)
    positions = headers + list(payloads.get("meta", []))
    bad = tmp_path / "bad.lmf1"
    # any other exception type escapes the loop and fails the test
    for i in positions:
        for value in (0x00, 0xFF):
            if blob[i] == value:
                continue
            bad.write_bytes(blob[:i] + bytes([value]) + blob[i + 1 :])
            with pytest.raises(ValueError) as exc:
                load(bad)
            assert str(exc.value).startswith(f"{bad}: "), (i, value)


def test_strain_on_cut_samples_is_one_error_line(files, tmp_path, capsys):
    blob = _read_bytes(files["sample"])
    cut_path = tmp_path / "cut.lmf1"
    for cut in np.linspace(0, len(blob) - 1, 10).astype(int):
        cut_path.write_bytes(blob[:cut])
        assert main(["strain", "--sample", str(cut_path),
                     "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {cut_path}: "), (cut, err)
    assert not list(tmp_path.glob("x*"))
