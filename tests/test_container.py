"""Binary container: bit-exact round trips and precise corruption diagnostics."""

import os
import struct

import numpy as np
import pytest

from cardiomotion.container import MAGIC, atomic_write, read_container, write_container
from cardiomotion.errors import ContainerFormatError


def _write(tmp_path, records, name="data.lmf1"):
    path = tmp_path / name
    write_container(path, records)
    return path


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = {
        "a/floats": rng.standard_normal((3, 4, 5)),
        "b/bytes": rng.integers(0, 256, (7,), dtype=np.uint8),
        "c/scalarish": np.array([np.pi]),
        "d/empty": np.zeros((0, 3)),
    }
    path = _write(tmp_path, records)
    back = read_container(path)
    assert list(back) == list(records)  # file order preserved
    for name, arr in records.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert arr.tobytes() == back[name].tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    records = {"x": np.arange(12.0).reshape(3, 4), "y": np.uint8([1, 2, 3])}
    p1 = _write(tmp_path, records, "one.lmf1")
    p2 = _write(tmp_path, records, "two.lmf1")
    assert p1.read_bytes() == p2.read_bytes()


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_container(tmp_path / "bad.lmf1", {"x": np.zeros(3, dtype=np.int32)})


def test_non_contiguous_arrays_serialized_row_major(tmp_path):
    arr = np.arange(24.0).reshape(4, 6)
    path = _write(tmp_path, {"t": arr.T})
    assert np.array_equal(read_container(path)["t"], arr.T)


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.lmf1"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(ContainerFormatError) as exc:
        read_container(path)
    assert exc.value.offset == 0
    assert str(path) in str(exc.value)
    assert "magic" in str(exc.value)


def test_truncated_header_reports_offset(tmp_path):
    path = tmp_path / "short.lmf1"
    path.write_bytes(MAGIC + b"\x01\x00")  # count field cut in half
    with pytest.raises(ContainerFormatError) as exc:
        read_container(path)
    assert exc.value.offset == 4
    assert str(path) in str(exc.value)


def test_truncated_payload_reports_offset(tmp_path):
    good = _write(tmp_path, {"x": np.arange(8.0)})
    blob = good.read_bytes()
    cut = tmp_path / "cut.lmf1"
    cut.write_bytes(blob[:-16])  # drop the last two float64 values
    with pytest.raises(ContainerFormatError) as exc:
        read_container(cut)
    # the payload starts right after magic+count+name_len+name+rank+dim+dtype
    assert exc.value.offset == 4 + 4 + 2 + 1 + 1 + 4 + 1
    assert "payload" in str(exc.value) and str(cut) in str(exc.value)


def test_unknown_dtype_code_reports_offset(tmp_path):
    good = _write(tmp_path, {"x": np.arange(4.0)})
    blob = bytearray(good.read_bytes())
    dtype_offset = 4 + 4 + 2 + 1 + 1 + 4  # dtype byte position for record "x"
    assert blob[dtype_offset] == 0
    blob[dtype_offset] = 99
    bad = tmp_path / "dtype.lmf1"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ContainerFormatError) as exc:
        read_container(bad)
    assert exc.value.offset == dtype_offset
    assert str(bad) in str(exc.value)
    assert "dtype code 99" in str(exc.value)


def test_duplicate_names_rejected(tmp_path):
    name = b"x"
    rec = struct.pack("<H", 1) + name + struct.pack("<B", 1) + struct.pack("<I", 1)
    rec += struct.pack("<B", 0) + struct.pack("<d", 1.0)
    blob = MAGIC + struct.pack("<I", 2) + rec + rec
    path = tmp_path / "dup.lmf1"
    path.write_bytes(blob)
    with pytest.raises(ContainerFormatError) as exc:
        read_container(path)
    assert "duplicate" in str(exc.value)
    assert exc.value.offset == len(MAGIC) + 4 + len(rec) + 2
    assert str(path) in str(exc.value)


def test_invalid_utf8_name_rejected(tmp_path):
    blob = MAGIC + struct.pack("<I", 1) + struct.pack("<H", 2) + b"\xff\xfe"
    path = tmp_path / "utf8.lmf1"
    path.write_bytes(blob)
    with pytest.raises(ContainerFormatError) as exc:
        read_container(path)
    assert exc.value.offset == 10
    assert str(path) in str(exc.value)
    assert "UTF-8" in str(exc.value)


def test_trailing_bytes_rejected(tmp_path):
    good = _write(tmp_path, {"x": np.arange(2.0)})
    blob = good.read_bytes()
    bad = tmp_path / "trail.lmf1"
    bad.write_bytes(blob + b"\x00\x00\x00")
    with pytest.raises(ContainerFormatError) as exc:
        read_container(bad)
    assert exc.value.offset == len(blob)
    assert str(bad) in str(exc.value)
    assert "trailing" in str(exc.value)


def test_write_leaves_no_temp_files(tmp_path):
    _write(tmp_path, {"x": np.zeros(4)})
    assert os.listdir(tmp_path) == ["data.lmf1"]


def test_overwrite_replaces_atomically(tmp_path):
    path = tmp_path / "same.lmf1"
    write_container(path, {"x": np.zeros(4)})
    write_container(path, {"x": np.ones(4)})
    assert np.array_equal(read_container(path)["x"], np.ones(4))
    assert os.listdir(tmp_path) == ["same.lmf1"]


def test_failed_rename_removes_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        atomic_write(tmp_path / "taken", b"payload")
    assert os.listdir(tmp_path) == ["taken"]


def test_record_name_length_limit(tmp_path):
    with pytest.raises(ValueError):
        write_container(tmp_path / "long.lmf1", {"n" * 70000: np.zeros(1)})


def test_empty_container_round_trips(tmp_path):
    path = _write(tmp_path, {})
    assert read_container(path) == {}
