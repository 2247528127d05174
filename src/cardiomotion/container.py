"""Flat binary container for named arrays.

Layout (all integers little-endian):

    magic   4 bytes  b"LMF1"
    count   u32      number of records
    record  repeated count times:
        name_len  u16
        name      name_len bytes, UTF-8
        rank      u8
        dims      rank x u32
        dtype     u8   (0 = float64, 1 = uint8)
        payload   row-major array bytes

Round trips are bit-exact.  Malformed input is rejected with a
ContainerFormatError whose message names the file and pins the byte
offset of the first inconsistency.  Writes go through a temporary file
in the destination directory and are renamed into place, so a crashed
writer never leaves a half-written container behind.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import ContainerFormatError

MAGIC = b"LMF1"

_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("u1")}


def _code_for(arr: np.ndarray) -> int:
    if arr.dtype == np.float64:
        return 0
    if arr.dtype == np.uint8:
        return 1
    raise ValueError(f"unsupported array dtype {arr.dtype}; use float64 or uint8")


def atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file renamed into place."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_container(path, records) -> None:
    """Serialize an ordered name -> array mapping to ``path`` atomically."""
    parts = [MAGIC, struct.pack("<I", len(records))]
    for name, arr in records.items():
        arr = np.ascontiguousarray(arr)
        code = _code_for(arr)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"record name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(struct.pack("<B", code))
        parts.append(arr.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C"))
    atomic_write(path, b"".join(parts))


def _need(buf: bytes, offset: int, nbytes: int, what: str) -> None:
    if offset + nbytes > len(buf):
        raise ContainerFormatError(
            f"truncated container: expected {nbytes} bytes for {what}", offset=offset
        )


def read_container(path) -> dict[str, np.ndarray]:
    """Parse a container, returning records in file order."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse(buf)
    except ContainerFormatError as e:
        e.args = (f"{os.fspath(path)}: {e}",)
        raise


def _parse(buf: bytes) -> dict[str, np.ndarray]:
    _need(buf, 0, 4, "magic")
    if buf[:4] != MAGIC:
        raise ContainerFormatError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}", offset=0)
    offset = 4
    _need(buf, offset, 4, "record count")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4

    records: dict[str, np.ndarray] = {}
    for i in range(count):
        _need(buf, offset, 2, f"name length of record {i}")
        (name_len,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        name_offset = offset
        _need(buf, offset, name_len, f"name of record {i}")
        try:
            name = buf[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerFormatError(
                f"record {i} name is not valid UTF-8", offset=name_offset
            ) from None
        offset += name_len
        if name in records:
            raise ContainerFormatError(f"duplicate record name {name!r}", offset=name_offset)

        _need(buf, offset, 1, f"rank of record {name!r}")
        rank = buf[offset]
        offset += 1
        dims = []
        for d in range(rank):
            _need(buf, offset, 4, f"dimension {d} of record {name!r}")
            dims.append(struct.unpack_from("<I", buf, offset)[0])
            offset += 4

        _need(buf, offset, 1, f"dtype of record {name!r}")
        code = buf[offset]
        if code not in _DTYPE_CODES:
            raise ContainerFormatError(
                f"unknown dtype code {code} in record {name!r}", offset=offset
            )
        offset += 1

        dtype = _DTYPE_CODES[code]
        n_items = 1
        for dim in dims:
            n_items *= dim
        nbytes = n_items * dtype.itemsize
        _need(buf, offset, nbytes, f"payload of record {name!r}")
        flat = np.frombuffer(buf, dtype=dtype, count=n_items, offset=offset)
        records[name] = flat.reshape(dims).copy()
        offset += nbytes

    if offset != len(buf):
        raise ContainerFormatError(
            f"{len(buf) - offset} trailing bytes after last record", offset=offset
        )
    return records
