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
offset of the first inconsistency.  Each kind of file (sample,
checkpoint, motions) is read by ``read_checked`` with its own parse of
the records, which takes each record through ``checked_record``
(present, of the expected shape, finite); any defect is one ValueError
naming the file.  Writes go through a temporary file in the destination
directory and are renamed into place, so a crashed writer never leaves a
half-written container behind.  ``read_json`` parses the JSON inputs (run
config, manifest, sample meta), each error a ConfigError naming its source.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigError, ContainerFormatError

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


def read_checked(path, parse):
    """``parse(records)`` of the container at ``path``, with ``path`` in front of
    the message of any ValueError that the bytes or ``parse`` raise."""
    try:
        with open(path, "rb") as fh:
            return parse(_parse(fh.read()))
    except ValueError as e:
        e.args = (f"{os.fspath(path)}: {e}",)
        raise


def read_container(path) -> dict[str, np.ndarray]:
    """Parse a container, returning records in file order."""
    return read_checked(path, dict)


def checked_record(records, name: str, shape: tuple | None) -> np.ndarray:
    """Record ``name``, after checking that it is present, finite and, unless
    ``shape`` is None, of that shape."""
    if name not in records:
        raise ValueError(f"missing record {name!r}")
    arr = records[name]
    if shape is not None and arr.shape != shape:
        raise ValueError(f"record {name!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"record {name!r} contains non-finite values")
    return arr


def _json_int(value, where: str) -> int:
    """A JSON integer; anything else is a ConfigError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _finite_float(value, where: str, expected: str) -> float:
    """A JSON number as a finite float; anything else is a ConfigError naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be {expected}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def read_json(source, data: bytes | None = None) -> dict:
    """The JSON object in ``data``, or in the file ``source`` when ``data`` is None; an
    unreadable file, text that is not UTF-8, malformed JSON, an integer of over 4,300
    digits, nesting too deep to parse or a non-object is one ConfigError naming ``source``."""
    if data is None:
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as e:
            raise ConfigError(f"{source}: {e.strerror}") from e
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{source}: invalid JSON ({e})") from e
    if not isinstance(document, dict):
        raise ConfigError(f"{source}: the document must be a JSON object")
    return document


def _parse(buf: bytes) -> dict[str, np.ndarray]:
    view = memoryview(buf)
    offset = 0

    def take(nbytes: int, what: str) -> memoryview:
        """The next ``nbytes`` bytes, which must exist, for the field ``what``."""
        nonlocal offset
        if offset + nbytes > len(buf):
            raise ContainerFormatError(f"truncated container: expected {nbytes} bytes for {what}",
                                       offset=offset)
        offset += nbytes
        return view[offset - nbytes : offset]

    if take(4, "magic") != MAGIC:
        raise ContainerFormatError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}", offset=0)
    (count,) = struct.unpack("<I", take(4, "record count"))

    records: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"name length of record {i}"))
        name_offset = offset
        try:
            name = str(take(name_len, f"name of record {i}"), "utf-8")
        except UnicodeDecodeError:
            raise ContainerFormatError(f"record {i} name is not valid UTF-8",
                                       offset=name_offset) from None
        if name in records:
            raise ContainerFormatError(f"duplicate record name {name!r}", offset=name_offset)

        (rank,) = take(1, f"rank of record {name!r}")
        if rank > 32:  # numpy 1.x's ndarray limit; the writer never passes it
            raise ContainerFormatError(f"rank {rank} of record {name!r} exceeds 32", offset - 1)
        dims = [struct.unpack("<I", take(4, f"dimension {d} of record {name!r}"))[0]
                for d in range(rank)]
        (code,) = take(1, f"dtype of record {name!r}")
        if code not in _DTYPE_CODES:
            raise ContainerFormatError(f"unknown dtype code {code} in record {name!r}",
                                       offset=offset - 1)
        dtype = _DTYPE_CODES[code]
        # Python ints: hostile dims cannot wrap around to a small byte count
        payload = take(math.prod(dims) * dtype.itemsize, f"payload of record {name!r}")
        records[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()

    if offset != len(buf):
        raise ContainerFormatError(f"{len(buf) - offset} trailing bytes after last record",
                                   offset=offset)
    return records
