"""Checkpoint container: magic, version, JSON header, raw little-endian arrays.

Layout: 4 magic bytes "BCRS", a u32 little-endian format version, a u32
little-endian header length, the UTF-8 JSON header, then the raw array bytes.
The header lists (name, shape, offset, dtype) per array in storage order,
offsets relative to the start of the data section, plus a free-form "meta"
object (run config, optimizer step).  Headers are dumped with sorted keys and
no whitespace so that load followed by save reproduces the file bit for bit.

Saving writes a temporary file next to the target and renames it over the
target once complete, so a failed or interrupted save leaves any previous
checkpoint untouched.
"""
from __future__ import annotations

import json
import math
import os
import struct
from typing import Dict, Sequence, Tuple

import numpy as np

MAGIC = b"BCRS"
FORMAT_VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays: Sequence[Tuple[str, np.ndarray]], meta: Dict) -> None:
    entries = []
    blobs = []
    offset = 0
    seen = set()
    for name, arr in arrays:
        if name in seen:
            raise CheckpointError(f"duplicate array name {name!r}")
        seen.add(name)
        code = arr.dtype.str
        if code not in _DTYPES:
            raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
        blob = np.ascontiguousarray(arr).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "dtype": code})
        blobs.append(blob)
        offset += len(blob)
    header = {"arrays": entries, "meta": meta}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    lengths = struct.pack("<I", FORMAT_VERSION) + struct.pack("<I", len(header_bytes))
    write_atomic(path, [MAGIC, lengths, header_bytes, *blobs])


def write_atomic(path, chunks: Sequence[bytes]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, fsync it, then
    rename it over ``path``: readers see the old file or the whole new one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Returns (arrays in storage order, meta); validates structure as it reads.

    Any malformed file raises CheckpointError: a header that is not an object,
    entries without a string name, an integer-list shape or a non-negative
    integer offset, unknown dtypes, duplicate names, arrays that overlap or run
    past the end, and bytes left over after the last array.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated before header")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header_end = 12 + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None
    data = raw[header_end:]
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    entries = header.get("arrays", [])
    meta = header.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header 'arrays' must be a list and 'meta' an object")
    arrays: Dict[str, np.ndarray] = {}
    spans = []
    for i, entry in enumerate(entries):
        name, dtype, shape, start = _check_entry(path, i, entry)
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate array name {name!r}")
        end = start + math.prod(shape) * dtype.itemsize
        if end > len(data):
            raise CheckpointError(f"{path}: array {name!r} extends past end of file")
        arrays[name] = np.frombuffer(data[start:end], dtype=dtype).reshape(shape).copy()
        spans.append((start, end, name))
    spans.sort()
    for (_, prev_end, prev), (start, _, name) in zip(spans, spans[1:]):
        if start < prev_end:
            raise CheckpointError(f"{path}: arrays {prev!r} and {name!r} overlap")
    data_end = spans[-1][1] if spans else 0
    if len(data) > data_end:
        raise CheckpointError(f"{path}: {len(data) - data_end} trailing bytes after the arrays")
    return arrays, meta


def is_json_int(value) -> bool:
    """Whether a parsed JSON value is an integer; bool is an int subclass, but
    true is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def copy_named(arrays: Dict[str, np.ndarray], targets: Sequence[Tuple[str, np.ndarray]]) -> None:
    """Copy ``arrays[name]`` into the buffer of every (name, buffer) target, in
    the buffer's dtype; a missing name or a different shape raises."""
    for name, buf in targets:
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing array {name!r}")
        src = arrays[name]
        if src.shape != buf.shape:
            raise CheckpointError(
                f"checkpoint array {name!r} has shape {src.shape}, expected {buf.shape}"
            )
        buf[...] = src


def _check_entry(path, i: int, entry):
    """(name, dtype, shape, offset) of one header entry, or CheckpointError."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{path}: array entry {i} is not an object")
    name = entry.get("name")
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: array entry {i} has no string 'name'")
    code = entry.get("dtype")
    dtype = _DTYPES.get(code) if isinstance(code, str) else None
    if dtype is None:
        raise CheckpointError(f"{path}: array {name!r} has unknown dtype {code!r}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(is_json_int(d) and d >= 0 for d in shape):
        raise CheckpointError(f"{path}: array {name!r} shape {shape!r} is not a list of extents")
    offset = entry.get("offset")
    if not is_json_int(offset) or offset < 0:
        raise CheckpointError(f"{path}: array {name!r} offset {offset!r} is not a non-negative integer")
    return name, dtype, tuple(shape), offset
