"""Binary checkpoint format with a trailing CRC, written atomically.

Layout (little-endian): magic "CKPT", version u32, tensor count u32, then
per tensor: name length u32, UTF-8 name, rank u32, dims u32 each, float64
payload; finally CRC32 of every preceding byte.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"CKPT"
VERSION = 1


def save_checkpoint(path, named_arrays) -> None:
    """Write (name, array) pairs; temp file plus rename keeps the write atomic."""
    path = Path(path)
    names = [name for name, _ in named_arrays]
    if len(set(names)) != len(names):
        raise FormatError("checkpoint tensor names must be unique")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(names))]
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8").tobytes())
    blob = b"".join(chunks)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing checkpoint: {path}")
    blob = path.read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"{path}: checkpoint CRC mismatch")
    version, count = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", blob, pos) if rank else ()
            pos += 4 * rank
            n_values = math.prod(dims)  # Python ints: no overflow on crafted dims
            if pos + 8 * n_values > len(blob) - 4:
                raise FormatError(f"{path}: tensor {name!r} of shape {dims} overruns the payload")
            arr = np.frombuffer(blob, dtype="<f8", count=n_values, offset=pos).reshape(dims)
            pos += 8 * n_values
            if name in out:
                raise FormatError(f"{path}: duplicate tensor name {name!r}")
            out[name] = arr.copy()
    except struct.error as e:
        raise FormatError(f"{path}: truncated checkpoint ({e})") from None
    if pos != len(blob) - 4:
        raise FormatError(f"{path}: trailing bytes after tensor payload")
    return out


def load_into(module, path) -> None:
    """Copy checkpoint arrays into a module; names and shapes must match exactly."""
    arrays = load_checkpoint(path)
    params = dict(module.named_parameters())
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise FormatError(f"{path}: checkpoint does not match architecture "
                          f"(missing {missing}, unexpected {unexpected})")
    for name, p in params.items():
        if arrays[name].shape != p.data.shape:
            raise FormatError(f"{path}: shape mismatch for {name!r}: "
                              f"{arrays[name].shape} vs {p.data.shape}")
        p.data[...] = arrays[name]


def save_module(module, path) -> None:
    save_checkpoint(path, [(name, p.data) for name, p in module.named_parameters()])
