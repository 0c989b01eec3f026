"""Binary checkpoint format with a trailing CRC, written atomically.

Layout (little-endian): magic "CKPT", version u32, tensor count u32, then
per tensor: name length u32, UTF-8 name, rank u32, dims u32 each, float64
payload; finally CRC32 of every preceding byte. Names have any length, so a
payload's file offset has any alignment: each is read into its own array,
never viewed in place.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError, write_atomic

MAGIC = b"CKPT"
VERSION = 1


def save_checkpoint(path, named_arrays) -> None:
    """Write (name, array) pairs atomically."""
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
    write_atomic(path, blob)


class _Body:
    """The bytes of an open checkpoint file before its trailing CRC, read in
    order and never past their end, with a running CRC32 of every byte read."""

    def __init__(self, f, size: int):
        self.f = f
        self.left = size - 4
        self.crc = 0

    def read(self, n: int) -> bytes:
        data = self.f.read(n) if n <= self.left else b""
        if len(data) != n:
            raise ValueError("a field runs past the end of the file")
        self.left -= n
        self.crc = zlib.crc32(data, self.crc)
        return data

    def read_into(self, arr: np.ndarray) -> None:
        raw = arr.reshape(-1).view(np.uint8)  # unlike memoryview.cast, works at size 0
        if raw.size > self.left or self.f.readinto(raw) != raw.size:
            raise ValueError("a payload runs past the end of the file")
        self.left -= raw.size
        self.crc = zlib.crc32(raw, self.crc)

    def crc_matches(self) -> bool:
        """Read the rest of the body into the CRC, then compare the stored one."""
        while self.left > 0:
            chunk = self.f.read(min(self.left, 1 << 20))
            if not chunk:
                return False
            self.left -= len(chunk)
            self.crc = zlib.crc32(chunk, self.crc)
        stored = self.f.read(4)
        return len(stored) == 4 and struct.unpack("<I", stored)[0] == self.crc


def _read_tensors(body: _Body, path: Path) -> dict[str, np.ndarray]:
    version, count = struct.unpack("<II", body.read(8))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", body.read(4))
        name = body.read(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", body.read(4))
        dims = struct.unpack(f"<{rank}I", body.read(4 * rank))
        if 8 * math.prod(dims) > body.left:  # Python ints: no overflow on crafted dims
            raise FormatError(f"{path}: tensor {name!r} of shape {dims} overruns the payload")
        if name in out:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        out[name] = np.empty(dims, dtype="<f8")
        body.read_into(out[name])
    if body.left:
        raise FormatError(f"{path}: trailing bytes after tensor payload")
    return out


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The named float64 arrays of the checkpoint at `path`, each its own fresh,
    aligned and writeable array.

    One buffered pass reads the header fields in small reads and each payload
    straight into its array, feeding every byte to a running CRC32; sizes are
    checked against the file's length before anything is allocated. Past the
    magic, a CRC mismatch is reported before any other fault, wherever the
    damage lies. Every fault raises FormatError.
    """
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"missing checkpoint: {path}")
    with open(path, "rb") as f:
        body = _Body(f, os.fstat(f.fileno()).st_size)
        if body.left < 12 or body.read(4) != MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        fault = None
        try:
            out = _read_tensors(body, path)
        except FormatError as e:
            fault = e
        except ValueError as e:  # truncation, a name not UTF-8, dims numpy rejects
            fault = FormatError(f"{path}: malformed checkpoint ({e})")
        if not body.crc_matches():
            raise FormatError(f"{path}: checkpoint CRC mismatch")
    if fault is not None:
        raise fault
    return out


def load_into(module, path) -> None:
    """Bind each checkpoint array, uncopied, to the parameter of its name. Every name and
    shape is checked first, so a failed load leaves every parameter as it was."""
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
    for name, p in params.items():
        p.data = arrays[name]


def save_module(module, path) -> None:
    save_checkpoint(path, [(name, p.data) for name, p in module.named_parameters()])
