"""Exceptions shared across modules (mapped to CLI exit codes in cli.py), a UTF-8
reader and the atomic writer every durable output goes through."""

import os
from pathlib import Path


class ConfigError(ValueError):
    """Bad or unknown configuration key/value (exit code 2)."""


class FormatError(ValueError):
    """Malformed file content: PPM, EMB1, corpus, checkpoint (exit code 3)."""


class MissingDependencyError(RuntimeError):
    """A required prerequisite checkpoint is absent (exit code 4)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss (exit code 5).

    `last_good` holds the (name, array) pairs of the parameters at which the
    stage last computed a finite loss, or None when none are attached.
    """

    def __init__(self, message: str, last_good=None):
        super().__init__(message)
        self.last_good = last_good


def read_utf8(path) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text at byte offset {e.start}") from None


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with `data`; a reader sees the old bytes or the new, never a part.

    A write that fails removes its `<name>.tmp` before the error propagates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
