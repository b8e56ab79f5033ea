"""Atomic file writes: write to a temp file in the target directory, then
rename into place."""

from __future__ import annotations

import errno
import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, data) -> None:
    """Write `data` as sorted, indented JSON. JSON has no inf or nan, so a
    non-finite number is refused in a ValueError naming the file, and
    nothing is written."""
    try:
        text = json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: not written: it would hold a non-finite number") from None
    atomic_write_text(path, text + "\n")


def atomic_write_chunks(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text chunks in turn, each UTF-8 encoded as it comes, so the
    whole text is never held at once; the file appears only when all are
    written."""
    _atomic_write(path, (chunk.encode("utf-8") for chunk in chunks))


def refuse_directory(path: str | Path) -> None:
    """Raise IsADirectoryError naming `path` when it is a directory, which
    `atomic_write_bytes` cannot replace."""
    if Path(path).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    _atomic_write(path, (data,))


def _atomic_write(path: str | Path, blocks: Iterable[bytes]) -> None:
    path = Path(path)
    # Refused up front, so the error names the target, not the temp file.
    refuse_directory(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
