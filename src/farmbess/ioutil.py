"""Atomic file writes: write to a temp file in the target directory, then
rename into place. Every CSV file is written by `atomic_write_rows`."""

from __future__ import annotations

import errno
import itertools
import json
import os
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

# Rows of a CSV file formatted and written at a time.
_CHUNK_ROWS = 4096


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


def atomic_write_rows(path: str | Path, header: str, row: str, columns: Sequence) -> None:
    """Write the line `header`, then the line `row.format(*cells)` for each
    entry of the equal-length `columns` (ranges, tuples, lists or numpy
    arrays), formatted and written a chunk of rows at a time. A float column
    (one whose first cell is a float) holding a non-finite number is refused
    in a ValueError naming the file, and nothing is written."""
    if any(np.asarray(c[:1]).dtype.kind == "f" and not np.isfinite(c).all() for c in columns):
        raise ValueError(f"{path}: not written: it would hold a non-finite number")
    line = f"{row}\n".format

    def chunk(start: int) -> bytes:
        cells = (column[start : start + _CHUNK_ROWS] for column in columns)
        cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in cells)
        return "".join(map(line, *cells)).encode("utf-8")

    chunks = map(chunk, range(0, len(columns[0]), _CHUNK_ROWS))
    _atomic_write(path, itertools.chain([f"{header}\n".encode("utf-8")], chunks))


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
