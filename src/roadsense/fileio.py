"""Atomic file writes: a reader sees the old file or the new one, never a
partly written one, even when the writer is killed mid-write."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write data to a temp file beside path, then rename it over path."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
