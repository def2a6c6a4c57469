"""The file layer: atomic writes, and the one CSV table format with its
writer and its reader.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from .errors import InputDataError, RowError, SchemaError


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temp file beside path for writing ("w" text, "wb" bytes);
    when the block ends cleanly, rename it over path, otherwise delete it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write bytes, or text as UTF-8, to path atomically."""
    with atomic_open(path, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write a CSV table atomically, streaming the rows."""
    with atomic_open(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(source: str | Path | IO[str], columns: Mapping[str, Callable],
               build: Callable, name: str | Path | None = None) -> list:
    """Rows of a CSV table as ``build(*values)``, where ``columns`` maps each
    required column to the converter of its values. Other columns and blank
    lines are skipped. ``source`` is a path or a text stream opened with
    newline=""; ``name`` names a stream in errors.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8", newline="") as f:
            return read_table(f, columns, build, source)
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{name}: no header row")
        for col in columns:
            if col not in header:
                raise SchemaError(f"{name}: line {reader.line_num}: "
                                  f"missing required column: {col}")
        fields = [(col, header.index(col), convert) for col, convert in columns.items()]
        out = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise RowError(f"{name}: line {reader.line_num}: expected "
                               f"{len(header)} fields, got {len(row)}")
            try:
                values = [convert(row[i]) for _, i, convert in fields]
            except ValueError:
                for col, i, convert in fields:  # name the column that failed
                    try:
                        convert(row[i])
                    except ValueError as e:
                        raise RowError(f"{name}: line {reader.line_num}: "
                                       f"column {col}: {e}") from e
                raise
            try:
                out.append(build(*values))
            except ValueError as e:
                raise RowError(f"{name}: line {reader.line_num}: {e}") from e
        return out
    except csv.Error as e:
        raise RowError(f"{name}: line {reader.line_num}: {e}") from e
    except UnicodeDecodeError as e:
        source.buffer.seek(0)
        for line, raw in enumerate(source.buffer, start=1):  # find the line
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
        raise InputDataError(f"{name}: line {line}: not UTF-8 text ({e.reason})") from e
