"""The file layer: atomic writes, the one CSV table format with its writer,
its appender and its reader, and the one JSON parse with its typed-field
check.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path

from .errors import InputDataError


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open a temp file beside path for writing ("w" text, "wb" bytes);
    when the block ends cleanly, rename it over path, otherwise delete it.
    An error opening the temp file names path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        f = open(tmp, mode, **text)
    except OSError as e:  # name the path asked for, not the hidden temp file beside it
        raise type(e)(e.errno, e.strerror, str(path)) from None
    try:
        with f:
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


@contextmanager
def append_rows(path: str | Path, header: Sequence[str]):
    """Append CSV rows to path in place, deliberately not atomically: the
    yielded function writes rows and flushes them, so rows written before a
    crash stay. The header is written first when the file is new or empty."""
    with open(path, "a", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        if f.tell() == 0:
            writer.writerow(header)

        def append(rows: Iterable[Sequence]) -> None:
            writer.writerows(rows)
            f.flush()

        yield append


def read_table(path: str | Path, columns: Mapping[str, Callable], build: Callable) -> list:
    """Rows of the CSV table at path, read as UTF-8 with or without a
    byte-order mark, as ``build(*values)``, where ``columns`` maps each
    required column to the converter of its values. Other columns and blank
    lines are skipped.
    """
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise InputDataError(f"{path}: no header row")
            for col in columns:
                if col not in header:
                    raise InputDataError(f"{path}: line {reader.line_num}: "
                                         f"missing required column: {col}")
            fields = [(col, header.index(col), convert) for col, convert in columns.items()]
            out = []
            for row in reader:
                if len(row) != len(header):
                    if not row:
                        continue
                    raise InputDataError(f"{path}: line {reader.line_num}: expected "
                                         f"{len(header)} fields, got {len(row)}")
                try:
                    values = [convert(row[i]) for _, i, convert in fields]
                except ValueError:
                    for col, i, convert in fields:  # name the column that failed
                        try:
                            convert(row[i])
                        except ValueError as e:
                            raise InputDataError(f"{path}: line {reader.line_num}: "
                                                 f"column {col}: {e}") from e
                    raise
                try:
                    out.append(build(*values))
                except ValueError as e:
                    raise InputDataError(f"{path}: line {reader.line_num}: {e}") from e
            return out
        except csv.Error as e:
            raise InputDataError(f"{path}: line {reader.line_num}: {e}") from e
        except UnicodeDecodeError as e:
            f.buffer.seek(0)
            for line, raw in enumerate(f.buffer, start=1):  # find the line
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
            raise InputDataError(f"{path}: line {line}: not UTF-8 text ({e.reason})") from e


def parse_json(data: bytes, name: str | Path, line: int = 1):
    """The JSON value held in data, UTF-8 text with or without a leading
    byte-order mark. ``line`` is the number of data's first line in
    ``name``, so that an InputDataError names the line of the file."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:  # e.object is data after the mark
        line += e.object.count(b"\n", 0, e.start)
        raise InputDataError(f"{name}: line {line}: not UTF-8 text ({e.reason})") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputDataError(f"{name}: line {line + e.lineno - 1} column {e.colno}: "
                             f"not valid JSON ({e.msg})") from e
    except (ValueError, RecursionError) as e:  # an integer too long to convert
        reason = "nested too deep to parse" if isinstance(e, RecursionError) else e
        raise InputDataError(f"{name}: line {line}: not valid JSON ({reason})") from e


# the types json.loads gives each kind of value, checked with type() so that
# a bool is no number; a list of integers or of strings also checks its items
JSON_KINDS = {"an integer": (int,), "a number": (int, float), "a string": (str,),
              "a string or null": (str, type(None)), "a string or an integer": (str, int),
              "a list": (list,), "a list of integers": (list,), "a list of strings": (list,),
              "an object": (dict,)}
_ITEMS = {"a list of integers": int, "a list of strings": str}


def json_typed(value, kind: str, where: str):
    """value when it is of the JSON_KINDS ``kind``; otherwise an InputDataError
    ``<where>: expected <kind>, got <value>``."""
    item = _ITEMS.get(kind)
    if type(value) not in JSON_KINDS[kind] or item and any(type(v) is not item for v in value):
        raise InputDataError(f"{where}: expected {kind}, got {value!r:.60}")
    return value


def json_field(obj: dict, key: str, kind: str, where: str, default=...):
    """obj[key] checked by json_typed, where ``where`` is the prefix of the
    key with its separator (say ``<file>: line 5: node record: ``). An absent
    key gives ``default``, or when there is none (``...``) an InputDataError
    ``<where><key>: missing``."""
    if key not in obj:
        if default is ...:
            raise InputDataError(f"{where}{key}: missing")
        return default
    return json_typed(obj[key], kind, where + key)
