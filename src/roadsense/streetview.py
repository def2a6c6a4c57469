"""Imagery availability client: build API URLs and fetch outcomes for
sampled points; stats.estimate_coverage turns them into coverage.

The metadata endpoint is always consulted first; it is the authoritative,
unbilled signal for "imagery exists here". The image itself is downloaded
only when metadata says OK. Transport failures are retried with
exponential backoff and, when they persist, recorded as
TRANSPORT_ERROR(code) and excluded from the coverage denominator: a
network hiccup says nothing about imagery coverage.
"""

from __future__ import annotations

import logging
import os
import queue
import re
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import quote, urlsplit

from .errors import ConfigError, InputDataError, NetworkError
from .fileio import append_rows, json_typed, parse_json, read_table, write_atomic, write_table
from .geometry import GeoPoint
from .sampler import sample_points
from .segmenter import RoadSegment

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import RunConfig

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://maps.googleapis.com"
IMAGE_SIZE = "640x640"  # the API's largest image
TIMEOUT_S = 10.0        # per connect and per read
BACKOFF_S = 0.5         # the first retry's wait; each further retry doubles it

# what a query records, besides TRANSPORT_ERROR(code); coverage counts the first two
STATUS_OK = "OK"
STATUS_ZERO_RESULTS = "ZERO_RESULTS"
STATUS_REQUEST_DENIED = "REQUEST_DENIED"

QUERIES_CSV_HEADER = "segment_id,lat,lon,status,pano_id,capture_date,image_path,queried_at"


def format_location(p: GeoPoint) -> str:
    return f"{p.lat:.7f},{p.lon:.7f}"


@dataclass(frozen=True, slots=True)
class QueryRecord:
    segment_id: str
    location: GeoPoint
    status: str                      # OK | ZERO_RESULTS | REQUEST_DENIED | TRANSPORT_ERROR(code)
    pano_id: str | None = None
    capture_date: str | None = None  # "YYYY-MM"
    image_path: str | None = None    # relative to the run directory
    queried_at: str = ""             # ISO-8601 UTC

    def __post_init__(self):
        if self.image_path is not None and self.status != STATUS_OK:
            raise ValueError("image_path only allowed on OK records")
        if self.pano_id is not None and self.status != STATUS_OK:
            raise ValueError("pano_id implies an OK record")


_URL_PATH = re.compile(r"[!-~]*")   # printable ASCII, no space


def _server_of(base_url: str) -> tuple[str, str, int | None, str]:
    """Scheme, host, port and path of an http(s) base URL."""
    try:
        url = urlsplit(base_url)
        scheme, host, port = url.scheme, url.hostname, url.port  # .port raises unless in range
        if host:
            host.encode("idna")  # a UnicodeError, which is a ValueError, unless a DNS name
    except ValueError:
        scheme = host = port = None
    if scheme not in ("http", "https") or not host or not _URL_PATH.fullmatch(url.path):
        raise ConfigError("base_url must be an http:// or https:// URL with a host, "
                          f"and a path, if any, of printable ASCII, got {base_url!r}")
    return scheme, host, port, url.path.rstrip("/")


def request_target(p: GeoPoint, api_key: str, image: bool = False) -> str:
    """Path and query of the metadata request for a point or, with image=True,
    of its image request: coordinates at 7 decimals, the key percent-encoded.
    The base URL's path goes in front of it."""
    endpoint = f"?size={IMAGE_SIZE}&" if image else "/metadata?"
    return (f"/maps/api/streetview{endpoint}"
            f"location={format_location(p)}&key={quote(api_key, safe='')}")


class TokenBucket:
    """Blocking token bucket shared by the fetch workers."""

    def __init__(self, rate_per_s: float):
        self.rate = float(rate_per_s)
        self.capacity = max(1.0, self.rate)
        self._tokens = self.capacity
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity,
                                   self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class ReplyError(OSError):
    """A reply the client cannot read. Its code, recorded as TRANSPORT_ERROR(code),
    is http.client's name for the defect: BadStatusLine (no HTTP status line),
    IncompleteRead (an early end, or a chunk size not hexadecimal), LineTooLong
    (status line or header fields past 64 KiB) or BadContentLength."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


class RemoteDisconnected(ConnectionResetError):
    """The server closed the connection before any byte of a reply."""


_MAX_HEAD = 65536
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")


class _Connection:
    """One keep-alive HTTP/1.1 connection to a server as _server_of gives
    it. It connects on its first GET, and again on the first GET after a
    close(). Replies are read into one buffer; a body is framed by chunked
    transfer coding, else by Content-Length, else by the end of the stream."""

    def __init__(self, server: tuple[str, str, int | None, str], context=None):
        scheme, self.host, port, path = server
        default_port = 443 if scheme == "https" else 80
        self.address = (self.host, port or default_port)
        self.context = context   # an ssl.SSLContext for https
        host = self.host.encode("idna")
        if b":" in host:
            host = b"[" + host + b"]"
        if port not in (None, default_port):
            host += b":%d" % port
        self.request_line = b"GET " + path.encode()
        self.request_rest = b" HTTP/1.1\r\nHost: " + host + b"\r\nAccept-Encoding: identity\r\n\r\n"
        self.sock = None
        self.buf = bytearray()
        self.received = False   # a byte of the current reply has arrived

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf.clear()

    def get(self, target: str) -> tuple[int, bytes]:
        """GET `target` under the base URL's path: (status, body).

        A reused connection that the server has closed is reopened once and
        the request sent again, but only when no byte of a reply had come.
        On any other failure the connection is closed, so a broken socket is
        never reused.
        """
        request = self.request_line + target.encode() + self.request_rest
        try:
            if self.sock is not None:
                try:
                    return self._exchange(request)
                except (ConnectionResetError, BrokenPipeError):
                    if self.received:
                        raise
                    self.close()
            sock = socket.create_connection(self.address, TIMEOUT_S)
            if self.context is not None:
                try:
                    sock = self.context.wrap_socket(sock, server_hostname=self.host)
                except BaseException:
                    sock.close()
                    raise
            self.sock = sock
            return self._exchange(request)
        except BaseException:
            self.close()
            raise

    def _more(self, eof_code: str) -> None:
        """Receive more of the reply. At the end of the stream, raise a
        ReplyError of eof_code, or RemoteDisconnected while no byte of the
        reply has come."""
        data = self.sock.recv(65536)
        if not data:
            raise (ReplyError(eof_code, "connection closed") if self.received
                   else RemoteDisconnected("connection closed"))
        self.received = True
        self.buf += data

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        self.received = False
        self.sock.sendall(request)
        buf = self.buf
        status = 100
        while status < 200:   # skip interim replies (100 Continue) and their fields
            while (eol := buf.find(b"\r\n")) < 0:
                if len(buf) > _MAX_HEAD:
                    raise ReplyError("LineTooLong", "status line")
                self._more("BadStatusLine")
            version, _, rest = bytes(buf[:eol]).partition(b" ")
            code = rest[:3]
            if not (version.startswith(b"HTTP/") and code.isdigit() and len(code) == 3
                    and rest[3:4] in (b"", b" ")):
                raise ReplyError("BadStatusLine", "not an HTTP status line")
            status = int(code)
            while (end := buf.find(b"\r\n\r\n", eol)) < 0:
                if len(buf) > _MAX_HEAD:
                    raise ReplyError("LineTooLong", "header fields")
                self._more("IncompleteRead")
            fields = {}
            for line in bytes(buf[eol + 2:end]).split(b"\r\n"):
                name, _, value = line.partition(b":")
                fields[name.strip().lower()] = value.strip()
            del buf[:end + 4]

        connection = fields.get(b"connection", b"").lower()
        if version == b"HTTP/1.0":
            close = b"keep-alive" not in connection and b"keep-alive" not in fields
        else:
            close = b"close" in connection
        if status in (204, 304):
            body = b""
        elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._read_chunked()
        elif (length := fields.get(b"content-length")) is not None:
            if not length.isdigit():
                raise ReplyError("BadContentLength", repr(length[:20]))
            n = int(length)
            while len(buf) < n:
                self._more("IncompleteRead")
            body = bytes(buf[:n])
            del buf[:n]
        else:   # the body ends with the stream
            while data := self.sock.recv(65536):
                buf += data
            body = bytes(buf)
            close = True
        if close:
            self.close()
        return status, body

    def _read_chunked(self) -> bytes:
        buf = self.buf
        body = bytearray()
        while True:
            while (eol := buf.find(b"\r\n")) < 0:
                self._more("IncompleteRead")
            size = buf[:eol].partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise ReplyError("IncompleteRead", "bad chunk size")
            size = int(size, 16)
            if not size:   # the last chunk: skip the trailer up to its blank line
                while (end := buf.find(b"\r\n\r\n", eol)) < 0:
                    self._more("IncompleteRead")
                del buf[:end + 4]
                return bytes(body)
            start = eol + 2
            while len(buf) < start + size + 2:
                self._more("IncompleteRead")
            body += buf[start:start + size]
            del buf[:start + size + 2]


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _get_with_retries(conn: _Connection, target: str, config: RunConfig,
                      bucket: TokenBucket) -> tuple[int | str, bytes]:
    """GET with exponential backoff: the status and body of the first reply
    below 500 or, once the retries run out, the last failure's code (a
    ReplyError's own, else the exception's class name) and no body."""
    code: int | str = "unreachable"
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(BACKOFF_S * (2 ** (attempt - 1)))
        bucket.acquire()
        try:
            code, body = conn.get(target)
        except OSError as e:
            code = e.code if isinstance(e, ReplyError) else type(e).__name__
            continue
        if code < 500:
            return code, body
    return code, b""


def _fetch_one(segment_id: str, point: GeoPoint, config: RunConfig,
               bucket: TokenBucket, conn: _Connection) -> QueryRecord:
    queried_at = config.fixed_time or _now_utc()
    status, data = _get_with_retries(conn, request_target(point, config.api_key), config, bucket)
    if status == 200:
        try:  # named, never by its URL: that holds the API key
            answer = json_typed(parse_json(data, "metadata answer"), "an object",
                                "metadata answer")
            status = answer.get("status", "UNKNOWN_ERROR")
        except InputDataError:
            status = "bad-json"
    if status == "NOT_FOUND":
        status = STATUS_ZERO_RESULTS
    elif status not in (STATUS_OK, STATUS_ZERO_RESULTS, STATUS_REQUEST_DENIED):
        status = f"TRANSPORT_ERROR({status})"
    if status != STATUS_OK:
        return QueryRecord(segment_id, point, status, queried_at=queried_at)

    image_path = None
    code, data = _get_with_retries(conn, request_target(point, config.api_key, image=True),
                                   config, bucket)
    if code == 200:
        image_path = f"images/{segment_id}.jpg"
        write_atomic(Path(config.out_dir, image_path), data)
    else:
        log.warning("metadata OK but image fetch failed for %s", segment_id)
    return QueryRecord(segment_id, point, STATUS_OK,
                       pano_id=answer.get("pano_id"),
                       capture_date=answer.get("date"),
                       image_path=image_path,
                       queried_at=queried_at)


def fetch_all(plan: list[RoadSegment], config: RunConfig) -> list[QueryRecord]:
    """One record per sampled segment's start point, in plan order.

    <out_dir>/queries.csv is also the fetch journal. Each query's row is
    appended and flushed as soon as the query completes, so an interrupted
    or failed run keeps every query it paid for. A resumed run reuses the
    journal's rows in whatever order they were written, a later row for the
    same segment and location winning, and fetches again only the points
    with no row or with an OK row whose image is missing. A row for the same
    segment id at another location, left by a run with other settings, is
    not reused. Once every point has a record, queries.csv is rewritten
    atomically in plan order.

    At most max_concurrency queries are in flight at a time. When at least
    20 points are to be fetched and more than 10 of the first 20 completed
    queries come back REQUEST_DENIED, the run aborts with a key/quota
    diagnosis. A point to fetch needs an API key, checked before any request.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    queries_path = out_dir / "queries.csv"
    existing = {(rec.segment_id, format_location(rec.location)): rec
                for rec in _read_journal(queries_path)}
    records: dict[int, QueryRecord] = {}
    to_fetch: list[tuple[int, str, GeoPoint]] = []
    for i, (seg_id, p) in enumerate(sample_points(plan)):
        rec = existing.get((seg_id, format_location(p)))
        if rec is not None and is_final(rec, out_dir):
            records[i] = rec
        else:
            to_fetch.append((i, seg_id, p))
    if to_fetch:
        if not config.api_key:
            raise ConfigError("imagery API key is empty; set STREETVIEW_API_KEY "
                              "or pass --api-key")
        (out_dir / "images").mkdir(exist_ok=True)
        _fetch_window(to_fetch, config, queries_path, records)
    ordered = [records[i] for i in range(len(plan))]
    write_queries_csv(ordered, queries_path)
    return ordered


def is_final(rec: QueryRecord, run_dir: Path) -> bool:
    """Whether a journal row stands: it is not OK, or its image is on disk.
    An OK row whose image was lost, or never downloaded, is fetched again."""
    return rec.status != STATUS_OK or (
        rec.image_path is not None and (run_dir / rec.image_path).is_file())


def _fetch_window(to_fetch: list[tuple[int, str, GeoPoint]], config: RunConfig,
                  journal_path: Path, records: dict[int, QueryRecord]) -> None:
    """Fetch the points on max_concurrency worker threads, each with its own
    keep-alive connection. A worker takes the next point, fetches it, then
    puts its record into `records` and appends it to the journal under the
    same lock, so the main thread does no work per query. The worker that
    adds one of the first 20 records runs the REQUEST_DENIED storm check.

    The main thread only waits for the workers to exit. On a
    KeyboardInterrupt, or when a worker fails, no further point is handed
    out and the queries in flight, already paid for, finish and keep their
    rows. The wait is on a queue, never in Thread.join(): on Python 3.11 a
    KeyboardInterrupt inside join() can mark a running thread as finished
    (bpo-45274), so that the next join() returns before its record is kept.
    """
    server = _server_of(config.base_url)
    context = None
    if server[0] == "https":
        import ssl  # loaded only for TLS
        context = ssl.create_default_context()
    bucket = TokenBucket(config.rate_per_s)
    points = iter(to_fetch)
    lock = threading.Lock()
    exited: queue.SimpleQueue = queue.SimpleQueue()
    stop = True          # hand out no further point
    running = 0          # workers started and not yet exited
    error: BaseException | None = None
    unchecked = 20 if len(to_fetch) >= 20 else 0   # storm check: records left to count
    denied = 0

    with append_rows(journal_path, QUERIES_CSV_HEADER.split(",")) as append:

        def keep(idx: int, rec: QueryRecord) -> None:
            nonlocal unchecked, denied, stop, error
            with lock:
                records[idx] = rec
                append((_query_row(rec),))
                # once stopped, no record counts, so the 11th denial is the one named
                if unchecked and not stop:
                    unchecked -= 1
                    denied += rec.status == STATUS_REQUEST_DENIED
                    if denied > 10:
                        stop = True
                        error = NetworkError(
                            f"{denied} of the first {20 - unchecked} queries were "
                            "REQUEST_DENIED; check the API key and quota before continuing")

        def worker(conn: _Connection) -> None:
            nonlocal stop, running, error
            try:
                while True:
                    with lock:
                        item = None if stop else next(points, None)
                    if item is None:
                        break
                    keep(item[0], _fetch_one(*item[1:], config, bucket, conn))
            except BaseException as e:  # unexpected; the main thread re-raises the first
                with lock:
                    stop = True
                    error = error or e
            finally:
                conn.close()
                with lock:
                    running -= 1
                exited.put(None)

        try:
            # no worker takes a point before all are started and counted: a
            # KeyboardInterrupt in this loop leaves no query in flight that
            # `running` misses (a worker started but not counted may take it
            # below zero)
            with lock:
                for _ in range(min(config.max_concurrency, len(to_fetch))):
                    conn = _Connection(server, context)
                    threading.Thread(target=worker, args=(conn,), daemon=True).start()
                    running += 1
                stop = False
            while running > 0:
                exited.get()
        finally:
            stop = True
            while running > 0:
                exited.get()
    if error is not None:
        raise error


def _read_journal(path: Path) -> list[QueryRecord]:
    """Rows already in queries.csv. A torn last line, left when a writer was
    killed mid-row, is cut off the file so that appending can resume. An
    empty file holds no rows."""
    if not path.exists():
        return []
    data = path.read_bytes()
    whole = data[:data.rfind(b"\n") + 1]
    if len(whole) < len(data):
        log.warning("%s: dropping a torn last line", path)
        os.truncate(path, len(whole))
    return read_queries_csv(path) if whole else []


def _query_row(r: QueryRecord) -> list[str]:
    return [
        r.segment_id,
        f"{r.location.lat:.7f}",
        f"{r.location.lon:.7f}",
        r.status,
        r.pano_id or "",
        r.capture_date or "",
        r.image_path or "",
        r.queried_at,
    ]


def write_queries_csv(records: list[QueryRecord], path: str | Path) -> None:
    write_table(path, QUERIES_CSV_HEADER.split(","), map(_query_row, records))


_QUERY_COLUMNS = dict(zip(QUERIES_CSV_HEADER.split(","),
                          (str, float, float, str, str, str, str, str)))


def _query_record(segment_id, lat, lon, status, pano_id, capture_date, image_path,
                  queried_at) -> QueryRecord:
    return QueryRecord(segment_id, GeoPoint(lat, lon), status, pano_id or None,
                       capture_date or None, image_path or None, queried_at)


def read_queries_csv(path: str | Path) -> list[QueryRecord]:
    return read_table(path, _QUERY_COLUMNS, _query_record)

