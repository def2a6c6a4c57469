"""Imagery availability client: build API URLs, fetch outcomes for sampled
points, and estimate coverage as the success proportion.

The metadata endpoint is always consulted first; it is the authoritative,
unbilled signal for "imagery exists here". The image itself is downloaded
only when metadata says OK. Transport failures are retried with
exponential backoff and, when they persist, recorded as
TRANSPORT_ERROR(code) and excluded from the coverage denominator: a
network hiccup says nothing about imagery coverage.
"""

from __future__ import annotations

import http.client
import itertools
import json
import logging
import math
import os
import queue
import ssl
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import quote, urlsplit

from .errors import ConfigError, InputDataError, InsufficientDataError, KeyQuotaError
from .fileio import append_rows, json_typed, parse_json, read_table, write_atomic, write_table
from .geometry import GeoPoint
from .sampler import SamplePlan, sample_points

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://maps.googleapis.com"
IMAGE_SIZE = "640x640"  # the API's largest image
TIMEOUT_S = 10.0        # per connect and per read
WILSON_Z = 1.959964

STATUS_OK = "OK"
STATUS_ZERO_RESULTS = "ZERO_RESULTS"
STATUS_REQUEST_DENIED = "REQUEST_DENIED"

QUERIES_CSV_HEADER = "segment_id,lat,lon,status,pano_id,capture_date,image_path,queried_at"


def transport_error(code) -> str:
    return f"TRANSPORT_ERROR({code})"


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


@dataclass(frozen=True)
class CoverageEstimate:
    successes: int
    total: int
    proportion: float
    ci_low: float
    ci_high: float
    excluded: int = 0  # TRANSPORT_ERROR / REQUEST_DENIED records left out


@dataclass(frozen=True)
class ClientConfig:
    api_key: str
    out_dir: Path
    base_url: str
    max_concurrency: int
    rate_per_s: float
    retries: int
    backoff_s: float = 0.5
    fixed_time: str | None = None  # pin queried_at for reproducible artifacts

    def __post_init__(self):
        if self.max_concurrency < 1:
            raise ConfigError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if not self.rate_per_s > 0:
            raise ConfigError(f"rate_per_s must be positive, got {self.rate_per_s}")
        _server_of(self.base_url)


def _server_of(base_url: str) -> tuple[str, str, int | None]:
    """Scheme, host and port of an http(s) base URL."""
    try:
        url = urlsplit(base_url)
        scheme, host, port = url.scheme, url.hostname, url.port  # .port raises unless in range
    except ValueError:
        scheme = host = port = None
    if scheme not in ("http", "https") or not host:
        raise ConfigError("base_url must be an http:// or https:// URL with a host, "
                          f"got {base_url!r}")
    return scheme, host, port


def build_metadata_request(p: GeoPoint, api_key: str,
                           base_url: str = DEFAULT_BASE_URL) -> str:
    """Metadata (availability) URL for a point, coordinates at 7 decimals."""
    if not api_key:
        raise ConfigError("imagery API key is empty; set STREETVIEW_API_KEY "
                          "or pass --api-key")
    return (f"{base_url.rstrip('/')}/maps/api/streetview/metadata"
            f"?location={format_location(p)}&key={quote(api_key, safe='')}")


def build_image_request(p: GeoPoint, api_key: str,
                        base_url: str = DEFAULT_BASE_URL) -> str:
    if not api_key:
        raise ConfigError("imagery API key is empty; set STREETVIEW_API_KEY "
                          "or pass --api-key")
    return (f"{base_url.rstrip('/')}/maps/api/streetview"
            f"?size={IMAGE_SIZE}&location={format_location(p)}&key={quote(api_key, safe='')}")


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


def _open_connection(config: ClientConfig) -> http.client.HTTPConnection:
    """A keep-alive connection to the base URL's host. It connects on its
    first request, and again on the first request after a close()."""
    scheme, host, port = _server_of(config.base_url)
    if scheme == "https":
        return http.client.HTTPSConnection(host, port, timeout=TIMEOUT_S,
                                           context=ssl.create_default_context())
    return http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)


# how a kept-alive connection that the server has since closed fails on
# reuse, before any byte of the response (RemoteDisconnected is a
# ConnectionResetError)
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)


def _get(conn: http.client.HTTPConnection, target: str) -> tuple[int, bytes]:
    """One GET of `target` on a worker's connection: (status, body).

    A reused connection found closed by the server is reopened once and the
    request sent again. On any other failure the connection is closed, so a
    broken socket is never reused.
    """
    reused = conn.sock is not None
    try:
        try:
            conn.request("GET", target)
            resp = conn.getresponse()
        except _STALE_CONNECTION:
            if not reused:
                raise
            conn.close()
            conn.request("GET", target)
            resp = conn.getresponse()
        return resp.status, resp.read()
    except BaseException:
        conn.close()
        raise


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _get_with_retries(conn: http.client.HTTPConnection, url: str, config: ClientConfig,
                      bucket: TokenBucket) -> tuple[int, bytes] | str:
    """GET with exponential backoff; returns (status, body) or an error-code
    string. The code of a failed transport is its exception's class name."""
    split = urlsplit(url)
    target = f"{split.path}?{split.query}"
    last_code = "unreachable"
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(config.backoff_s * (2 ** (attempt - 1)))
        bucket.acquire()
        try:
            status, body = _get(conn, target)
        except (OSError, http.client.HTTPException) as e:
            last_code = type(e).__name__
            continue
        if status >= 500:
            last_code = str(status)
            continue
        return status, body
    return transport_error(last_code)


def _fetch_one(segment_id: str, point: GeoPoint, config: ClientConfig,
               bucket: TokenBucket, conn: http.client.HTTPConnection) -> QueryRecord:
    queried_at = config.fixed_time or _now_utc()
    meta_url = build_metadata_request(point, config.api_key, config.base_url)
    resp = _get_with_retries(conn, meta_url, config, bucket)
    if isinstance(resp, str):
        return QueryRecord(segment_id, point, resp, queried_at=queried_at)
    status_code, data = resp
    if status_code != 200:
        return QueryRecord(segment_id, point, transport_error(status_code),
                           queried_at=queried_at)
    try:  # named, never by its URL: that holds the API key
        body = json_typed(parse_json(data, "metadata answer"), "an object", "metadata answer")
    except InputDataError:
        return QueryRecord(segment_id, point, transport_error("bad-json"),
                           queried_at=queried_at)
    status = body.get("status", "UNKNOWN_ERROR")
    if status in (STATUS_ZERO_RESULTS, "NOT_FOUND"):
        return QueryRecord(segment_id, point, STATUS_ZERO_RESULTS, queried_at=queried_at)
    if status == STATUS_REQUEST_DENIED:
        return QueryRecord(segment_id, point, STATUS_REQUEST_DENIED, queried_at=queried_at)
    if status != STATUS_OK:
        return QueryRecord(segment_id, point, transport_error(status), queried_at=queried_at)

    image_path = None
    img_url = build_image_request(point, config.api_key, config.base_url)
    img = _get_with_retries(conn, img_url, config, bucket)
    if not isinstance(img, str) and img[0] == 200:
        rel = f"images/{segment_id}.jpg"
        target = config.out_dir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(target, img[1])
        image_path = rel
    else:
        log.warning("metadata OK but image fetch failed for %s", segment_id)
    return QueryRecord(segment_id, point, STATUS_OK,
                       pano_id=body.get("pano_id"),
                       capture_date=body.get("date"),
                       image_path=image_path,
                       queried_at=queried_at)


def fetch_all(plan: SamplePlan, config: ClientConfig) -> list[QueryRecord]:
    """One record per sampled point, in plan order.

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
    diagnosis.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    queries_path = config.out_dir / "queries.csv"
    existing = {(rec.segment_id, format_location(rec.location)): rec
                for rec in _read_journal(queries_path)}
    records: dict[int, QueryRecord] = {}
    to_fetch: list[tuple[int, str, GeoPoint]] = []
    for i, (seg_id, p) in enumerate(sample_points(plan)):
        rec = existing.get((seg_id, format_location(p)))
        if rec is not None and (rec.status != STATUS_OK or image_on_disk(rec, config)):
            records[i] = rec
        else:
            to_fetch.append((i, seg_id, p))
    if to_fetch:
        _fetch_window(to_fetch, config, queries_path, records)
    ordered = [records[i] for i in range(len(plan.segments))]
    write_queries_csv(ordered, queries_path)
    return ordered


def image_on_disk(rec: QueryRecord, config: ClientConfig) -> bool:
    return rec.image_path is not None and (config.out_dir / rec.image_path).is_file()


def _fetch_window(to_fetch: list[tuple[int, str, GeoPoint]], config: ClientConfig,
                  journal_path: Path, records: dict[int, QueryRecord]) -> None:
    """Fetch the points through a sliding window: one worker thread per
    in-flight query, each with its own keep-alive connection, a new point
    queued as each query completes. Each record goes into `records` and is
    appended to the journal.

    Workers append their records to `done` themselves and the queue only
    wakes the main thread, so a KeyboardInterrupt may land anywhere in the
    main thread without losing a record. All workers start before any work
    is queued, so every query sent belongs to a worker that is joined.
    """
    bucket = TokenBucket(config.rate_per_s)
    done: list[tuple[int, QueryRecord]] = []   # completion order
    work: queue.SimpleQueue = queue.SimpleQueue()
    wakeup: queue.SimpleQueue = queue.SimpleQueue()   # None, or a worker's exception

    def worker() -> None:
        conn = _open_connection(config)
        try:
            while (item := work.get()) is not None:
                try:
                    done.append((item[0], _fetch_one(*item[1:], config, bucket, conn)))
                except BaseException as e:  # the main thread re-raises it
                    wakeup.put(e)
                else:
                    wakeup.put(None)
        finally:
            conn.close()

    n_workers = min(config.max_concurrency, len(to_fetch))
    check_storm = len(to_fetch) >= 20
    with append_rows(journal_path, QUERIES_CSV_HEADER.split(",")) as append:
        journaled = 0

        def journal() -> None:
            # workers append to `done` meanwhile: advance by the slice taken,
            # once it is written (a row written twice reads back the same)
            nonlocal journaled
            taken = done[journaled:]
            for idx, rec in taken:
                records[idx] = rec
            append(_query_row(rec) for _, rec in taken)
            journaled += len(taken)

        workers: list[threading.Thread] = []
        try:
            for _ in range(n_workers):
                t = threading.Thread(target=worker, daemon=True)
                t.start()
                workers.append(t)
            queued = iter(to_fetch)
            in_flight = 0
            for item in itertools.islice(queued, n_workers):
                work.put(item)
                in_flight += 1
            while in_flight:
                error = wakeup.get()
                in_flight -= 1
                if error is not None:
                    raise error
                journal()
                if check_storm:
                    first = done[:20]
                    denied = sum(1 for _, r in first if r.status == STATUS_REQUEST_DENIED)
                    if denied > 10:
                        raise KeyQuotaError(
                            f"{denied} of the first {len(first)} queries were "
                            "REQUEST_DENIED; check the API key and quota before continuing")
                    check_storm = len(first) < 20
                item = next(queued, None)
                if item is not None:
                    work.put(item)
                    in_flight += 1
        finally:
            # drop the queued points; queries already sent are paid for, so
            # let them finish and keep their rows
            try:
                while True:
                    work.get_nowait()
            except queue.Empty:
                pass
            for _ in range(n_workers):
                work.put(None)
            for t in workers:
                t.join()
            journal()


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


def wilson_interval(successes: int, total: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_coverage(records: list[QueryRecord]) -> CoverageEstimate:
    """Proportion of OK among {OK, ZERO_RESULTS}, with a Wilson interval.

    TRANSPORT_ERROR and REQUEST_DENIED records carry no information about
    imagery coverage and are excluded from both numerator and denominator.
    """
    usable = [r for r in records if r.status in (STATUS_OK, STATUS_ZERO_RESULTS)]
    excluded = len(records) - len(usable)
    if not usable:
        raise InsufficientDataError(
            f"no usable records: {len(records)} total, all excluded")
    successes = sum(1 for r in usable if r.status == STATUS_OK)
    total = len(usable)
    low, high = wilson_interval(successes, total)
    return CoverageEstimate(successes=successes, total=total,
                            proportion=successes / total,
                            ci_low=low, ci_high=high, excluded=excluded)


def coverage_json(est: CoverageEstimate) -> str:
    """The coverage.json document for an estimate."""
    return json.dumps(asdict(est), indent=2, sort_keys=True) + "\n"
