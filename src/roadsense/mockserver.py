"""Local stand-in for the imagery API, driven by a JSON fixture.

Fixture format: a JSON object mapping "lat,lon" keys (7 decimal places,
exactly as the client formats them) to canned metadata responses, e.g.

    {
      "6.5244000,3.3792000": {"status": "OK", "pano_id": "p1", "date": "2017-05"},
      "0.0000000,1.0000000": {"status": "ZERO_RESULTS"},
      "0.0000000,2.0000000": {"status": "OK", "fail_first": 2}
    }

``fail_first: N`` makes the first N metadata hits for that location fail
with HTTP 503, for exercising retry behavior. Locations absent from the
fixture answer with ``default_status`` (ZERO_RESULTS unless overridden by
a "__default__" entry); any other key or a value of another form is a
ValueError. A 1x1 JPEG is served as the image of an OK location.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .errors import InputDataError
from .fileio import json_typed, parse_json

# a location key as the client formats it (streetview.format_location)
_LOCATION = re.compile(r"-?[0-9]+\.[0-9]{7},-?[0-9]+\.[0-9]{7}")
# smallest syntactically valid JPEG: SOI + EOI with a comment segment
TINY_JPEG = bytes.fromhex("ffd8fffe00046d6fffd9")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: every reply sends Content-Length
    # headers and body are separate writes; with Nagle on, the body of a
    # reply on a persistent connection waits ~40 ms for the client's ACK
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        location = params.get("location", [""])[0]
        server: MockStreetViewServer = self.server  # type: ignore[assignment]
        with server.lock:
            server.request_count += 1
            server.requested_locations.append(location)
        if parsed.path == "/maps/api/streetview/metadata":
            self._serve_metadata(server, location)
        elif parsed.path == "/maps/api/streetview":
            self._serve_image(server, location)
        else:
            self._reply(404, {"status": "NOT_FOUND"})

    def _serve_metadata(self, server, location):
        entry = server.fixture.get(location)
        if entry is None:
            self._reply(200, {"status": server.default_status})
            return
        fail_first = entry.get("fail_first", 0)
        if fail_first:
            with server.lock:
                hits = server.failure_hits.get(location, 0)
                if hits < fail_first:
                    server.failure_hits[location] = hits + 1
                    self._reply(503, {"status": "UNKNOWN_ERROR"})
                    return
        body = {"status": entry.get("status", "OK")}
        if body["status"] == "OK":
            body["pano_id"] = entry.get("pano_id", f"pano-{location}")
            body["date"] = entry.get("date", "2017-06")
        self._reply(200, body)

    def _serve_image(self, server, location):
        entry = server.fixture.get(location, {"status": server.default_status})
        if entry.get("status", "OK") == "OK":
            data = TINY_JPEG
            self.send_response(200)
            self.send_header("Content-Type", "image/jpeg")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        else:
            self._reply(404, {"status": entry.get("status")})

    def _reply(self, code, payload):
        data = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class MockStreetViewServer(ThreadingHTTPServer):
    """Fixture-driven imagery API mock bound to an ephemeral local port."""

    # a client opening all its connections at once must not overflow the
    # listen backlog (the default of 5 costs a 1 s SYN retransmit)
    request_queue_size = 64

    def __init__(self, fixture: dict, port: int = 0):
        self.fixture = dict(fixture)
        default_entry = self.fixture.pop("__default__", {})
        if bad := [key for key in self.fixture if not _LOCATION.fullmatch(key)]:
            raise ValueError(f"mock fixture key {bad[0]!r} is neither a location "
                             "'lat,lon' with 7 decimals nor '__default__'")
        for key, entry in fixture.items():
            if type(entry) is not dict or type(entry.get("fail_first", 0)) is not int:
                raise ValueError(f"mock fixture value of {key!r} must be an object whose "
                                 f"fail_first, if any, is an integer, got {entry!r:.60}")
        self.default_status = default_entry.get("status", "ZERO_RESULTS")
        self.request_count = 0
        self.requested_locations: list[str] = []
        self.failure_hits: dict[str, int] = {}
        self.lock = threading.Lock()
        self._thread: threading.Thread | None = None
        super().__init__(("127.0.0.1", port), _Handler)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def start(self) -> "MockStreetViewServer":
        # a short poll interval lets stop() return without a half-second wait
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Serve a canned imagery-API fixture for offline runs")
    parser.add_argument("fixture", help="JSON fixture file")
    parser.add_argument("--port", type=int, default=8787)
    args = parser.parse_args(argv)
    try:
        fixture = json_typed(parse_json(Path(args.fixture).read_bytes(), args.fixture),
                             "an object", args.fixture)
        server = MockStreetViewServer(fixture, port=args.port)
    except ValueError as e:  # a key or a value the fixture format refuses
        parser.exit(2, f"error: {args.fixture}: {e}\n")
    except (InputDataError, OSError) as e:
        parser.exit(2, f"error: {e}\n")
    print(f"mock imagery API listening on {server.base_url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.server_close()


if __name__ == "__main__":
    main()
