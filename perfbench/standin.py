"""Stand-in for the imagery API, run by the benchmark in its own process.

It is not ``roadsense.mockserver``: the benchmark owns its server so that
changes to the program's mock cannot move the numbers.

Usage: ``python standin.py FIXTURE.json [--delay-ms D]``. It prints
``{"port": N}`` once it listens on 127.0.0.1, then answers one JSON line
per command read from stdin:

    reset      clear counters, 503-once state and any armed interrupt
    arm K      send SIGINT to the client at the K-th request from now;
               ``arm 0`` disarms
    pid P      the client process to interrupt (may follow ``arm``)
    stats      report counters and this process's CPU time

It stops serving and exits at the end of its input.

Fixture: ``{"default_status": S, "locations": {"lat,lon": entry}}`` where an
entry is ``{"status": "OK"|"ZERO_RESULTS", "pano_id", "date", "fail_once"}``.
A ``fail_once`` location answers its first metadata request with HTTP 503.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

# JPEG-framed 8 KiB payload standing in for a downloaded image
IMAGE = b"\xff\xd8" + bytes(8188) + b"\xff\xd9"
ENDPOINTS = {"/maps/api/streetview/metadata": "metadata", "/maps/api/streetview": "image"}


class State:
    def __init__(self, fixture: dict, delay_s: float):
        self.locations: dict = fixture["locations"]
        self.default_status: str = fixture["default_status"]
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.pid_known = threading.Event()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = {"metadata": 0, "image": 0, "other": 0}
            self.failed_once: set[str] = set()
            self.images_served: set[str] = set()
            self.duplicate_image_requests = 0
            self.faults_served = 0
            self.interrupts_sent = 0
            self.arm_at: int | None = None
            self.since_arm = 0
            self.pid: int | None = None
            self.pid_known.clear()

    def arm(self, k: int) -> None:
        with self.lock:
            self.arm_at, self.since_arm, self.pid = k or None, 0, None
            self.pid_known.clear()

    def set_pid(self, pid: int) -> None:
        self.pid = pid
        self.pid_known.set()

    def interrupt(self) -> None:
        # the client needs well over a second to import before its first
        # request, so the pid is known long before the K-th request
        if not self.pid_known.wait(timeout=30):
            return
        try:
            os.kill(self.pid, signal.SIGINT)
        except ProcessLookupError:
            return
        with self.lock:
            self.interrupts_sent += 1

    def stats(self) -> dict:
        with self.lock:
            return {"requests": dict(self.requests),
                    "duplicate_image_requests": self.duplicate_image_requests,
                    "distinct_images": len(self.images_served),
                    "faults_served": self.faults_served,
                    "interrupts_sent": self.interrupts_sent,
                    "cpu_s": time.process_time()}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"   # keep-alive, like the real API
    # headers and body go out in separate writes; without TCP_NODELAY the
    # body waits for the client's delayed ACK on every request
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        st: State = self.server.state  # type: ignore[attr-defined]
        url = urlsplit(self.path)
        location = parse_qs(url.query).get("location", [""])[0]
        endpoint = ENDPOINTS.get(url.path, "other")
        entry = st.locations.get(location, {"status": st.default_status})
        ok = entry["status"] == "OK"
        with st.lock:
            st.requests[endpoint] += 1
            interrupt = False
            if st.arm_at is not None:
                st.since_arm += 1
                interrupt = st.since_arm == st.arm_at
            fault = (endpoint == "metadata" and entry.get("fail_once", False)
                     and location not in st.failed_once)
            if fault:
                st.failed_once.add(location)
                st.faults_served += 1
            if endpoint == "image" and ok:
                if location in st.images_served:
                    st.duplicate_image_requests += 1
                st.images_served.add(location)
        if interrupt:
            st.interrupt()
        if st.delay_s:
            time.sleep(st.delay_s)
        if endpoint == "other":
            self._reply(404, {"status": "NOT_FOUND"})
        elif fault:
            self._reply(503, {"status": "UNKNOWN_ERROR"})
        elif endpoint == "metadata":
            body = {"status": entry["status"]}
            if ok:
                body.update(pano_id=entry["pano_id"], date=entry["date"])
            self._reply(200, body)
        elif ok:
            self._send(200, "image/jpeg", IMAGE)
        else:
            self._reply(404, {"status": entry["status"]})

    def _reply(self, code: int, payload: dict) -> None:
        self._send(code, "application/json", json.dumps(payload).encode("utf-8"))

    def _send(self, code: int, ctype: str, data: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixture")
    parser.add_argument("--delay-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    with open(args.fixture, encoding="utf-8") as f:
        fixture = json.load(f)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.state = State(fixture, args.delay_ms / 1000.0)  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    st: State = server.state  # type: ignore[attr-defined]
    try:
        for line in sys.stdin:
            cmd, *arg = line.split() or [""]
            if cmd == "reset":
                st.reset()
            elif cmd == "arm":
                st.arm(int(arg[0]))
            elif cmd == "pid":
                st.set_pid(int(arg[0]))
            elif cmd != "stats":
                print(json.dumps({"error": f"unknown command {line.strip()!r}"}), flush=True)
                continue
            print(json.dumps(st.stats()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
