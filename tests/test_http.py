"""The fetch client's HTTP/1.1 connection: reply framings read from a
raw-socket server, TLS against CPython's test certificates, and what
importing the CLI loads."""

import json
import os
import socket
import ssl
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import roadsense
from roadsense.geometry import GeoPoint
from roadsense.mockserver import TINY_JPEG, MockStreetViewServer
from roadsense.streetview import fetch_all, format_location
from test_streetview import fast_config, plan_of_points

pytestmark = pytest.mark.usefixtures("no_backoff")

POINTS = [(0.0, 0.1), (0.0, 0.2)]
METADATA = json.dumps({"status": "OK", "pano_id": "p", "date": "2017-06"}).encode()
CERTDATA = Path(ssl.__file__).parent / "test" / "certdata"


class RawServer:
    """A bare TCP server. Each request is answered with the bytes that
    ``reply(body)`` returns, where ``body`` is the metadata answer or the
    image that the request asks for; the connection is then closed when
    ``close_after`` is true, or when the reply is None (nothing is sent)."""

    def __init__(self, reply, close_after=False):
        self.reply = reply
        self.close_after = close_after
        self.requests: list[str] = []
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.base_url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self._thread = threading.Thread(target=self._accept, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.listener.shutdown(socket.SHUT_RDWR)   # wakes accept()
        self.listener.close()
        self._thread.join(timeout=5)

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            data = b""
            while True:
                while b"\r\n\r\n" not in data:
                    more = conn.recv(65536)
                    if not more:
                        return
                    data += more
                head, _, data = data.partition(b"\r\n\r\n")
                path = head.split(b" ")[1].decode()
                self.requests.append(path)
                reply = self.reply(METADATA if "/metadata?" in path else TINY_JPEG)
                if reply is None:
                    return
                conn.sendall(reply)
                if self.close_after:
                    return


def fetch(server, tmp_path, points=POINTS, **kw):
    config = fast_config(server.base_url, tmp_path, max_concurrency=1, **kw)
    return fetch_all(plan_of_points(points), config)


def assert_ok_with_images(records, tmp_path):
    assert [r.status for r in records] == ["OK"] * len(records)
    assert all((tmp_path / r.image_path).read_bytes() == TINY_JPEG for r in records)


def with_length(status_line, body, *fields):
    head = [status_line, f"Content-Length: {len(body)}", *fields]
    return "".join(f"{line}\r\n" for line in head).encode() + b"\r\n" + body


class TestFraming:
    def test_chunked_body_with_a_trailer(self, tmp_path):
        def chunked(body):
            chunks = b"".join(b"%x;ext=1\r\n%s\r\n" % (len(part), part)
                              for part in (body[:3], body[3:]))
            return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    + chunks + b"0\r\nX-Checksum: none\r\n\r\n")
        with RawServer(chunked) as server:
            assert_ok_with_images(fetch(server, tmp_path), tmp_path)
        # the trailer was read to its end: one connection served all four requests
        assert (server.connections, len(server.requests)) == (1, 4)

    def test_http10_body_ends_with_the_connection(self, tmp_path):
        with RawServer(lambda body: b"HTTP/1.0 200 OK\r\nServer: old\r\n\r\n" + body,
                       close_after=True) as server:
            assert_ok_with_images(fetch(server, tmp_path), tmp_path)
        assert (server.connections, len(server.requests)) == (4, 4)

    def test_connection_close_then_a_new_connection(self, tmp_path):
        with RawServer(lambda body: with_length("HTTP/1.1 200 OK", body, "Connection: close"),
                       close_after=True) as server:
            assert_ok_with_images(fetch(server, tmp_path, retries=0), tmp_path)
        assert (server.connections, len(server.requests)) == (4, 4)

    def test_100_continue_before_the_reply(self, tmp_path):
        with RawServer(lambda body: b"HTTP/1.1 100 Continue\r\n\r\n"
                       + with_length("HTTP/1.1 200 OK", body)) as server:
            assert_ok_with_images(fetch(server, tmp_path), tmp_path)
        assert (server.connections, len(server.requests)) == (1, 4)

    def test_truncated_body_is_an_incomplete_read(self, tmp_path):
        with RawServer(lambda body: b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + body,
                       close_after=True) as server:
            records = fetch(server, tmp_path, retries=1)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(IncompleteRead)"] * 2
        assert len(server.requests) == 4

    def test_garbage_status_line_is_a_bad_status_line(self, tmp_path):
        with RawServer(lambda body: b"SPAM SPAM SPAM\r\n\r\n", close_after=True) as server:
            records = fetch(server, tmp_path, retries=1)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(BadStatusLine)"] * 2

    @pytest.mark.parametrize("length", ["-1", "12abc", "1e3", ""])
    def test_bad_content_length_is_a_named_transport_error(self, tmp_path, length):
        with RawServer(lambda body: b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s"
                       % (length.encode(), body), close_after=True) as server:
            records = fetch(server, tmp_path, retries=0)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(BadContentLength)"] * 2

    def test_bad_chunk_size_is_an_incomplete_read(self, tmp_path):
        with RawServer(lambda body: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                       b"-5\r\n", close_after=True) as server:
            records = fetch(server, tmp_path, retries=0)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(IncompleteRead)"] * 2

    @pytest.mark.parametrize("head", [b"HTTP/1.1 200 OK" + b"x" * 70000,
                                      b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * 70000 + b"\r\n"],
                             ids=["status-line", "header-fields"])
    def test_a_head_past_64_kib_is_a_line_too_long(self, tmp_path, head):
        with RawServer(lambda body: head, close_after=True) as server:
            records = fetch(server, tmp_path, retries=0)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(LineTooLong)"] * 2

    def test_fresh_connection_closed_before_a_reply_is_remote_disconnected(self, tmp_path):
        with RawServer(lambda body: None) as server:
            records = fetch(server, tmp_path, points=POINTS[:1], retries=2)
        assert [r.status for r in records] == ["TRANSPORT_ERROR(RemoteDisconnected)"]
        # one request per attempt: a fresh connection is never sent to twice
        assert (server.connections, len(server.requests)) == (3, 3)


@pytest.mark.skipif(not CERTDATA.is_dir(), reason="CPython's test certificates are absent")
class TestHttps:
    @pytest.mark.parametrize("ca_file, status", [
        ("pycacert.pem", "OK"), (None, "TRANSPORT_ERROR(SSLCertVerificationError)")])
    def test_fetch_verifies_the_server_certificate(self, tmp_path, monkeypatch,
                                                   ca_file, status):
        monkeypatch.delenv("SSL_CERT_DIR", raising=False)
        if ca_file:
            monkeypatch.setenv("SSL_CERT_FILE", str(CERTDATA / ca_file))
        else:
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in POINTS}
        server = MockStreetViewServer(fixture)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(CERTDATA / "keycert3.pem")   # issued to localhost
        server.socket = context.wrap_socket(server.socket, server_side=True)
        with server:
            base_url = f"https://localhost:{server.server_address[1]}"
            records = fetch_all(plan_of_points(POINTS),
                                fast_config(base_url, tmp_path, retries=0))
        assert [r.status for r in records] == [status] * 2
        if status == "OK":
            assert_ok_with_images(records, tmp_path)


def test_streetview_import_loads_neither_stats_nor_labeling():
    # the query statuses are streetview's own; coverage and labels are other stages
    src = str(Path(roadsense.__file__).resolve().parent.parent)
    code = ("import sys, roadsense.streetview; "
            "print([m for m in ('roadsense.stats', 'roadsense.labeling') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_neither_http_client_nor_email():
    src = str(Path(roadsense.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, roadsense.cli; "
            "print([m for m in ('http.client', 'email.parser') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
