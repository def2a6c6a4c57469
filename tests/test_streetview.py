import contextlib
import http.client
import json
import logging
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import roadsense
from roadsense.cli import main
from roadsense.errors import AnalysisError, InputDataError, NetworkError
from roadsense.geometry import GeoPoint
from roadsense.mockserver import MockStreetViewServer, _Handler
from roadsense.pipeline import RunConfig
from roadsense.sampler import write_plan_csv
from roadsense.segmenter import RoadSegment
from roadsense.stats import estimate_coverage, wilson_interval
from roadsense.streetview import (
    QueryRecord,
    fetch_all,
    format_location,
    read_queries_csv,
    request_target,
    write_queries_csv,
)


pytestmark = pytest.mark.usefixtures("no_backoff")

# the exit-4 message of a REQUEST_DENIED storm among the first 20 queries
DENIED_STORM = (r"^11 of the first 1[1-9] queries were REQUEST_DENIED; "
                "check the API key and quota before continuing$")


def fast_config(base_url, out_dir, **kw):
    defaults = dict(api_key="test-key", out_dir=str(out_dir), base_url=base_url,
                    rate_per_s=100000.0, retries=3,
                    max_concurrency=8, fixed_time="2026-01-01T00:00:00Z")
    defaults.update(kw)
    return RunConfig(**defaults)


class _InterruptingHandler(_Handler):
    """Sends SIGINT to the main thread at the server's k-th request, as the
    terminal does on Ctrl-C, then holds its reply for 0.3 s. A real signal
    wakes the main thread's wait at once. _thread.interrupt_main() only sets
    a flag, which the main thread acts on at some later bytecode, perhaps in
    a finalizer that the garbage collector runs, where the KeyboardInterrupt
    is printed and lost."""

    def do_GET(self):
        server = self.server
        with server.lock:
            server.gets += 1
            fire = server.gets == server.interrupt_at
        if fire:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.3)
        super().do_GET()


class _SilentlyClosingHandler(_Handler):
    """Closes the connection after each response, without a Connection: close."""

    def do_GET(self):
        super().do_GET()
        self.close_connection = True


class _RedirectingHandler(_Handler):
    def do_GET(self):
        with self.server.lock:
            self.server.request_count += 1
        self.send_response(302)
        self.send_header("Location", self.path)
        self.send_header("Content-Length", "0")
        self.end_headers()


class _NonObjectMetadataHandler(_Handler):
    """Answers every metadata request with the server's ``metadata_body``."""

    def _serve_metadata(self, server, location):
        self._reply(200, server.metadata_body)


class _RawMetadataHandler(_Handler):
    """Answers every metadata request with the server's raw ``metadata_bytes``."""

    def _serve_metadata(self, server, location):
        self.send_response(200)
        self.send_header("Content-Length", str(len(server.metadata_bytes)))
        self.end_headers()
        self.wfile.write(server.metadata_bytes)


class _CannedReplyHandler(_Handler):
    """Answers every metadata request with the server's (code, payload)
    ``metadata_reply``. An image request gets the mock's JPEG when the
    server's ``image_code`` is 200, else an empty JSON reply with that code."""

    def _serve_metadata(self, server, location):
        self._reply(*server.metadata_reply)

    def _serve_image(self, server, location):
        if server.image_code == 200:
            super()._serve_image(server, location)
        else:
            self._reply(server.image_code, {})


class _PrefixedHandler(_Handler):
    """Serves the API under /v1 only."""

    def do_GET(self):
        prefixed = self.path.startswith("/v1/maps/")
        self.path = self.path.removeprefix("/v1") if prefixed else "/unprefixed"
        super().do_GET()


def server_with(handler, fixture):
    server = MockStreetViewServer(fixture)
    server.RequestHandlerClass = handler
    return server


class InterruptingServer(MockStreetViewServer):
    def __init__(self, fixture, interrupt_at):
        super().__init__(fixture)
        self.RequestHandlerClass = _InterruptingHandler
        self.interrupt_at = interrupt_at
        self.gets = 0


def plan_of_points(points):
    segs = []
    for i, (lat, lon) in enumerate(points):
        start = GeoPoint(lat, lon)
        end = GeoPoint(lat + 0.001, lon)
        segs.append(RoadSegment(
            segment_id=f"{i}#0", way_id=i, index=0,
            start=start, end=end,
            length_m=111.0, highway_class="primary", city="t"))
    return segs


class TestRequestBuilders:
    def test_metadata_url_format(self):
        assert request_target(GeoPoint(6.5244, 3.3792), "K") == (
            "/maps/api/streetview/metadata?location=6.5244000,3.3792000&key=K")

    def test_seven_decimal_rounding(self):
        assert "location=13.1234568,0.0000000&" in request_target(GeoPoint(13.12345678, 0.0), "K")

    def test_image_url_default_size(self):
        assert request_target(GeoPoint(42.28, -83.38), "K", image=True) == (
            "/maps/api/streetview?size=640x640&location=42.2800000,-83.3800000&key=K")

    def test_base_url_override(self, tmp_path):
        # the base URL's path, without its trailing slash, goes before each target
        points = [(0.0, 0.1)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        with server_with(_PrefixedHandler, fixture) as server:
            config = fast_config(server.base_url + "/v1/", tmp_path)
            assert [r.status for r in fetch_all(plan_of_points(points), config)] == ["OK"]
            assert server.request_count == 2


@contextlib.contextmanager
def default_sigint():
    """SIGINT raises KeyboardInterrupt inside, even where the tests were started
    with SIGINT ignored, as a background job of a non-interactive shell is;
    the previous handler comes back on the way out."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


@pytest.fixture
def sigint_raises():
    with default_sigint():
        yield


def test_default_sigint_raises_inside_and_restores_an_ignored_sigint():
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with pytest.raises(KeyboardInterrupt), default_sigint():
            signal.raise_signal(signal.SIGINT)
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)


@pytest.fixture
def fast_switching():
    """Switch threads far more often than usual, to expose lost updates."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestFetchAll:
    def test_happy_path_saves_images(self, tmp_path):
        points = [(0.0, 0.1), (0.0, 0.2), (0.0, 0.3)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK", "pano_id": f"p{i}"}
                   for i, p in enumerate(points)}
        with MockStreetViewServer(fixture) as server:
            plan = plan_of_points(points)
            records = fetch_all(plan, fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == ["OK"] * 3
        assert all(r.pano_id for r in records)
        for r in records:
            assert (tmp_path / r.image_path).exists()
        assert (tmp_path / "queries.csv").exists()

    def test_plan_order_preserved(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(50)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points[::2]}
        with MockStreetViewServer(fixture) as server:
            plan = plan_of_points(points)
            records = fetch_all(plan, fast_config(server.base_url, tmp_path))
        assert [r.segment_id for r in records] == [s.segment_id for s in plan]
        assert [r.status for r in records] == ["OK", "ZERO_RESULTS"] * 25

    def test_zero_results_mix(self, tmp_path):
        # 3 of 10 points have imagery; the rest answer empty
        points = [(0.0, i * 0.01) for i in range(10)]
        fixture = {format_location(GeoPoint(*points[i])): {"status": "OK"}
                   for i in (1, 4, 7)}
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points(points),
                                fast_config(server.base_url, tmp_path))
        assert sum(r.status == "OK" for r in records) == 3
        assert sum(r.status == "ZERO_RESULTS" for r in records) == 7

    def test_retry_contract(self, tmp_path):
        # fails twice, then succeeds; retries=3 reaches the success
        p = (0.0, 0.5)
        fixture = {format_location(GeoPoint(*p)): {"status": "OK", "fail_first": 2}}
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points([p]),
                                fast_config(server.base_url, tmp_path, retries=3))
        assert records[0].status == "OK"

    def test_retry_exhaustion_is_transport_error(self, tmp_path):
        p = (0.0, 0.5)
        fixture = {format_location(GeoPoint(*p)): {"status": "OK", "fail_first": 10}}
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points([p]),
                                fast_config(server.base_url, tmp_path, retries=2))
        assert records[0].status == "TRANSPORT_ERROR(503)"

    def test_request_denied_storm_aborts(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(30)]
        fixture = {format_location(GeoPoint(*p)): {"status": "REQUEST_DENIED"}
                   for p in points}
        with MockStreetViewServer(fixture) as server:
            with pytest.raises(NetworkError, match=DENIED_STORM):
                fetch_all(plan_of_points(points),
                          fast_config(server.base_url, tmp_path))

    def test_resume_skips_existing(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(20)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            full = fetch_all(plan, config)
            baseline = (tmp_path / "queries.csv").read_bytes()
            # simulate an interrupted run: keep only the first 7 records
            partial = full[:7]
            write_queries_csv(partial, tmp_path / "queries.csv")
            count_before = server.request_count
            resumed = fetch_all(plan, config)
            issued = server.request_count - count_before
        assert resumed == full
        assert (tmp_path / "queries.csv").read_bytes() == baseline
        # 13 missing points, each needing metadata + image
        assert issued == 13 * 2

    def test_request_denied_below_twenty_points_does_not_abort(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(19)]
        fixture = {format_location(GeoPoint(*p)): {"status": "REQUEST_DENIED"}
                   for p in points}
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points(points),
                                fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == ["REQUEST_DENIED"] * 19

    def test_storm_abort_keeps_every_sent_query(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(100)]
        fixture = {format_location(GeoPoint(*p)): {"status": "REQUEST_DENIED"}
                   for p in points}
        with MockStreetViewServer(fixture) as server:
            with pytest.raises(NetworkError, match=DENIED_STORM):
                fetch_all(plan_of_points(points), fast_config(server.base_url, tmp_path))
            sent = set(server.requested_locations)
        journaled = {format_location(r.location)
                     for r in read_queries_csv(tmp_path / "queries.csv")}
        assert journaled == sent
        # the window stops within one window of the 11th denial
        assert len(sent) < 11 + 8

    def test_journal_rows_in_any_order_later_row_wins(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(6)]
        fixture = {format_location(GeoPoint(*p)): {"status": "ZERO_RESULTS"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            full = fetch_all(plan, config)
            baseline = (tmp_path / "queries.csv").read_bytes()
            stale = QueryRecord(full[2].segment_id, full[2].location,
                                "TRANSPORT_ERROR(503)", queried_at="stale")
            write_queries_csv([full[4], stale, full[0], full[2], full[3]],
                              tmp_path / "queries.csv")
            before = server.request_count
            assert fetch_all(plan, config) == full
            # only the point with no row is queried again
            assert sorted(server.requested_locations[before:]) == [
                format_location(full[1].location), format_location(full[5].location)]
        assert (tmp_path / "queries.csv").read_bytes() == baseline

    def test_missing_image_is_fetched_again(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(6)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            full = fetch_all(plan, config)
            baseline = (tmp_path / "queries.csv").read_bytes()
            (tmp_path / full[3].image_path).unlink()
            before = server.request_count
            assert fetch_all(plan, config) == full
            # metadata and image for that point, nothing else
            again = server.requested_locations[before:]
        assert again == [format_location(full[3].location)] * 2
        assert (tmp_path / full[3].image_path).is_file()
        assert (tmp_path / "queries.csv").read_bytes() == baseline

    def test_ok_row_without_image_path_is_fetched_again(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(4)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            full = fetch_all(plan, config)
            no_image = QueryRecord(full[1].segment_id, full[1].location, "OK",
                                   pano_id=full[1].pano_id,
                                   capture_date=full[1].capture_date,
                                   queried_at=full[1].queried_at)
            write_queries_csv([full[0], no_image, full[2], full[3]], tmp_path / "queries.csv")
            before = server.request_count
            assert fetch_all(plan, config) == full
            assert server.request_count - before == 2

    def test_torn_last_line_is_fetched_again(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(5)]
        fixture = {format_location(GeoPoint(*p)): {"status": "ZERO_RESULTS"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            fetch_all(plan, config)
            path = tmp_path / "queries.csv"
            baseline = path.read_bytes()
            # a writer killed mid-row: the last line lacks fields and a newline
            path.write_bytes(baseline[:baseline.rindex(b"\n", 0, -1) + 12])
            assert not path.read_bytes().endswith(b"\n")
            before = server.request_count
            fetch_all(plan, config)
            assert server.requested_locations[before:] == [format_location(GeoPoint(*points[4]))]
        assert path.read_bytes() == baseline

    def test_malformed_journal_row_is_a_row_error(self, tmp_path):
        path = tmp_path / "queries.csv"
        path.write_text("segment_id,lat,lon,status,pano_id,capture_date,image_path,queried_at\n"
                        "0#0,north,0.0,ZERO_RESULTS,,,,t\n")
        with pytest.raises(InputDataError, match=": line 2: column lat: "):
            fetch_all(plan_of_points([(0.0, 0.0)]), fast_config("http://127.0.0.1:9", tmp_path))

    @pytest.mark.parametrize("k", [1, 19, 20, 21, 150])
    def test_interrupt_then_resume_pays_once(self, tmp_path, sigint_raises, fast_switching, k):
        points = [(0.0, i * 0.01) for i in range(120)]
        ok = points[::2]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in ok}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            fetch_all(plan, fast_config(server.base_url, tmp_path / "reference"))
        reference = (tmp_path / "reference" / "queries.csv").read_bytes()

        out = tmp_path / "run"
        with InterruptingServer(fixture, interrupt_at=k) as server:
            config = fast_config(server.base_url, out)
            with pytest.raises(KeyboardInterrupt):
                fetch_all(plan, config)
            sent = set(server.requested_locations)
            kept = (out / "queries.csv").read_text().splitlines()
            fetch_all(plan, config)
            requested = Counter(server.requested_locations)
        final = (out / "queries.csv").read_bytes()
        # every query sent before the interrupt has its row in the journal
        assert {line.split(",")[1] + "," + line.split(",")[2] for line in kept[1:]} == sent
        assert set(kept) <= set(final.decode().splitlines())
        assert final == reference
        # one metadata request per point and one image per OK point, no more
        assert requested == {format_location(GeoPoint(*p)): 1 + (p in ok) for p in points}

    @pytest.mark.parametrize("workers, k", [(1, 1), (1, 5), (2, 5), (2, 31)])
    def test_sigint_during_a_query_keeps_its_row(self, tmp_path, sigint_raises, workers, k):
        # the signal wakes the main thread's wait while the query that sent
        # it is in flight; with one worker, the main thread was waiting on
        # that very query
        points = [(0.0, i * 0.01) for i in range(60)]
        ok = points[::2]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in ok}
        plan = plan_of_points(points)
        with InterruptingServer(fixture, k) as server:
            config = fast_config(server.base_url, tmp_path, max_concurrency=workers)
            with pytest.raises(KeyboardInterrupt):
                fetch_all(plan, config)
            sent = set(server.requested_locations)
            journaled = {format_location(r.location)
                         for r in read_queries_csv(tmp_path / "queries.csv")}
            fetch_all(plan, config)
            requested = Counter(server.requested_locations)
        assert sent <= journaled
        assert requested == {format_location(GeoPoint(*p)): 1 + (p in ok) for p in points}

    def test_rerun_makes_no_network_calls(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(5)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        plan = plan_of_points(points)
        with MockStreetViewServer(fixture) as server:
            config = fast_config(server.base_url, tmp_path)
            fetch_all(plan, config)
            before = server.request_count
            fetch_all(plan, config)
            assert server.request_count == before

    def test_empty_key_with_points_to_fetch_exits_2_before_any_request(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STREETVIEW_API_KEY", raising=False)
        write_plan_csv(plan_of_points([(0.0, 0.1), (0.0, 0.2)]), tmp_path / "plan.csv")
        with MockStreetViewServer({"__default__": {"status": "OK"}}) as server:
            assert main(["fetch", "--plan", str(tmp_path / "plan.csv"),
                         "--out-dir", str(tmp_path / "run"), "--api-key", "",
                         "--base-url", server.base_url]) == 2
            assert server.request_count == 0
        assert "error: imagery API key is empty" in capsys.readouterr().err
        assert not (tmp_path / "run" / "images").exists()

    def test_empty_key_with_every_point_journaled_exits_0(self, tmp_path, monkeypatch):
        points = [(0.0, 0.1), (0.0, 0.2)]
        write_plan_csv(plan_of_points(points), tmp_path / "plan.csv")
        fixture = {format_location(GeoPoint(*points[0])): {"status": "OK"}}
        args = ["fetch", "--plan", str(tmp_path / "plan.csv"),
                "--out-dir", str(tmp_path / "run"), "--fixed-time", "2026-01-01T00:00:00Z"]
        with MockStreetViewServer(fixture) as server:
            args += ["--base-url", server.base_url]
            monkeypatch.setenv("STREETVIEW_API_KEY", "k")  # the key when no flag gives one
            assert main(args) == 0
            assert server.request_count == 3
            journal = (tmp_path / "run" / "queries.csv").read_bytes()
            monkeypatch.delenv("STREETVIEW_API_KEY")
            before = server.request_count
            assert main(args + ["--api-key", ""]) == 0
            assert server.request_count == before
        assert (tmp_path / "run" / "queries.csv").read_bytes() == journal

    def test_images_dir_is_made_once_per_fetch(self, tmp_path, monkeypatch):
        points = [(0.0, i * 0.01) for i in range(6)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        made = []
        mkdir = Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *a, **kw: (made.append(path),
                                                                   mkdir(path, *a, **kw)))
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points(points), fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == ["OK"] * 6
        assert made == [tmp_path, tmp_path / "images"]

    def test_fetch_without_an_ok_answer_leaves_an_empty_images_dir(self, tmp_path):
        with MockStreetViewServer({}) as server:
            records = fetch_all(plan_of_points([(0.0, 0.1)]),
                                fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == ["ZERO_RESULTS"]
        assert os.listdir(tmp_path / "images") == []


    def test_stale_keep_alive_connection_is_reopened(self, tmp_path):
        points = [(0.0, i * 0.01) for i in range(20)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        with server_with(_SilentlyClosingHandler, fixture) as server:
            records = fetch_all(plan_of_points(points),
                                fast_config(server.base_url, tmp_path, retries=0,
                                            max_concurrency=2))
            served = server.request_count
        assert [r.status for r in records] == ["OK"] * 20
        assert all((tmp_path / r.image_path).is_file() for r in records)
        # the request sent on a closed connection never reached the handler
        assert served == 2 * 20

    @pytest.mark.parametrize("body", [["not", "an", "object"], "a string", 7, None])
    def test_metadata_json_that_is_not_an_object_is_bad_json(self, tmp_path, body):
        points = [(0.0, 0.1), (0.0, 0.2)]
        with server_with(_NonObjectMetadataHandler, {}) as server:
            server.metadata_body = body
            records = fetch_all(plan_of_points(points), fast_config(server.base_url, tmp_path))
            assert server.request_count == 2
        assert [r.status for r in records] == ["TRANSPORT_ERROR(bad-json)"] * 2

    def test_metadata_json_nested_too_deep_is_bad_json(self, tmp_path):
        with server_with(_RawMetadataHandler, {}) as server:
            server.metadata_bytes = b"[" * 100_000
            records = fetch_all(plan_of_points([(0.0, 0.1)]),
                                fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == ["TRANSPORT_ERROR(bad-json)"]

    @pytest.mark.parametrize("body, status", [
        (b'\xef\xbb\xbf{"status": "ZERO_RESULTS"}', "ZERO_RESULTS"),
        ('{"status": "ZERO_RESULTS"}'.encode("utf-16"), "TRANSPORT_ERROR(bad-json)"),
    ], ids=["utf-8-with-bom", "utf-16"])
    def test_metadata_answer_is_utf8_with_or_without_a_bom(self, tmp_path, body, status):
        with server_with(_RawMetadataHandler, {}) as server:
            server.metadata_bytes = body
            records = fetch_all(plan_of_points([(0.0, 0.1)]),
                                fast_config(server.base_url, tmp_path))
        assert [r.status for r in records] == [status]

    def test_api_key_is_percent_encoded(self, tmp_path):
        points = [(0.0, 0.1)]
        fixture = {format_location(GeoPoint(*p)): {"status": "OK"} for p in points}
        with MockStreetViewServer(fixture) as server:
            records = fetch_all(plan_of_points(points),
                                fast_config(server.base_url, tmp_path, api_key="k y/\u00fc"))
        assert records[0].status == "OK"
        assert request_target(GeoPoint(0, 0), "k y/\u00fc").endswith("&key=k%20y%2F%C3%BC")

    def test_refused_connection_is_named_by_its_exception(self, tmp_path):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        records = fetch_all(plan_of_points([(0.0, 0.1)]),
                            fast_config(f"http://127.0.0.1:{port}", tmp_path, retries=1))
        assert records[0].status == "TRANSPORT_ERROR(ConnectionRefusedError)"

    def test_redirect_is_not_followed(self, tmp_path):
        with server_with(_RedirectingHandler, {}) as server:
            records = fetch_all(plan_of_points([(0.0, 0.1)]),
                                fast_config(server.base_url, tmp_path))
            assert server.request_count == 1
        assert records[0].status == "TRANSPORT_ERROR(302)"

    # (metadata code, metadata payload, image code): the row's status, whether
    # it holds an image, and the requests sent with retries=2
    @pytest.mark.parametrize("metadata_code, payload, image_code, status, image, requests", [
        (200, {"status": "OK"}, 200, "OK", True, 2),
        (200, {"status": "ZERO_RESULTS"}, 200, "ZERO_RESULTS", False, 1),
        (200, {"status": "REQUEST_DENIED"}, 200, "REQUEST_DENIED", False, 1),
        (404, {"status": "OK"}, 200, "TRANSPORT_ERROR(404)", False, 1),
        (503, {"status": "OK"}, 200, "TRANSPORT_ERROR(503)", False, 3),
        (200, {"status": "NOT_FOUND"}, 200, "ZERO_RESULTS", False, 1),
        (200, {"status": "OVER_QUERY_LIMIT"}, 200, "TRANSPORT_ERROR(OVER_QUERY_LIMIT)", False, 1),
        (200, {}, 200, "TRANSPORT_ERROR(UNKNOWN_ERROR)", False, 1),
        (200, {"status": 7}, 200, "TRANSPORT_ERROR(7)", False, 1),
        (200, {"status": "OK"}, 404, "OK", False, 2),
        (200, {"status": "OK"}, 503, "OK", False, 4),
    ], ids=["ok", "zero-results", "request-denied", "metadata-404", "metadata-503-past-retries",
            "not-found", "over-query-limit", "no-status", "status-not-a-string", "image-404",
            "image-503-past-retries"])
    def test_each_reply_gives_its_exact_status(self, tmp_path, caplog, metadata_code,
                                               payload, image_code, status, image, requests):
        caplog.set_level(logging.WARNING, logger="roadsense.streetview")
        p = (0.0, 0.1)
        with server_with(_CannedReplyHandler, {format_location(GeoPoint(*p)): {}}) as server:
            server.metadata_reply = (metadata_code, payload)
            server.image_code = image_code
            records = fetch_all(plan_of_points([p]),
                                fast_config(server.base_url, tmp_path, retries=2))
            assert server.request_count == requests
        (rec,) = records
        assert rec.status == status
        assert rec.image_path == ("images/0#0.jpg" if image else None)
        assert (tmp_path / "images" / "0#0.jpg").is_file() == image
        failed = "metadata OK but image fetch failed for 0#0"
        assert (failed in caplog.messages) == (status == "OK" and not image)
        assert read_queries_csv(tmp_path / "queries.csv") == records


class TestMockServer:
    def test_stop_returns_promptly_with_keep_alive_connections_open(self):
        fixture = {format_location(GeoPoint(0.0, 0.1)): {"status": "OK"}}
        server = MockStreetViewServer(fixture).start()
        conn = http.client.HTTPConnection(*server.server_address, timeout=5)
        try:
            for _ in range(3):
                conn.request("GET", request_target(GeoPoint(0.0, 0.1), "K"))
                resp = conn.getresponse()
                assert json.loads(resp.read())["status"] == "OK"
            assert resp.version == 11   # HTTP/1.1, connection left open
            assert conn.sock is not None
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 2.0
        finally:
            conn.close()
        assert not server._thread.is_alive()
        assert server.request_count == 3

    def test_a_fixture_key_that_is_not_a_location_is_an_error(self):
        # the benchmark stand-in's format: loaded here, it would answer every
        # location with ZERO_RESULTS
        fixture = {"default_status": "OK", "locations": {
            format_location(GeoPoint(0.0, 0.1)): {"status": "OK"}}}
        with pytest.raises(ValueError, match="key 'default_status' is neither a location"):
            MockStreetViewServer(fixture)
        for key in ("0.0,0.1", "0.00000000,0.1000000", " 0.0000000,0.1000000"):
            with pytest.raises(ValueError, match=repr(key)):
                MockStreetViewServer({key: {"status": "OK"}})

    def test_module_prints_its_url_at_once_and_serves_a_run(self, fixture_city_file,
                                                             tmp_path):
        # the offline quickstart: with --port 0 the printed line is the only
        # way to learn the port, so it must not wait in a pipe's block buffer
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps({"__default__": {"status": "OK"}}))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(roadsense.__file__).resolve().parent.parent)
        with subprocess.Popen([sys.executable, "-m", "roadsense.mockserver", str(fixture),
                               "--port", "0"], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as server:
            try:
                readable, _, _ = select.select([server.stdout], [], [], 10.0)
                assert readable, "no line from the mock server within 10 s"
                line = server.stdout.readline()
                assert line.startswith("mock imagery API listening on http://127.0.0.1:")
                assert main(["run", "--osm", str(fixture_city_file), "--city", "test",
                             "--out-dir", str(tmp_path / "run"), "--n", "5", "--seed", "7",
                             "--base-url", line.split()[-1], "--api-key", "dummy",
                             "--rate-per-s", "1000"]) == 0
            finally:
                server.terminate()  # SIGINT may be ignored where the tests run
                server.wait(timeout=10)
        assert len(read_queries_csv(tmp_path / "run" / "queries.csv")) == 5

    @pytest.mark.parametrize("text, message", [
        ('{"__default__": {"status": "OK"}', "line 1 column 33: not valid JSON"),
        ('{"0.0,0.1": {"status": "OK"}}', "mock fixture key '0.0,0.1' is neither a location"),
        ("[]", "expected an object, got []"),
    ], ids=["bad-json", "bad-key", "not-an-object"])
    def test_module_refuses_a_bad_fixture_file_with_one_error_line(self, tmp_path, text,
                                                                   message):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(roadsense.__file__).resolve().parent.parent))
        done = subprocess.run([sys.executable, "-m", "roadsense.mockserver", str(fixture),
                               "--port", "0"], env=env, capture_output=True, text=True,
                              timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(f"error: {fixture}: ")
        assert message in done.stderr and done.stderr.count("\n") == 1


class TestQueriesCsv:
    def test_round_trip(self, tmp_path):
        records = [
            QueryRecord("1#0", GeoPoint(1.0, 2.0), "OK", pano_id="p",
                        capture_date="2017-05", image_path="images/1#0.jpg",
                        queried_at="2026-01-01T00:00:00Z"),
            QueryRecord("2#0", GeoPoint(1.0, 3.0), "ZERO_RESULTS",
                        queried_at="2026-01-01T00:00:00Z"),
            QueryRecord("3#0", GeoPoint(1.0, 4.0), "TRANSPORT_ERROR(503)",
                        queried_at="2026-01-01T00:00:00Z"),
        ]
        path = tmp_path / "queries.csv"
        write_queries_csv(records, path)
        assert read_queries_csv(path) == records

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            QueryRecord("1#0", GeoPoint(0, 0), "ZERO_RESULTS", pano_id="p")
        with pytest.raises(ValueError):
            QueryRecord("1#0", GeoPoint(0, 0), "ZERO_RESULTS", image_path="x.jpg")


class TestCoverage:
    def make_records(self, ok, zero, transport=0, denied=0):
        recs = []
        i = 0
        for status, count in (("OK", ok), ("ZERO_RESULTS", zero),
                              ("TRANSPORT_ERROR(timeout)", transport),
                              ("REQUEST_DENIED", denied)):
            for _ in range(count):
                recs.append(QueryRecord(f"{i}#0", GeoPoint(0, i * 0.001), status,
                                        queried_at="t"))
                i += 1
        return recs

    def test_dhaka_proportion(self):
        est = estimate_coverage(self.make_records(ok=246, zero=754))
        assert est.proportion == 246 / 1000
        assert est.successes == 246
        assert est.total == 1000

    def test_zero_ok_boundary(self):
        est = estimate_coverage(self.make_records(ok=0, zero=50))
        assert est.proportion == 0.0
        assert est.ci_low == 0.0

    def test_wilson_50_of_100(self):
        # direct evaluation of the Wilson formula with z = 1.959964
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=5e-5)
        assert high == pytest.approx(0.5962, abs=5e-5)

    def test_wilson_monte_carlo_coverage(self):
        # the interval should cover the true p about 95% of the time
        import random
        rng = random.Random(123)
        p_true, n, trials, covered = 0.5, 100, 2000, 0
        for _ in range(trials):
            successes = sum(1 for _ in range(n) if rng.random() < p_true)
            low, high = wilson_interval(successes, n)
            if low <= p_true <= high:
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.02)

    def test_transport_errors_excluded(self):
        est = estimate_coverage(self.make_records(ok=10, zero=10, transport=5, denied=2))
        assert est.total == 20
        assert est.proportion == 0.5
        assert est.excluded == 7

    def test_order_invariance(self):
        recs = self.make_records(ok=30, zero=20, transport=3)
        a = estimate_coverage(recs)
        b = estimate_coverage(list(reversed(recs)))
        assert a == b

    def test_no_usable_records(self):
        with pytest.raises(AnalysisError, match="^no usable records: 3 total, all excluded$"):
            estimate_coverage(self.make_records(ok=0, zero=0, transport=3))

    def test_interval_brackets_proportion(self):
        for ok, total in ((1, 100), (50, 100), (99, 100), (246, 1000)):
            est = estimate_coverage(self.make_records(ok=ok, zero=total - ok))
            assert est.ci_low <= est.proportion <= est.ci_high
            assert 0.0 <= est.ci_low <= est.ci_high <= 1.0
