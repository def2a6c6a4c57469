import math
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from roadsense import streetview
from roadsense.geometry import EARTH_RADIUS_M
from roadsense.osm_ingest import RoadNetwork, parse_osm


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)


def lon_span(meters: float) -> float:
    return meters * 180.0 / (math.pi * EARTH_RADIUS_M)


def fixture_city_xml(city_ways=None) -> str:
    """A small synthetic city: straight east-west ways on distinct latitudes.

    city_ways: list of (way_id, highway_class, length_m). Defaults to a mix
    of all four sampled classes plus roads outside the frame.
    """
    if city_ways is None:
        city_ways = []
        wid = 100
        for i, cls in enumerate(["primary", "secondary", "tertiary", "trunk"] * 3):
            city_ways.append((wid, cls, 900.0 + 350.0 * (i % 5)))
            wid += 1
        city_ways.append((wid, "residential", 800.0))
        city_ways.append((wid + 1, "footway", 400.0))
    lines = ["<?xml version='1.0' encoding='UTF-8'?>", "<osm version='0.6'>"]
    node_id = 1
    ways = []
    for idx, (way_id, cls, length) in enumerate(city_ways):
        lat = 0.01 * idx
        a, b = node_id, node_id + 1
        node_id += 2
        lines.append(f'  <node id="{a}" lat="{lat}" lon="0.0"/>')
        lines.append(f'  <node id="{b}" lat="{lat}" lon="{lon_span(length)!r}"/>')
        ways.append((way_id, a, b, cls))
    for way_id, a, b, cls in ways:
        lines.append(f'  <way id="{way_id}">')
        lines.append(f'    <nd ref="{a}"/>')
        lines.append(f'    <nd ref="{b}"/>')
        lines.append(f'    <tag k="highway" v="{cls}"/>')
        lines.append("  </way>")
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


def parse_osm_text(document: str | bytes, source_name: str = "") -> RoadNetwork:
    """parse_osm of an OSM XML document, written to a file first, since
    parse_osm reads only a path. The file is in a directory of its own, not
    in tmp_path, so that a hypothesis test can parse once per example."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "city.osm")
        path.write_bytes(document.encode("utf-8") if isinstance(document, str) else document)
        return parse_osm(path, source_name=source_name)


@pytest.fixture
def fixture_city_file(tmp_path):
    path = tmp_path / "city.osm"
    path.write_text(fixture_city_xml(), encoding="utf-8")
    return path


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry at once instead of after streetview.BACKOFF_S seconds."""
    monkeypatch.setattr(streetview, "BACKOFF_S", 0.0)
