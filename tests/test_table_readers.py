"""Property: every table reader, the tracts GeoJSON reader, the OSM XML and
network.ndjson readers and the config reader given a run manifest, given a
valid file with a few bytes flipped, deleted or inserted, parse or raise a
RoadsenseError with the exit code of a configuration or input-data error."""

import json

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parse_osm_text
from roadsense.analysis import load_tracts_geojson
from roadsense.errors import RoadsenseError
from roadsense.geometry import GeoPoint
from roadsense.labeling import (
    aggregate,
    parse_labels,
    read_consensus_csv,
    tally,
    write_consensus_csv,
)
from roadsense.osm_ingest import parse_osm, read_network, write_network
from roadsense.pipeline import RunConfig, _write_manifest, load_config
from roadsense.sampler import write_plan_csv
from roadsense.segmenter import RoadSegment, read_segments_csv, write_segments_csv
from roadsense.streetview import QueryRecord, read_queries_csv, write_queries_csv

LABELS = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
          "Answer.markings_present,Answer.markings_clear,Answer.litter,Answer.sidewalk\n"
          "a1,w1,1#0,yes,no,yes,yes,no,yes\n"
          "a2,w2,1#0,No,no,no,na,yes,nosidewalk\n"
          "a3,w1,2#0,no,yes,yes,no,no,no\n").encode("utf-8")


def _segments() -> list[RoadSegment]:
    out = []
    for i in range(1, 4):
        start, end = GeoPoint(13.0 + i * 0.001, 100.5), GeoPoint(13.0 + i * 0.001, 100.501)
        out.append(RoadSegment(f"{i}#0", i, 0, start, end, 108.4, "primary", "bangkok"))
    return out


def _valid_files(directory: Path) -> dict:
    """reader name -> (reader, valid file bytes)"""
    segments = _segments()
    write_segments_csv(segments, directory / "segments.csv")
    write_plan_csv(segments, directory / "plan.csv")
    records = [QueryRecord("1#0", segments[0].start, "OK", "p1", "2017-05",
                           "images/1#0.jpg", "2026-01-01T00:00:00Z"),
               QueryRecord("2#0", segments[1].start, "ZERO_RESULTS",
                           queried_at="2026-01-01T00:00:00Z")]
    write_queries_csv(records, directory / "queries.csv")
    (directory / "labels.csv").write_bytes(LABELS)
    write_consensus_csv(aggregate(tally(parse_labels(directory / "labels.csv"))),
                        directory / "consensus.csv")
    return {name: (reader, (directory / f"{name}.csv").read_bytes())
            for name, reader in (("segments", read_segments_csv), ("plan", read_segments_csv),
                                 ("queries", read_queries_csv),
                                 ("consensus", read_consensus_csv), ("labels", parse_labels))}


_BYTES = st.sampled_from(b',"\n\r\xff0x-.9')
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                                st.floats(0, 1, exclude_max=True), _BYTES),
                      min_size=1, max_size=4)


def mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for kind, where, byte in mutations:
        i = int(where * len(buf))
        if kind == "insert":
            buf.insert(i, byte)
        elif not buf:
            continue
        elif kind == "flip":
            buf[i] = byte
        else:
            del buf[i]
    return bytes(buf)


@pytest.mark.parametrize("reader_name", ["segments", "plan", "queries", "consensus", "labels"])
def test_mutated_table_parses_or_raises_a_typed_error(tmp_path_factory, reader_name):
    directory = tmp_path_factory.mktemp(reader_name)
    reader, valid = _valid_files(directory)[reader_name]
    assert reader(directory / f"{reader_name}.csv")
    path = directory / "mutated.csv"

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_MUTATIONS)
    def check(mutations):
        data = mutate(valid, mutations)
        path.write_bytes(data)
        try:
            reader(path)
        except RoadsenseError as e:
            assert e.exit_code in (2, 3), e

    check()


@pytest.mark.parametrize("reader_name", ["segments", "plan", "queries", "consensus", "labels"])
def test_table_with_a_byte_order_mark_reads_as_without(tmp_path, reader_name):
    reader, valid = _valid_files(tmp_path)[reader_name]
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + valid)
    assert reader(path) == reader(tmp_path / f"{reader_name}.csv")


# a Polygon tract and a MultiPolygon tract whose first part has a hole
TRACTS = json.dumps({"type": "FeatureCollection", "features": [
    {"type": "Feature", "properties": {"tract_id": "100", "per_capita_income": 12000},
     "geometry": {"type": "Polygon",
                  "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}},
    {"type": "Feature", "properties": {"tract_id": "200", "per_capita_income": 45000.5},
     "geometry": {"type": "MultiPolygon", "coordinates": [
         [[[2, 0], [3, 0], [3, 1], [2, 1], [2, 0]],
          [[2.4, 0.4], [2.6, 0.4], [2.6, 0.6], [2.4, 0.6], [2.4, 0.4]]],
         [[[4, 0], [5, 0], [5, 1], [4, 1], [4, 0, 12.5]]]]}}]}).encode("utf-8")

_JSON_MUTATIONS = st.lists(st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                                     st.floats(0, 1, exclude_max=True),
                                     st.sampled_from(b'[]{},:"\xff0-.9e')),
                           min_size=1, max_size=4)


def test_mutated_tracts_load_or_raise_a_typed_error(tmp_path):
    path = tmp_path / "tracts.geojson"
    path.write_bytes(TRACTS)
    assert [t.tract_id for t in load_tracts_geojson(path)] == ["100", "200"]

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_JSON_MUTATIONS)
    def check(mutations):
        path.write_bytes(mutate(TRACTS, mutations))
        try:
            load_tracts_geojson(path)
        except RoadsenseError as e:
            assert e.exit_code in (2, 3), e

    check()


OSM = ("<?xml version='1.0' encoding='UTF-8'?>\n<osm version='0.6'>\n"
       ' <node id="1" lat="13.75" lon="100.50"/>\n'
       ' <node id="2" lat="13.76" lon="100.51"><tag k="amenity" v="cafe"/></node>\n'
       ' <node id="3" lat="-13.7" lon="-100.5"/>\n'
       ' <way id="10"><nd ref="1"/><nd ref="2"/><nd ref="3"/>\n'
       '  <tag k="highway" v="primary"/><tag k="name" v="A &amp; B"/></way>\n'
       ' <way id="11"><nd ref="2"/><nd ref="3"/><tag k="building" v="yes"/></way>\n'
       "</osm>\n").encode("utf-8")

def _network_file(directory: Path) -> bytes:
    write_network(parse_osm_text(OSM, source_name="bangkok"), directory / "network.ndjson")
    return (directory / "network.ndjson").read_bytes()


def _manifest_file(directory: Path) -> bytes:
    config = RunConfig(city="bangkok", osm_path="city.osm", out_dir="run", seed=3,
                       api_key="k", fixed_time="2026-01-01T00:00:00Z")
    _write_manifest(config, directory, "0" * 64)
    return (directory / "run_manifest.json").read_bytes()


@pytest.mark.parametrize("name, reader, valid, alphabet", [
    ("city.osm", parse_osm, lambda d: OSM, b'<>/="\'&;#x\xff0-.9 \n'),
    ("network.ndjson", read_network, _network_file, b'[]{},:"\\\xff0-.9e\n'),
    ("run_manifest.json", load_config, _manifest_file, b'[]{},:"\xff0-.9e'),
], ids=["osm-xml", "network-ndjson", "run-manifest"])
def test_mutated_input_parses_or_raises_a_typed_error(tmp_path, name, reader, valid,
                                                     alphabet):
    data = valid(tmp_path)
    path = tmp_path / name
    path.write_bytes(data)
    reader(path)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                              st.floats(0, 1, exclude_max=True), st.sampled_from(alphabet)),
                    min_size=1, max_size=4))
    def check(mutations):
        path.write_bytes(mutate(data, mutations))
        try:
            reader(path)
        except RoadsenseError as e:
            assert e.exit_code in (2, 3), e

    check()


# any JSON value, to put in place of one field of a valid record
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=5)


@pytest.mark.parametrize("name, reader, valid", [
    ("network.ndjson", read_network, _network_file),
    ("run_manifest.json", load_config, _manifest_file),
], ids=["network-ndjson", "run-manifest"])
def test_field_of_any_json_type_parses_or_raises_a_typed_error(tmp_path, name, reader, valid):
    """The same property when one field of a record holds any JSON value."""
    text = valid(tmp_path)
    records = ([json.loads(line) for line in text.splitlines()] if name.endswith(".ndjson")
               else [json.loads(text)])
    path = tmp_path / name

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        changed = json.loads(json.dumps(records))
        record = data.draw(st.sampled_from(changed))
        fields = record["config"] if "config" in record else record
        fields[data.draw(st.sampled_from(sorted(fields)))] = data.draw(_JSON_VALUES)
        path.write_text("".join(json.dumps(r) + "\n" for r in changed))
        try:
            reader(path)
        except RoadsenseError as e:
            assert e.exit_code in (2, 3), e

    check()
