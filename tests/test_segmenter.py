import dataclasses
import math
import random
from functools import reduce
from operator import add

import pytest

from oracles import equator_lon_for_meters, polyline_length_m
from roadsense.errors import DegenerateWayError, InputDataError
from roadsense.geometry import GeoPoint, Polyline
from roadsense.osm_ingest import RoadNetwork, Way
from roadsense.segmenter import (
    SEGMENTS_CSV_HEADER,
    chunk_network,
    chunk_way,
    read_segments_csv,
    segment_shapes,
    skipped_ways,
    way_pieces,
    write_segments_csv,
)


def left_to_right_length_m(points) -> float:
    """The length of a piece's shape with its edges added left to right."""
    return reduce(add, Polyline(points).edge_lengths_m(), 0.0)


def equatorial_network(lengths_m, city="testville"):
    """One straight equatorial way per requested length."""
    nodes = {}
    ways = []
    nid = 1
    for i, length in enumerate(lengths_m):
        lon0 = 10.0 * i
        a, b = nid, nid + 1
        nodes[a] = GeoPoint(0.0, lon0)
        nodes[b] = GeoPoint(0.0, lon0 + equator_lon_for_meters(length))
        ways.append(Way(id=100 + i, node_ids=(a, b), highway_class="primary"))
        nid += 2
    return RoadNetwork(nodes=nodes, ways=ways, source_name=city)


class TestChunkWay:
    def test_exact_division(self):
        net = equatorial_network([1500.0])
        segs = chunk_way(net.ways[0], net, 500.0)
        assert len(segs) == 3
        for s in segs:
            assert s.length_m == pytest.approx(500.0, abs=1e-3)

    def test_small_remainder_merges(self):
        net = equatorial_network([1234.0])
        lengths = [polyline_length_m(piece) for piece, _ in way_pieces(net.ways[0], net, 500.0)]
        assert lengths == pytest.approx([500.0, 734.0], abs=1e-3)

    def test_way_shorter_than_target(self):
        net = equatorial_network([300.0])
        (piece, _), = way_pieces(net.ways[0], net, 500.0)
        assert polyline_length_m(piece) == pytest.approx(300.0, abs=1e-3)

    def test_large_remainder_is_own_segment(self):
        net = equatorial_network([1250.1])
        segs = chunk_way(net.ways[0], net, 500.0)
        lengths = [s.length_m for s in segs]
        assert lengths == pytest.approx([500.0, 500.0, 250.1], abs=1e-3)

    def test_boundary_remainders(self):
        below = chunk_way(equatorial_network([1249.9]).ways[0],
                          equatorial_network([1249.9]), 500.0)
        assert [round(s.length_m, 1) for s in below] == [500.0, 749.9]
        above = chunk_way(equatorial_network([1250.1]).ways[0],
                          equatorial_network([1250.1]), 500.0)
        assert [round(s.length_m, 1) for s in above] == [500.0, 500.0, 250.1]

    def test_degenerate_way(self):
        net = equatorial_network([0.5])
        with pytest.raises(DegenerateWayError):
            chunk_way(net.ways[0], net, 500.0)

    def test_segment_metadata(self):
        net = equatorial_network([1500.0], city="bangkok")
        segs = chunk_way(net.ways[0], net, 500.0)
        assert [s.segment_id for s in segs] == ["100#0", "100#1", "100#2"]
        assert [s.index for s in segs] == [0, 1, 2]
        assert all(s.highway_class == "primary" for s in segs)
        assert all(s.city == "bangkok" for s in segs)
        pieces = way_pieces(net.ways[0], net, 500.0)
        assert [(s.start, s.end, s.length_m) for s in segs] == [
            (piece[0], piece[-1], length) for piece, length in pieces]

    def test_consecutive_segments_share_cut_point(self):
        net = equatorial_network([1700.0])
        segs = chunk_way(net.ways[0], net, 500.0)
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start  # bit-exact

    def test_intermediate_vertices_preserved(self):
        # a way with a bend: the bend vertex must appear in some segment
        bend = GeoPoint(0.004, equator_lon_for_meters(600.0))
        nodes = {1: GeoPoint(0.0, 0.0), 2: bend,
                 3: GeoPoint(0.008, equator_lon_for_meters(1200.0))}
        net = RoadNetwork(nodes=nodes,
                          ways=[Way(id=7, node_ids=(1, 2, 3), highway_class="trunk")],
                          source_name="x")
        all_points = [p for piece, _ in way_pieces(net.ways[0], net, 500.0) for p in piece]
        assert bend in all_points

    def test_lengths_sum_to_way_length(self):
        rng = random.Random(17)
        for _ in range(50):
            n_pts = rng.randint(2, 6)
            lat, lon = rng.uniform(-60, 60), rng.uniform(-170, 170)
            pts = {}
            ids = []
            for j in range(n_pts):
                pts[j + 1] = GeoPoint(lat, lon)
                ids.append(j + 1)
                lat += rng.uniform(-0.002, 0.002)
                lon += rng.uniform(0.001, 0.01)
            net = RoadNetwork(nodes=pts,
                              ways=[Way(id=1, node_ids=tuple(ids), highway_class="primary")],
                              source_name="x")
            way_length = polyline_length_m(net.way_points(net.ways[0]))
            if way_length < 1.0:
                continue
            segs = chunk_way(net.ways[0], net, 500.0)
            assert sum(s.length_m for s in segs) == pytest.approx(way_length, rel=1e-3)
            # non-tail segments hit the target to a millimeter
            for s in segs[:-1]:
                assert s.length_m == pytest.approx(500.0, abs=1e-3)

    def test_each_length_is_its_shape_length_exactly(self):
        # lengths add up the way's own edge lengths; they must equal a fresh
        # measurement of each piece's shape to the last bit
        rng = random.Random(23)
        for _ in range(300):
            lat, lon = rng.uniform(-70, 70), rng.uniform(-170, 170)
            pts, ids = {}, []
            for j in range(rng.randint(2, 12)):
                pts[j + 1] = GeoPoint(lat, lon)
                ids.append(j + 1 if rng.random() > 0.1 else ids[-1] if ids else j + 1)
                lat += rng.uniform(-0.003, 0.003)
                lon += rng.choice([equator_lon_for_meters(137.0), rng.uniform(0.0, 0.01)])
            net = RoadNetwork(nodes=pts,
                              ways=[Way(id=1, node_ids=tuple(ids), highway_class="primary")],
                              source_name="x")
            target = rng.choice([137.0, 274.0, 500.0, rng.uniform(20.0, 2000.0)])
            try:
                pieces = way_pieces(net.ways[0], net, target)
            except DegenerateWayError:
                continue
            for piece, length in pieces:
                assert length == left_to_right_length_m(piece)

    def test_edges_add_left_to_right_on_every_python(self):
        # three 250 m edges total 749.9999999999999 m added left to right, but
        # 750.0 m exactly rounded, as sum() adds from Python 3.12 on; there a
        # 500 m target would cut the way in two pieces (500 + 250 m)
        nodes = {k: GeoPoint(0.0, math.degrees(k * 250 / 6371000) + 4e-15) for k in range(4)}
        net = RoadNetwork(nodes=nodes,
                          ways=[Way(id=1, node_ids=(0, 1, 2, 3), highway_class="primary")],
                          source_name="x")
        edges = Polyline(nodes.values()).edge_lengths_m()
        assert math.fsum(edges) == 750.0
        [(shape, length)] = way_pieces(net.ways[0], net, 500.0)
        assert shape == list(nodes.values())
        assert length == (edges[0] + edges[1]) + edges[2] == 749.9999999999999
        assert left_to_right_length_m(shape) == length

    def test_cut_on_a_vertex_keeps_lengths_exact(self):
        net = RoadNetwork(
            nodes={i: GeoPoint(0.0, equator_lon_for_meters(137.0 * i)) for i in range(8)},
            ways=[Way(id=1, node_ids=tuple(range(8)), highway_class="primary")],
            source_name="x")
        pieces = way_pieces(net.ways[0], net, 274.0)
        assert len(pieces) == 4
        assert all(piece[-1] in net.nodes.values() for piece, _ in pieces)
        for piece, length in pieces:
            assert length == left_to_right_length_m(piece)

    def test_piece_of_no_length_is_a_degenerate_way(self, monkeypatch):
        # cuts that land on the point before them leave a piece of one point
        net = equatorial_network([1500.0])
        monkeypatch.setattr("roadsense.segmenter.interpolate", lambda a, b, t: a)
        with pytest.raises(DegenerateWayError, match="way 100: target 500.0 m cuts a piece"):
            chunk_way(net.ways[0], net, 500.0)

    def test_determinism(self):
        net = equatorial_network([1234.0])
        a = chunk_way(net.ways[0], net, 500.0)
        b = chunk_way(net.ways[0], net, 500.0)
        assert a == b


class TestChunkNetwork:
    def test_empty(self):
        net = equatorial_network([])
        assert chunk_network([], net, 500.0) == []

    def test_additivity(self):
        net = equatorial_network([1000.0, 1000.0])
        assert len(chunk_network(net.ways, net, 500.0)) == 4

    def test_degenerate_way_is_skipped(self):
        net = equatorial_network([1000.0, 0.4, 600.0])
        segments = chunk_network(net.ways, net, 500.0)
        assert segments == chunk_way(net.ways[0], net, 500.0) + chunk_way(net.ways[2], net, 500.0)
        assert skipped_ways(net.ways, segments) == 1
        # the count holds where a skipped way repeats a chunked way's id
        ways = [net.ways[0], dataclasses.replace(net.ways[1], id=100)]
        assert skipped_ways(ways, chunk_network(ways, net, 500.0)) == 1

    def test_degenerate_way_raises_with_its_id_from_chunk_way(self):
        net = equatorial_network([1000.0, 0.4])
        with pytest.raises(DegenerateWayError) as exc:
            chunk_way(net.ways[1], net, 500.0)
        assert "101" in str(exc.value)

    def test_order_follows_input(self):
        net = equatorial_network([600.0, 700.0])
        segments = chunk_network(list(reversed(net.ways)), net, 500.0)
        assert [s.way_id for s in segments] == [101, 100]


class TestSegmentsCsv:
    def test_header_and_roundtrip(self, tmp_path):
        net = equatorial_network([1234.0], city="jakarta")
        segs = chunk_way(net.ways[0], net, 500.0)
        path = tmp_path / "segments.csv"
        write_segments_csv(segs, path)
        text = path.read_text()
        assert text.splitlines()[0] == SEGMENTS_CSV_HEADER
        # 7 decimal places on coordinates
        first_row = text.splitlines()[1].split(",")
        assert len(first_row[3].split(".")[1]) == 7
        loaded = read_segments_csv(path)
        assert [s.segment_id for s in loaded] == [s.segment_id for s in segs]
        assert loaded[0].start.lat == pytest.approx(segs[0].start.lat, abs=1e-7)
        assert loaded[0].city == "jakarta"

    def test_byte_identical_rewrite(self, tmp_path):
        net = equatorial_network([1234.0])
        segs = chunk_way(net.ways[0], net, 500.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_segments_csv(segs, p1)
        write_segments_csv(segs, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSegmentShapes:
    def test_shapes_follow_the_given_segments(self):
        net = equatorial_network([1234.0, 700.0])
        segs = chunk_network(net.ways, net, 500.0)
        pieces = [p for w in net.ways for p, _ in way_pieces(w, net, 500.0)]
        picked = [segs[2], segs[0]]
        assert segment_shapes(picked, net, 500.0) == [pieces[2], pieces[0]]

    def test_missing_way_and_other_target(self):
        # a mismatch between the segments and the network file is bad input,
        # not a degenerate way, which chunk_network skips
        net = equatorial_network([1234.0])
        segs = chunk_way(net.ways[0], net, 500.0)
        with pytest.raises(InputDataError,
                           match="^way 100 not present in the network file$") as exc:
            segment_shapes(segs, equatorial_network([]), 500.0)
        assert not isinstance(exc.value, DegenerateWayError)
        with pytest.raises(InputDataError,
                           match="^segment 100#1 not reproducible from the network ") as exc:
            segment_shapes(segs, net, 1000.0)
        assert not isinstance(exc.value, DegenerateWayError)
