import json
import logging
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parse_osm_text
from oracles import json_dumps_network, to_osm_xml
from roadsense.cli import main
from roadsense.errors import InputDataError
from roadsense.geometry import GeoPoint
from roadsense.osm_ingest import (
    SAMPLED_ROAD_CLASSES,
    RoadNetwork,
    Way,
    filter_roads,
    parse_osm,
    read_network,
    write_network,
)


DUPLICATE_WARNING = "parse_osm: {} duplicate node ids (last definition wins)"


def osm_doc(body: str) -> str:
    return f"<?xml version='1.0' encoding='UTF-8'?>\n<osm version='0.6'>\n{body}\n</osm>"


TWO_NODE_PRIMARY = osm_doc("""
  <node id="1" lat="13.75" lon="100.50"/>
  <node id="2" lat="13.76" lon="100.51"/>
  <way id="10">
    <nd ref="1"/>
    <nd ref="2"/>
    <tag k="highway" v="primary"/>
    <tag k="name" v="Main Road"/>
  </way>
""")


class TestParse:
    def test_minimal_document(self):
        net = parse_osm_text(TWO_NODE_PRIMARY, source_name="bangkok")
        assert len(net.nodes) == 2
        assert len(net.ways) == 1
        way = net.ways[0]
        assert way.highway_class == "primary"
        assert way.node_ids == (1, 2)
        assert way.name == "Main Road"
        assert net.source_name == "bangkok"

    def test_way_without_highway_dropped(self):
        # a way without a highway tag may also repeat a road's id
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <node id="2" lat="0" lon="1"/>
          <way id="10"><nd ref="1"/><nd ref="2"/><tag k="waterway" v="river"/></way>
          <way id="11"><nd ref="1"/><nd ref="2"/><tag k="highway" v="trunk"/></way>
          <way id="11"><nd ref="1"/><nd ref="2"/><tag k="building" v="yes"/></way>
        """)
        net = parse_osm_text(doc)
        assert [w.id for w in net.ways] == [11]

    def test_residential_and_trunk_both_retained(self):
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <node id="2" lat="0" lon="1"/>
          <way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="residential"/></way>
          <way id="11"><nd ref="1"/><nd ref="2"/><tag k="highway" v="trunk"/></way>
        """)
        net = parse_osm_text(doc)
        assert [w.highway_class for w in net.ways] == ["residential", "trunk"]
        assert net.ways[0].highway_class not in SAMPLED_ROAD_CLASSES
        assert net.ways[1].highway_class in SAMPLED_ROAD_CLASSES

    def test_missing_node_reference(self):
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <way id="77"><nd ref="1"/><nd ref="999"/><tag k="highway" v="primary"/></way>
        """)
        with pytest.raises(InputDataError, match="^way 77 references node 999 absent from "):
            parse_osm_text(doc)

    def test_malformed_xml_reports_position(self):
        with pytest.raises(InputDataError, match="^malformed OSM XML at line 1, column "):
            parse_osm_text("<osm><node id='1' lat='0' lon='0'")

    def test_out_of_range_coordinate(self):
        doc = osm_doc('<node id="1" lat="91.0" lon="0"/>')
        with pytest.raises(InputDataError, match=r": node 1: lat 91.0 outside \[-90, 90\]$"):
            parse_osm_text(doc)

    def test_short_way_rejected(self):
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <way id="5"><nd ref="1"/><tag k="highway" v="primary"/></way>
        """)
        with pytest.raises(InputDataError):
            parse_osm_text(doc)

    def test_duplicate_node_last_wins(self, caplog):
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <node id="1" lat="5" lon="5"/>
          <node id="2" lat="0" lon="1"/>
          <way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>
        """)
        with caplog.at_level(logging.WARNING, logger="roadsense.osm_ingest"):
            net = parse_osm_text(doc)
        assert net.nodes[1].lat == 5
        assert caplog.messages == [DUPLICATE_WARNING.format(1)]

    def test_no_highway_way_silently_dropped_count_matches(self):
        # every highway-tagged way in the input shows up in the output
        body = ['<node id="1" lat="0" lon="0"/>', '<node id="2" lat="0" lon="1"/>']
        for i in range(20):
            tag = "highway" if i % 3 else "building"
            body.append(f'<way id="{i}"><nd ref="1"/><nd ref="2"/>'
                        f'<tag k="{tag}" v="x"/></way>')
        net = parse_osm_text(osm_doc("\n".join(body)))
        n_highway_in_input = sum(1 for i in range(20) if i % 3)
        assert len(net.ways) == n_highway_in_input


    def test_repeated_highway_way_id_names_the_second_way(self, tmp_path, capsys):
        doc = osm_doc("""<node id="1" lat="0" lon="0"/>
<node id="2" lat="0" lon="1"/>
<way id="100"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>
<way id="100"><nd ref="2"/><nd ref="1"/><tag k="highway" v="trunk"/></way>""")
        path, out = tmp_path / "city.osm", tmp_path / "network.ndjson"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(InputDataError) as exc:
            parse_osm(path)
        assert str(exc.value) == "line 6: way 100: repeats the id of an earlier highway way"
        assert main(["ingest", "--osm", str(path), "--city", "x", "--out", str(out)]) == 3
        assert "line 6: way 100: repeats the id" in capsys.readouterr().err
        assert not out.exists()


class TestFilter:
    def make_network(self):
        body = ['<node id="1" lat="0" lon="0"/>', '<node id="2" lat="0" lon="1"/>']
        classes = ["primary", "primary", "primary", "tertiary", "tertiary",
                   "residential", "trunk", "secondary"]
        for i, cls in enumerate(classes):
            body.append(f'<way id="{i}"><nd ref="1"/><nd ref="2"/>'
                        f'<tag k="highway" v="{cls}"/></way>')
        return parse_osm_text(osm_doc("\n".join(body)))

    def test_single_class(self):
        net = self.make_network()
        out = filter_roads(net, {"primary"})
        assert len(out) == 3
        assert all(w.highway_class == "primary" for w in out)

    def test_empty_classes(self):
        assert filter_roads(self.make_network(), set()) == []

    def test_default_frame_excludes_other(self):
        net = self.make_network()
        out = filter_roads(net, set(SAMPLED_ROAD_CLASSES))
        assert len(out) == 7
        assert all(w.highway_class in SAMPLED_ROAD_CLASSES for w in out)

    def test_union_property(self):
        net = self.make_network()
        c1, c2 = {"primary", "trunk"}, {"tertiary"}
        both = filter_roads(net, c1 | c2)
        merged = [w for w in net.ways if w in filter_roads(net, c1) or w in filter_roads(net, c2)]
        assert both == merged

    def test_network_unmodified(self):
        net = self.make_network()
        before = list(net.ways)
        filter_roads(net, {"primary"})
        assert net.ways == before


class TestRoundTrip:
    def test_xml_round_trip(self):
        net = parse_osm_text(TWO_NODE_PRIMARY, source_name="bangkok")
        echoed = parse_osm_text(to_osm_xml(net), source_name="bangkok")
        assert echoed == net
        # coordinates survive as decimal strings bit-exactly
        assert to_osm_xml(echoed) == to_osm_xml(net)

    def test_xml_round_trip_awkward_values(self):
        doc = osm_doc("""
          <node id="1" lat="13.7563309" lon="100.5017651"/>
          <node id="2" lat="-6.1751239" lon="106.8650395"/>
          <way id="10"><nd ref="1"/><nd ref="2"/>
            <tag k="highway" v="primary"/><tag k="name" v="A &amp; B &quot;road&quot;"/></way>
        """)
        net = parse_osm_text(doc)
        assert parse_osm_text(to_osm_xml(net)) == net

    def test_ndjson_round_trip(self, tmp_path):
        net = parse_osm_text(TWO_NODE_PRIMARY, source_name="bangkok")
        path = tmp_path / "net.ndjson"
        write_network(net, path)
        assert read_network(path) == net

    def test_ndjson_missing_node(self, tmp_path):
        path = tmp_path / "net.ndjson"
        path.write_text('{"type": "way", "id": 1, "nodes": [1, 2], "highway": "primary"}\n')
        with pytest.raises(InputDataError, match="^way 1 references node 1 absent from "):
            read_network(path)


# names and tags that JSON must escape: quotes, backslashes, control and
# non-ASCII characters
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                          st.characters()), max_size=12)
_IDS = st.integers(-2 ** 70, 2 ** 70)


def _coordinate(limit):
    return st.one_of(st.floats(-limit, limit), st.integers(-limit, limit),
                     st.sampled_from([-limit, limit, -float(limit), float(limit), -0.0, 0.0]))


@st.composite
def networks(draw):
    ids = draw(st.lists(_IDS, min_size=2, max_size=8, unique=True))
    nodes = {nid: GeoPoint(draw(_coordinate(90)), draw(_coordinate(180))) for nid in ids}
    # a network file holds each way id once
    ways = [Way(id=wid, node_ids=tuple(draw(st.lists(st.sampled_from(ids),
                                                     min_size=2, max_size=5))),
                highway_class=draw(_TEXT), name=draw(st.one_of(st.none(), _TEXT)))
            for wid in draw(st.lists(_IDS, max_size=4, unique=True))]
    return RoadNetwork(nodes=nodes, ways=ways, source_name=draw(_TEXT))


class TestWriteNetwork:
    """write_network formats its lines directly; the bytes stay those of one
    json.dumps per record."""

    def test_matches_json_dumps_writer(self, tmp_path):
        path = tmp_path / "net.ndjson"

        @settings(max_examples=300, deadline=None, database=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(networks())
        def check(network):
            write_network(network, path)
            assert path.read_bytes() == json_dumps_network(network).encode("utf-8")
            assert read_network(path) == network

        check()

    def test_matches_json_dumps_writer_across_write_batches(self, tmp_path):
        n = 9000
        nodes = {i: GeoPoint(i / n * 90.0, -i / n * 180.0) for i in range(n)}
        ways = [Way(id=i, node_ids=(i, i + 1), highway_class="primary",
                    name=None if i % 2 else f"road {i}") for i in range(n - 1)]
        network = RoadNetwork(nodes=nodes, ways=ways, source_name="bangkok")
        path = tmp_path / "net.ndjson"
        write_network(network, path)
        assert path.read_bytes() == json_dumps_network(network).encode("utf-8")


def poi_city(n_poi: int) -> str:
    """One 2-node primary road among ``n_poi`` tagged nodes no way uses."""
    body = ['<node id="1" lat="13.75" lon="100.50"/>',
            '<node id="2" lat="13.76" lon="100.51"/>']
    for i in range(n_poi):
        body.append(f'<node id="{i + 3}" lat="{13.7 + i * 1e-6!r}" lon="100.5">'
                    f'<tag k="amenity" v="cafe"/></node>')
    body.append('<way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>')
    return osm_doc("\n".join(body))


class TestStreamingIngest:
    def test_only_road_nodes_kept_and_written(self, tmp_path):
        net = parse_osm_text(poi_city(20))
        assert list(net.nodes) == [1, 2]
        path = tmp_path / "net.ndjson"
        write_network(net, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["id"] for r in records if r["type"] == "node"] == [1, 2]
        assert read_network(path) == net

    def test_node_order_follows_document(self):
        doc = osm_doc("""
          <node id="9" lat="0" lon="1"/>
          <node id="5" lat="0" lon="0"/>
          <node id="7" lat="1" lon="1"/>
          <way id="10"><nd ref="5"/><nd ref="9"/><tag k="highway" v="primary"/></way>
        """)
        assert list(parse_osm_text(doc).nodes) == [9, 5]

    def test_duplicate_among_pruned_nodes_counted(self, caplog):
        doc = osm_doc("""
          <node id="1" lat="0" lon="0"/>
          <node id="2" lat="0" lon="1"/>
          <node id="50" lat="3" lon="3"/>
          <node id="50" lat="4" lon="4"/>
          <way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="primary"/></way>
        """)
        with caplog.at_level(logging.WARNING, logger="roadsense.osm_ingest"):
            net = parse_osm_text(doc)
        assert caplog.messages == [DUPLICATE_WARNING.format(1)]
        assert 50 not in net.nodes

    def test_bad_node_reports_line(self):
        doc = osm_doc('<node id="1" lat="0" lon="0"/>\n<node id="2" lat="0" lon="999"/>')
        with pytest.raises(InputDataError, match=r"^line 4: node 2: lon 999.0 outside "):
            parse_osm_text(doc)

    def test_malformed_file_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.osm"
        path.write_text(osm_doc('<node id="1" lat="0" lon="0">\n</way>'), encoding="utf-8")
        with pytest.raises(InputDataError, match="^malformed OSM XML at line 4, column 2: "):
            parse_osm(path)

    def test_parse_memory_per_input_node(self, tmp_path):
        n_poi = 50_000
        path = tmp_path / "poi.osm"
        path.write_text(poi_city(n_poi), encoding="utf-8")
        tracemalloc.start()
        try:
            net = parse_osm(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net.nodes) == 2
        assert peak / (n_poi + 2) < 150
        assert retained / (n_poi + 2) < 5


class TestReadNetworkErrors:
    def write(self, tmp_path, *records):
        path = tmp_path / "bad.ndjson"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_node_without_lon(self, tmp_path):
        path = self.write(tmp_path, {"type": "meta", "city": "x"},
                          {"type": "node", "id": 1, "lat": 0.0})
        with pytest.raises(InputDataError, match="line 2: node record: lon: missing$") as exc:
            read_network(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert exc.value.exit_code == 3

    def test_coordinate_out_of_range(self, tmp_path):
        path = self.write(tmp_path, {"type": "node", "id": 1, "lat": 91.0, "lon": 0.0})
        with pytest.raises(InputDataError, match=r"line 1: node record: lat 91.0 outside ") as exc:
            read_network(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_short_way(self, tmp_path):
        path = self.write(tmp_path, {"type": "node", "id": 1, "lat": 0.0, "lon": 0.0},
                          {"type": "way", "id": 5, "nodes": [1], "highway": "primary"})
        with pytest.raises(InputDataError,
                           match="line 2: way record: nodes: holds fewer than 2 ") as exc:
            read_network(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("record, field", [
        ({"type": "way", "id": 5, "nodes": [[1], 2], "highway": "primary"}, "nodes"),
        ({"type": "way", "id": 5, "nodes": [1, {"id": 2}], "highway": "primary"}, "nodes"),
        ({"type": "way", "id": 5, "nodes": [1, 2.0], "highway": "primary"}, "nodes"),
        ({"type": "way", "id": 5, "nodes": {"1": 1, "2": 2}, "highway": "primary"}, "nodes"),
        ({"type": "way", "id": 5, "nodes": [1, 2], "highway": ["primary"]}, "highway"),
        ({"type": "way", "id": 5, "nodes": [1, 2], "highway": "primary", "name": 7}, "name"),
        ({"type": "way", "id": "5", "nodes": [1, 2], "highway": "primary"}, "id"),
        ({"type": "node", "id": 3, "lat": True, "lon": 0.0}, "lat"),
        ({"type": "node", "id": 3, "lat": 0.0, "lon": "0"}, "lon"),
        ({"type": "node", "id": True, "lat": 0.0, "lon": 0.0}, "id"),
        ({"type": "meta", "city": ["x"]}, "city"),
    ], ids=["ref-is-a-list", "ref-is-an-object", "ref-is-a-float", "nodes-is-an-object",
            "highway-is-a-list", "name-is-a-number", "way-id-is-a-string", "lat-is-true",
            "lon-is-a-string", "node-id-is-true", "city-is-a-list"])
    def test_field_of_the_wrong_type_exits_3_naming_line_and_field(self, tmp_path, capsys,
                                                                  record, field):
        path = self.write(tmp_path, {"type": "node", "id": 1, "lat": 0.0, "lon": 0.0},
                          {"type": "node", "id": 2, "lat": 0.0, "lon": 0.01}, record)
        with pytest.raises(InputDataError, match=f" record: {field}: expected ") as exc:
            read_network(path)
        assert str(exc.value).startswith(f"{path}: line 3: ")
        code = main(["segment", "--network", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert f" record: {field}: expected " in capsys.readouterr().err

    def test_repeated_way_id_names_file_line_and_id(self, tmp_path, capsys):
        way = {"type": "way", "id": 100, "nodes": [1, 2], "highway": "primary"}
        path = self.write(tmp_path, {"type": "node", "id": 1, "lat": 0.0, "lon": 0.0},
                          {"type": "node", "id": 2, "lat": 0.0, "lon": 0.01},
                          way, dict(way, nodes=[2, 1]))
        with pytest.raises(InputDataError, match="line 4: way record: id: 100 repeats ") as exc:
            read_network(path)
        assert str(exc.value) == f"{path}: line 4: way record: id: 100 repeats an earlier way's id"
        out = tmp_path / "s.csv"
        assert main(["segment", "--network", str(path), "--out", str(out)]) == 3
        assert "line 4: way record: id: 100 repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_exits_3(self, tmp_path, capsys):
        path = self.write(tmp_path, {"type": "node", "id": 1, "lat": 0.0})
        code = main(["segment", "--network", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert "line 1: node record: lon: missing" in capsys.readouterr().err
