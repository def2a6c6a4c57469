import csv
import io
import json
import random
import string
from dataclasses import replace

from roadsense.fileio import write_table
from roadsense.geo_export import export_geojson
from roadsense.geometry import GeoPoint
from roadsense.sampler import SamplePlan
from roadsense.segmenter import RoadSegment


def shape(i):
    return [GeoPoint(13.0 + i * 0.001, 100.5), GeoPoint(13.0 + i * 0.001, 100.5005),
            GeoPoint(13.0005 + i * 0.001, 100.501)]


def make_plan(n):
    segs = [RoadSegment(segment_id=f"{i}#0", way_id=i, index=0, start=shape(i)[0],
                        end=shape(i)[-1], length_m=77.0, highway_class="primary",
                        city="bangkok")
            for i in range(n)]
    return SamplePlan(seed=1, population_n=n, segments=segs)


class TestGeojson:
    def test_empty_plan(self):
        doc = json.loads(export_geojson(make_plan(0)))
        assert doc == {"type": "FeatureCollection", "features": []}

    def test_points_mode_single(self):
        doc = json.loads(export_geojson(make_plan(1)))
        assert len(doc["features"]) == 1
        feat = doc["features"][0]
        assert feat["geometry"]["type"] == "Point"
        # [lon, lat] order
        assert feat["geometry"]["coordinates"] == [100.5, 13.0]
        assert feat["properties"]["segment_id"] == "0#0"
        assert feat["properties"]["city"] == "bangkok"

    def test_lines_mode_full_shape(self):
        doc = json.loads(export_geojson(make_plan(1), [shape(0)]))
        geom = doc["features"][0]["geometry"]
        assert geom["type"] == "LineString"
        assert geom["coordinates"] == [[100.5, 13.0], [100.5005, 13.0], [100.501, 13.0005]]

    def test_bulk_plan_feature_count(self):
        doc = json.loads(export_geojson(make_plan(1000)))
        assert len(doc["features"]) == 1000
        ranks = [f["properties"]["sample_rank"] for f in doc["features"]]
        assert ranks == list(range(1000))

    def test_seven_decimal_places(self):
        text = export_geojson(make_plan(1))
        assert "[100.5000000,13.0000000]" in text

    def test_every_feature_has_required_properties(self):
        doc = json.loads(export_geojson(make_plan(20)))
        for f in doc["features"]:
            assert "segment_id" in f["properties"]
            assert "city" in f["properties"]

    def test_deterministic_bytes(self):
        plan = make_plan(50)
        assert export_geojson(plan) == export_geojson(plan)

    def test_quote_and_backslash_in_properties(self):
        plan = make_plan(2)
        plan.segments[0] = replace(plan.segments[0], city='Ba"ng\\kok')
        doc = json.loads(export_geojson(plan, [shape(0), shape(1)]))
        assert doc["features"][0]["properties"]["city"] == 'Ba"ng\\kok'
        assert doc["features"][1]["properties"]["city"] == "bangkok"


class TestCsv:
    def test_empty_table_header_only(self, tmp_path):
        write_table(tmp_path / "t.csv", ["a", "b"], [])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    def test_comma_field_quoted(self, tmp_path):
        write_table(tmp_path / "t.csv", ["name", "x"], [["a,b", "1"]])
        data = (tmp_path / "t.csv").read_bytes()
        assert b'"a,b"' in data
        assert data.endswith(b"\n")

    def test_round_trip_random_tables(self, tmp_path):
        rng = random.Random(77)
        alphabet = string.ascii_letters + ',"\n '
        for _ in range(25):
            fields = [f"col{i}" for i in range(rng.randint(1, 5))]
            rows = [{f: "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                     for f in fields}
                    for _ in range(rng.randint(0, 10))]
            write_table(tmp_path / "t.csv", fields, [list(r.values()) for r in rows])
            data = (tmp_path / "t.csv").read_bytes()
            parsed = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            assert [dict(r) for r in parsed] == rows
