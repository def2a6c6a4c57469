"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (see conftest). Tolerances are pinned here, not tuned.

Where a criterion depends on the original labeled dataset (which is not
bundled), the stated fallback applies: golden fixtures with hand-counted
expected values, constructed to land on the reference table cells.
"""

import json
import math
import random
import time

import pytest
from scipy import stats

from conftest import fixture_city_xml, lon_span, parse_osm_text
from oracles import normal_equations_ols, polyline_length_m
from roadsense.analysis import build_design, ols_fit
from roadsense.cli import main
from roadsense.errors import AnalysisError
from roadsense.geometry import GeoPoint, PolygonRing, point_in_polygon
from roadsense.labeling import aggregate, parse_labels, tally
from roadsense.mockserver import MockStreetViewServer
from roadsense.osm_ingest import SAMPLED_ROAD_CLASSES, RoadNetwork, Way, filter_roads, parse_osm
from roadsense.pipeline import MANIFEST_NAME, RUN_ARTIFACTS
from roadsense.sampler import sample_segments, write_plan_csv
from roadsense.segmenter import chunk_network, chunk_way
from roadsense.stats import expected_incidents, summarize_city
from roadsense.streetview import format_location
from test_sampler import make_population

LABEL_HEADER = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
                "Answer.markings_present,Answer.markings_clear,Answer.litter,"
                "Answer.sidewalk")

# reference condition table: city -> (potholes, cracks, clear markings,
# roads w/ markings, litter, paved sidewalk)
CONDITION_TABLE = {
    "bangkok": (0.06, 0.24, 0.81, 0.98, 0.06, 0.51),
    "jakarta": (0.23, 0.44, 0.34, 0.97, 0.21, 0.49),
    "lagos": (0.06, 0.20, 0.23, 0.95, 0.15, 0.30),
    "wayne": (0.07, 0.62, 0.60, 0.90, 0.09, 0.67),
}
ATTR_ORDER = ("potholes", "cracks", "markings_clear", "markings_present",
              "litter", "sidewalk_paved")


def test_criterion_1_coverage_reproduction(tmp_path):
    """246 OK of 1,000 sampled points -> coverage exactly 0.246, under 10 s."""
    started = time.monotonic()
    ways = [(100 + i, "primary", 5000.0) for i in range(120)]
    xml = fixture_city_xml(ways)
    network = parse_osm_text(xml, source_name="dhaka")
    segments = chunk_network(filter_roads(network, set(SAMPLED_ROAD_CLASSES)),
                             network, 500.0)
    assert len(segments) >= 1000
    plan = sample_segments(segments, 1000, seed=99)

    fixture = {}
    for i, seg in enumerate(plan):
        fixture[format_location(seg.start)] = {
            "status": "OK" if i < 246 else "ZERO_RESULTS"}
    osm_path = tmp_path / "dhaka.osm"
    osm_path.write_text(xml)
    out_dir = tmp_path / "run"
    with MockStreetViewServer(fixture) as server:
        code = main(["run", "--osm", str(osm_path), "--city", "dhaka",
                     "--out-dir", str(out_dir), "--n", "1000", "--seed", "99",
                     "--base-url", server.base_url, "--api-key", "k",
                     "--rate-per-s", "1000000", "--max-concurrency", "16",
                     "--fixed-time", "2026-01-01T00:00:00Z"])
    assert code == 0
    coverage = json.loads((out_dir / "coverage.json").read_text())
    assert coverage["proportion"] == 246 / 1000
    assert coverage["proportion"] == 0.246
    assert coverage["successes"] == 246
    assert coverage["total"] == 1000
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _golden_city_batch(city, n=400):
    """Label rows whose marginal counts land on the reference table cells."""
    potholes, cracks, clear, present, litter, sidewalk = CONDITION_TABLE[city]
    n_present = round(present * n)
    n_clear = round(clear * n_present)
    counts = {
        "potholes": round(potholes * n),
        "cracks": round(cracks * n),
        "litter": round(litter * n),
        "sidewalk": round(sidewalk * n),
    }
    rows = [LABEL_HEADER]
    for i in range(n):
        has_markings = i < n_present
        markings_clear = "na"
        if has_markings:
            markings_clear = "yes" if i < n_clear else "no"
        rows.append(",".join([
            f"{city}-a{i}", f"{city}-w0", f"{city}-s{i}",
            "yes" if i < counts["potholes"] else "no",
            "yes" if i < counts["cracks"] else "no",
            "yes" if has_markings else "no",
            markings_clear,
            "yes" if i < counts["litter"] else "no",
            "yes" if i < counts["sidewalk"] else "no",
        ]))
    expected = {
        "potholes": counts["potholes"] / n,
        "cracks": counts["cracks"] / n,
        "markings_clear": n_clear / n_present,
        "markings_present": n_present / n,
        "litter": counts["litter"] / n,
        "sidewalk_paved": counts["sidewalk"] / n,
    }
    return "\n".join(rows) + "\n", expected


def test_criterion_2_condition_table_reproduction(tmp_path):
    """Golden-fixture summaries match the reference table within 0.005."""
    for city, reference in CONDITION_TABLE.items():
        batch, hand_counted = _golden_city_batch(city)
        (tmp_path / f"{city}.csv").write_text(batch)
        consensus = aggregate(tally(parse_labels(tmp_path / f"{city}.csv")))
        summary = summarize_city(consensus, city)
        for attr, value in zip(ATTR_ORDER, reference):
            got = summary.proportions[attr]
            # the summary must equal the hand count exactly...
            assert got == pytest.approx(hand_counted[attr], abs=1e-12), (city, attr)
            # ...and the hand count must sit on the reference cell
            assert abs(got - value) <= 0.005, (city, attr, got, value)


def _additive_lpm_dataset(base, class_effects, city_effects, per_cell=200):
    rows, outcomes = [], []
    for cls, ce in class_effects.items():
        for city, cye in city_effects.items():
            p = base + ce + cye
            n_yes = round(p * per_cell)
            assert abs(n_yes - p * per_cell) < 1e-9, "cell count must be integral"
            for i in range(per_cell):
                rows.append({"road_class": cls, "city": city})
                outcomes.append(1.0 if i < n_yes else 0.0)
    return rows, outcomes


def test_criterion_3_adjusted_difference_reproduction():
    """Road-type+city LPM: Wayne-Jakarta pothole gap 0.16, sign patterns."""
    class_effects = {"primary": 0.03, "secondary": 0.01, "tertiary": 0.0,
                     "trunk": 0.05}
    city_effects = {"jakarta": 0.0, "bangkok": -0.17, "lagos": -0.17,
                    "wayne": -0.16}
    rows, outcomes = _additive_lpm_dataset(0.23, class_effects, city_effects)
    matrix, names = build_design(rows, ["road_class", "city"],
                                 baselines={"city": "jakarta"})
    result = ols_fit(matrix, outcomes, names=names)
    names = result.coefficient_names
    gap = abs(result.estimates[names.index("city=wayne")])
    assert abs(gap - 0.16) <= 0.01
    assert result.estimates[names.index("road_class=primary")] > 0
    assert result.estimates[names.index("road_class=secondary")] > 0
    assert result.estimates[names.index("road_class=trunk")] > 0

    crack_class_effects = {"primary": -0.05, "secondary": -0.03,
                           "tertiary": 0.0, "trunk": -0.09}
    crack_city_effects = {"jakarta": 0.0, "bangkok": -0.24, "lagos": -0.20,
                          "wayne": 0.18}
    rows, outcomes = _additive_lpm_dataset(0.44, crack_class_effects,
                                           crack_city_effects)
    matrix, names = build_design(rows, ["road_class", "city"],
                                 baselines={"city": "jakarta"})
    result = ols_fit(matrix, outcomes, names=names)
    names = result.coefficient_names
    assert result.estimates[names.index("road_class=primary")] < 0
    assert result.estimates[names.index("road_class=secondary")] < 0
    assert result.estimates[names.index("road_class=trunk")] < 0


def test_criterion_4_segmentation_properties():
    """1,000 random polylines: length sums, non-tail exactness, tail rule."""
    started = time.monotonic()
    rng = random.Random(2718)
    target = 500.0
    for case in range(1000):
        n_pts = rng.randint(2, 8)
        lat = rng.uniform(-60.0, 60.0)
        lon = rng.uniform(-170.0, 170.0)
        nodes = {}
        ids = []
        for j in range(n_pts):
            nodes[j + 1] = GeoPoint(lat, lon)
            ids.append(j + 1)
            lat += rng.uniform(-0.0015, 0.0015)
            lon += rng.uniform(0.0005, 0.01)
        network = RoadNetwork(
            nodes=nodes,
            ways=[Way(id=1, node_ids=tuple(ids), highway_class="primary")],
            source_name="synthetic")
        way_length = polyline_length_m(network.way_points(network.ways[0]))
        if way_length < 1.0:
            continue
        segments = chunk_way(network.ways[0], network, target)
        total = sum(s.length_m for s in segments)
        assert total == pytest.approx(way_length, rel=1e-3), case
        for s in segments[:-1]:
            assert abs(s.length_m - target) <= 1e-3, case
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start

    # tail boundaries: a 249.9 m remainder merges, a 250.1 m remainder emits
    for remainder, expect in ((249.9, [500.0, 749.9]), (250.1, [500.0, 500.0, 250.1])):
        length = 500.0 + 250.0 + (remainder - 250.0) + 500.0  # 500k + r with k=2
        net = RoadNetwork(
            nodes={1: GeoPoint(0.0, 0.0), 2: GeoPoint(0.0, lon_span(length))},
            ways=[Way(id=9, node_ids=(1, 2), highway_class="primary")],
            source_name="x")
        got = [s.length_m for s in chunk_way(net.ways[0], net, 500.0)]
        assert got == pytest.approx(expect, abs=1e-3), remainder
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_sampling_determinism_and_uniformity(tmp_path):
    """Byte-identical plans; chi-square uniformity over 5,000 seeds."""
    started = time.monotonic()
    population = make_population(10_000)
    plan_a = tmp_path / "a.csv"
    plan_b = tmp_path / "b.csv"
    write_plan_csv(sample_segments(population, 1000, seed=4242), plan_a)
    write_plan_csv(sample_segments(population, 1000, seed=4242), plan_b)
    assert plan_a.read_bytes() == plan_b.read_bytes()

    counts = [0] * len(population)
    n_seeds = 5000
    for seed in range(n_seeds):
        for seg in sample_segments(population, 1000, seed):
            counts[seg.way_id] += 1
    expected = n_seeds * 1000 / len(population)
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    p_value = stats.chi2.sf(chi2, len(population) - 1)
    assert p_value > 0.001, f"chi2={chi2:.1f}, p={p_value:.5f}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_ols_oracle_equivalence():
    """200 random instances match the normal-equations oracle to 1e-8."""
    started = time.monotonic()
    rng = random.Random(1871)
    checked = 0
    while checked < 200:
        n = rng.randint(12, 100)
        k = rng.randint(1, 8)
        if n <= k:
            continue
        design = [[1.0] + [rng.gauss(0.0, 1.0) for _ in range(k - 1)]
                  for _ in range(n)]
        beta = [rng.gauss(0.0, 2.0) for _ in range(k)]
        response = [sum(b * x for b, x in zip(beta, row)) + rng.gauss(0.0, 1.0)
                    for row in design]
        result = ols_fit(design, response, names=[f"x{j}" for j in range(k)])
        beta_o, se_o, r2_o = normal_equations_ols(design, response)
        assert result.estimates == pytest.approx(beta_o, rel=1e-8, abs=1e-10)
        assert result.standard_errors == pytest.approx(se_o, rel=1e-8, abs=1e-10)
        assert result.r_squared == pytest.approx(r2_o, rel=1e-8, abs=1e-10)
        checked += 1

    # rank-deficient fixtures raise the collinearity error
    with pytest.raises(AnalysisError, match="column a_doubled is collinear with the others"):
        ols_fit([[1.0, 2.0, 4.0]] * 10 + [[1.0, 3.0, 6.0]] * 10,
                list(range(20)), names=["intercept", "a", "a_doubled"])
    with pytest.raises(AnalysisError, match=r"design is rank deficient: column zero "):
        ols_fit([[1.0, 0.0]] * 12, list(range(12)), names=["intercept", "zero"])
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _winding_inside(p, ring):
    total = 0.0
    for i in range(len(ring) - 1):
        ax, ay = ring[i].lon - p.lon, ring[i].lat - p.lat
        bx, by = ring[i + 1].lon - p.lon, ring[i + 1].lat - p.lat
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def test_criterion_7_point_in_polygon_oracle():
    """10,000 point/polygon cases agree with the winding oracle; edges in."""
    rng = random.Random(31415)
    polygons = []
    while len(polygons) < 100:
        cx, cy = rng.uniform(-60, 60), rng.uniform(-60, 60)
        k = rng.randint(3, 10)
        radius = rng.uniform(0.3, 2.5)
        angles = sorted(rng.uniform(0.0, 2 * math.pi) for _ in range(k))
        ring = [GeoPoint(cy + radius * math.sin(a), cx + radius * math.cos(a))
                for a in angles]
        ring.append(ring[0])
        if len({(p.lat, p.lon) for p in ring[:-1]}) < 3:
            continue
        polygons.append((cx, cy, radius, PolygonRing(ring)))

    for cx, cy, radius, poly in polygons:
        for _ in range(100):
            p = GeoPoint(cy + rng.uniform(-3.5, 3.5), cx + rng.uniform(-3.5, 3.5))
            assert point_in_polygon(p, poly) == _winding_inside(p, poly.exterior)

    # boundary cases follow the on-edge-inside rule
    square = PolygonRing((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1),
                          GeoPoint(1, 0), GeoPoint(0, 0)))
    assert point_in_polygon(GeoPoint(0.0, 0.5), square)
    assert point_in_polygon(GeoPoint(1.0, 0.25), square)
    assert point_in_polygon(GeoPoint(0.0, 0.0), square)
    assert point_in_polygon(GeoPoint(0.5, 1.0), square)


def test_criterion_8_expected_incidents(tmp_path, capsys):
    """The journey formula, plus the capture-length note in CLI output."""
    assert expected_incidents(0.23, 10.0, 1.0) == pytest.approx(2.3, abs=1e-12)
    assert expected_incidents(0.23, 10.0, 0.5) == pytest.approx(4.6, abs=1e-12)

    consensus = tmp_path / "consensus.csv"
    rows = ["segment_id,potholes,cracks,markings_present,markings_clear,"
            "litter,sidewalk_paved,n_workers"]
    rows += [f"p{i},yes,no,no,na,no,no,1" for i in range(23)]
    rows += [f"n{i},no,no,no,na,no,no,1" for i in range(77)]
    consensus.write_text("\n".join(rows) + "\n")
    assert main(["summarize", "--consensus", str(consensus), "--city", "jakarta",
                 "--journey-km", "10", "--capture-km", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "2.3" in out
    assert "note:" in out and "capture" in out


def test_criterion_9_end_to_end_smoke(tmp_path, capsys):
    """Fixture city through run, summarize, regress; byte-identical rerun."""
    started = time.monotonic()
    xml = fixture_city_xml()
    osm_path = tmp_path / "city.osm"
    osm_path.write_text(xml)

    network = parse_osm(osm_path, source_name="fixtureville")
    segments = chunk_network(filter_roads(network, set(SAMPLED_ROAD_CLASSES)),
                             network, 500.0)
    plan = sample_segments(segments, 30, seed=5)
    fixture = {format_location(s.start): {"status": "OK" if i % 5 else "ZERO_RESULTS"}
               for i, s in enumerate(plan)}

    out_a = tmp_path / "run_a"
    with MockStreetViewServer(fixture) as server:
        args = ["run", "--osm", str(osm_path), "--city", "fixtureville",
                "--out-dir", str(out_a), "--n", "30", "--seed", "5",
                "--base-url", server.base_url, "--api-key", "k",
                "--rate-per-s", "100000", "--fixed-time", "2026-01-01T00:00:00Z"]
        assert main(args) == 0

        # labels for every sampled segment; all four classes must be present
        batch = tmp_path / "batch.csv"
        rows = [LABEL_HEADER]
        classes = set()
        for i, seg in enumerate(plan):
            classes.add(seg.highway_class)
            pothole = "yes" if i % 3 == 0 else "no"
            crack = "yes" if i % 2 == 0 else "no"
            rows.append(f"a{i},w1,{seg.segment_id},{pothole},{crack},yes,yes,no,yes")
        assert classes == set(SAMPLED_ROAD_CLASSES)
        batch.write_text("\n".join(rows) + "\n")
        consensus = tmp_path / "consensus.csv"
        assert main(["labels", "aggregate", "--in", str(batch),
                     "--out", str(consensus)]) == 0

        assert main(["summarize", "--consensus", str(consensus),
                     "--city", "fixtureville"]) == 0
        assert main(["regress", "--outcome", "potholes",
                     "--consensus", str(consensus),
                     "--segments", str(out_a / "plan.csv"),
                     "--factors", "road_class"]) == 0
        out = capsys.readouterr().out
        assert "fixtureville" in out
        assert "road_class=primary" in out

        # manifest-verified reproducibility: fresh directory, same bytes
        out_b = tmp_path / "run_b"
        assert main(["run", "--config", str(out_a / MANIFEST_NAME), "--out-dir", str(out_b),
                     "--api-key", "k"]) == 0
    for name in RUN_ARTIFACTS:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert (consensus.read_text().count("\n")) == 31  # header + 30 segments
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
