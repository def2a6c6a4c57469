import json
import logging
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import roadsense
from oracles import linear_join_income, normal_equations_ols, scipy_qr_ols
from roadsense.analysis import (
    QuintileBinning,
    TractPolygon,
    build_design,
    fixed,
    join_income,
    load_tracts_geojson,
    ols_fit,
    quintile_bins,
    regression_table,
)
from roadsense.cli import main
from roadsense.errors import AnalysisError, InputDataError
from roadsense.geometry import GeoPoint, PolygonRing, point_in_polygon
from roadsense.labeling import ATTRIBUTES, ConsensusLabel
from roadsense.segmenter import SEGMENTS_CSV_HEADER
from roadsense.stats import expected_incidents, summarize_city, summary_table


def consensus(segment_id, **verdicts):
    v = {a: "no" for a in ATTRIBUTES}
    v.update(verdicts)
    return ConsensusLabel(segment_id=segment_id, verdicts=tuple(v[a] for a in ATTRIBUTES),
                          n_workers=1)


class TestSummarize:
    def test_all_yes(self):
        labels = [consensus(f"s{i}", **{a: "yes" for a in ATTRIBUTES})
                  for i in range(10)]
        s = summarize_city(labels, "x")
        assert all(s.proportions[a] == 1.0 for a in ATTRIBUTES)
        assert s.n_images == 10

    def test_direct_ratio(self):
        labels = [consensus(f"s{i}", potholes="yes") for i in range(6)]
        labels += [consensus(f"t{i}") for i in range(94)]
        s = summarize_city(labels, "bangkok")
        assert s.proportions["potholes"] == pytest.approx(0.06)

    def test_unresolved_excluded(self):
        labels = [consensus("a", potholes="yes"),
                  consensus("b", potholes="unresolved"),
                  consensus("c", potholes="no")]
        s = summarize_city(labels, "x")
        assert s.proportions["potholes"] == pytest.approx(0.5)

    def test_markings_clear_conditional(self):
        # 2 images with markings (1 clear), 2 without markings (na)
        labels = [consensus("a", markings_present="yes", markings_clear="yes"),
                  consensus("b", markings_present="yes", markings_clear="no"),
                  consensus("c", markings_present="no", markings_clear="na"),
                  consensus("d", markings_present="no", markings_clear="na")]
        s = summarize_city(labels, "x")
        assert s.proportions["markings_clear"] == pytest.approx(0.5)
        assert s.proportions["markings_present"] == pytest.approx(0.5)

    def test_attribute_with_no_resolvable_labels_missing(self):
        labels = [consensus("a", potholes="unresolved", cracks="yes")]
        s = summarize_city(labels, "x")
        assert "potholes" not in s.proportions
        assert s.proportions["cracks"] == 1.0

    def test_order_invariance_and_bounds(self):
        rng = random.Random(3)
        labels = [consensus(f"s{i}",
                            potholes=rng.choice(["yes", "no", "unresolved"]))
                  for i in range(50)]
        a = summarize_city(labels, "x")
        b = summarize_city(list(reversed(labels)), "x")
        assert a.proportions == b.proportions
        assert all(0.0 <= p <= 1.0 for p in a.proportions.values())

    def test_empty_errors(self):
        with pytest.raises(AnalysisError, match="^no consensus labels for x$"):
            summarize_city([], "x")

    def test_table_column_order(self):
        labels = [consensus("a", potholes="yes")]
        table = summary_table([summarize_city(labels, "jakarta")])
        header = table.splitlines()[0]
        assert header.index("potholes") < header.index("cracks")
        assert header.index("cracks") < header.index("clear road markings")
        assert header.index("clear road markings") < header.index("roads w/ markings")
        assert header.index("roads w/ markings") < header.index("litter")
        assert header.index("litter") < header.index("paved sidewalk")
        assert "jakarta" in table


class TestOls:
    def test_intercept_only_mean_fit(self):
        y = np.full(10, 3.7)
        res = ols_fit(np.ones((10, 1)), y, names=["intercept"])
        assert res.estimates[0] == pytest.approx(3.7)
        assert res.r_squared == 0.0

    def test_two_point_exact_line(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([0.0, 1.0, 2.0])
        res = ols_fit(x, y, names=["intercept", "slope"])
        assert res.estimates == pytest.approx([0.0, 1.0], abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(20, 100))
            k = int(rng.integers(2, 8))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            beta_true = rng.normal(size=k)
            y = x @ beta_true + rng.normal(size=n)
            res = ols_fit(x, y, names=[f"x{j}" for j in range(k)])
            beta_o, se_o, r2_o = normal_equations_ols(x.tolist(), y.tolist())
            assert res.estimates == pytest.approx(beta_o, rel=1e-8)
            assert res.standard_errors == pytest.approx(se_o, rel=1e-8)
            assert res.r_squared == pytest.approx(r2_o, rel=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60)
        res = ols_fit(x, y, names=["intercept", "a", "b", "c"])
        residuals = y - x @ res.estimates
        for j in range(x.shape[1]):
            assert abs(float(residuals @ x[:, j])) < 1e-8 * np.linalg.norm(y)

    def test_collinear_column_named(self):
        x = np.column_stack([np.ones(20), np.arange(20.0), 2 * np.arange(20.0)])
        with pytest.raises(AnalysisError, match="column b is collinear with the others"):
            ols_fit(x, np.arange(20.0), names=["intercept", "a", "b"])

    def test_zero_column_named(self):
        x = np.column_stack([np.ones(20), np.zeros(20)])
        with pytest.raises(AnalysisError, match="column empty is collinear"):
            ols_fit(x, np.arange(20.0), names=["intercept", "empty"])

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(AnalysisError):
            ols_fit(np.ones((3, 3)), np.ones(3), names=["a", "b", "c"])

    def test_robust_errors_positive(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(80), rng.normal(size=80)])
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=80) * (1 + np.abs(x[:, 1]))
        res = ols_fit(x, y, names=["intercept", "slope"], robust=True)
        assert np.all(np.array(res.standard_errors) > 0)

    def test_robust_error_of_a_level_seen_once_is_finite(self):
        # a level on one row has leverage 1 and residual 0: its HC1 variance
        # is 0 in exact arithmetic, and rounding must not take it below 0
        rng = np.random.default_rng(39)
        classes = ["primary", "secondary", "tertiary", "trunk"]
        rows = [{"road_class": classes[rng.integers(4)],
                 "income_quintile": str(rng.integers(1, 6))} for _ in range(17)]
        matrix, names = build_design(rows, ["road_class", "income_quintile"])
        y = (rng.random(17) < 0.5).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ols_fit(matrix, y, names=names, robust=True)
        assert np.all(np.isfinite(res.standard_errors))
        assert np.all(np.array(res.standard_errors) >= 0)

    @pytest.mark.parametrize("robust", [False, True])
    def test_matches_pivoted_qr_oracle_on_dummy_designs(self, robust):
        rng = np.random.default_rng(20260)
        classes = ["primary", "secondary", "tertiary", "trunk"]
        fits = 0
        for _ in range(300):
            n = int(rng.integers(40, 300))
            rows = [{"road_class": classes[rng.integers(4)],
                     "income_quintile": str(rng.integers(1, 6))} for _ in range(n)]
            matrix, names = build_design(rows, ["road_class", "income_quintile"])
            y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
            oracle = scipy_qr_ols(matrix, y, robust=robust)
            if oracle is None:
                with pytest.raises(AnalysisError, match="^design is rank deficient: column "):
                    ols_fit(matrix, y, names=names, robust=robust)
                continue
            res = ols_fit(matrix, y, names=names, robust=robust)
            beta_o, se_o, r2_o = oracle
            # abs covers estimates that are exactly 0 in exact arithmetic
            assert res.estimates == pytest.approx(beta_o, rel=1e-10, abs=1e-13)
            assert res.standard_errors == pytest.approx(se_o, rel=1e-10)
            assert res.r_squared == pytest.approx(r2_o, rel=1e-10)
            fits += 1
        assert fits > 250

    def test_coefficient_rounding_to_zero_is_written_unsigned(self):
        assert fixed(-1e-17, 8) == "0.00000000"
        assert fixed(-0.0, 8) == "0.00000000"
        assert fixed(-4e-9, 8) == "0.00000000"
        assert fixed(-6e-9, 8) == "-0.00000001"
        assert fixed(0.125, 8) == "0.12500000"
        assert fixed(-2.2e-16, 4) == "0.0000"

    def test_analysis_import_leaves_scipy_unloaded(self):
        src = str(Path(roadsense.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, roadsense.analysis; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_regression_table_renders(self):
        res = ols_fit(np.ones((5, 1)), np.arange(5.0), names=["intercept"])
        text = regression_table(res)
        assert "intercept" in text and "R^2" in text


class TestBuildDesign:
    def test_single_factor_two_levels(self):
        rows = [{"road_class": "primary"}, {"road_class": "tertiary"}] * 3
        matrix, names = build_design(rows, ["road_class"])
        # declared level set: primary/secondary/trunk columns exist
        assert names == ["intercept", "road_class=primary",
                         "road_class=secondary", "road_class=trunk"]
        assert list(matrix[0]) == [1.0, 1.0, 0.0, 0.0]
        assert list(matrix[1]) == [1.0, 0.0, 0.0, 0.0]

    def test_class_and_city_column_count(self):
        rows = []
        for cls in ("primary", "secondary", "tertiary", "trunk"):
            for city in ("a", "b", "c", "d"):
                rows.append({"road_class": cls, "city": city})
        _, names = build_design(rows, ["road_class", "city"], baselines={"city": "a"})
        assert len(names) == 1 + 3 + 3

    def test_all_tertiary_rejected_by_ols(self):
        rows = [{"road_class": "tertiary"} for _ in range(30)]
        matrix, names = build_design(rows, ["road_class"])
        with pytest.raises(AnalysisError,
                           match="^design is rank deficient: column road_class=primary "):
            ols_fit(matrix, np.zeros(30), names=names)

    def test_unseen_road_class_errors(self):
        with pytest.raises(AnalysisError):
            build_design([{"road_class": "residential"}], ["road_class"])

    def test_baseline_must_be_a_level(self):
        with pytest.raises(AnalysisError):
            build_design([{"city": "a"}], ["city"], baselines={"city": "nope"})

    def test_income_quintile_baseline_lowest(self):
        rows = [{"income_quintile": q} for q in ("Q1", "Q2", "Q3", "Q1", "Q4", "Q5")]
        _, names = build_design(rows, ["income_quintile"])
        # Q1, the baseline, has no column
        assert names == ["intercept", "income_quintile=Q2", "income_quintile=Q3",
                         "income_quintile=Q4", "income_quintile=Q5"]

    def test_recovers_additive_effects_exactly(self):
        # balanced two-factor data generated by an exactly additive model:
        # OLS must return the generating effects
        effects_class = {"primary": 0.03, "secondary": 0.01, "tertiary": 0.0, "trunk": 0.05}
        effects_city = {"jakarta": 0.0, "wayne": -0.16}
        base = 0.23
        rows, outcomes = [], []
        per_cell = 200
        for cls, ce in effects_class.items():
            for city, cye in effects_city.items():
                p = base + ce + cye
                n_yes = round(p * per_cell)
                for i in range(per_cell):
                    rows.append({"road_class": cls, "city": city})
                    outcomes.append(1.0 if i < n_yes else 0.0)
        matrix, names = build_design(rows, ["road_class", "city"], baselines={"city": "jakarta"})
        res = ols_fit(matrix, np.array(outcomes), names=names)
        names = res.coefficient_names
        assert res.estimates[names.index("road_class=primary")] == pytest.approx(0.03, abs=1e-9)
        assert res.estimates[names.index("road_class=trunk")] == pytest.approx(0.05, abs=1e-9)
        assert res.estimates[names.index("city=wayne")] == pytest.approx(-0.16, abs=1e-9)
        assert res.estimates[names.index("intercept")] == pytest.approx(0.23, abs=1e-9)


def square_tract(tid, lat0, lon0, size, income):
    ring = (GeoPoint(lat0, lon0), GeoPoint(lat0, lon0 + size),
            GeoPoint(lat0 + size, lon0 + size), GeoPoint(lat0 + size, lon0),
            GeoPoint(lat0, lon0))
    return TractPolygon(tract_id=tid, shapes=(PolygonRing(ring),),
                        per_capita_income=income)


class TestJoinIncome:
    def test_simple_containment(self):
        tracts = [square_tract("t1", 0, 0, 1, 10000.0),
                  square_tract("t2", 0, 2, 1, 20000.0)]
        matches, unmatched = join_income([("s1", GeoPoint(0.5, 2.5))], tracts)
        assert matches == [("s1", "t2", 20000.0)]
        assert unmatched == []

    def test_unmatched_point(self):
        tracts = [square_tract("t1", 0, 0, 1, 10000.0)]
        matches, unmatched = join_income([("s1", GeoPoint(5, 5))], tracts)
        assert matches == []
        assert unmatched == ["s1"]

    def test_grid_matches_brute_force(self):
        # 10x10 tract grid vs a scan without the bounding-box shortcut
        tracts = []
        for i in range(10):
            for j in range(10):
                tracts.append(square_tract(f"t{i}-{j}", i / 10, j / 10, 0.1,
                                           1000.0 * (i * 10 + j + 1)))
        rng = random.Random(8)
        points = [(f"s{k}", GeoPoint(rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)))
                  for k in range(1000)]
        matches, unmatched = join_income(points, tracts)
        got = {sid: tid for sid, tid, _ in matches}
        for sid, p in points:
            brute = [t.tract_id for t in tracts
                     if any(point_in_polygon(p, s) for s in t.shapes)]
            if brute:
                assert got[sid] == brute[0]
            else:
                assert sid in unmatched

    def test_overlapping_tracts_first_wins(self):
        tracts = [square_tract("t1", 0, 0, 1, 1.0),
                  square_tract("t2", 0, 0, 1, 2.0)]
        matches, _ = join_income([("s1", GeoPoint(0.5, 0.5))], tracts)
        assert matches == [("s1", "t1", 1.0)]


def rect_tract(tid, lat0, lon0, lat1, lon1, income, holes=()):
    ring = (GeoPoint(lat0, lon0), GeoPoint(lat0, lon1), GeoPoint(lat1, lon1),
            GeoPoint(lat1, lon0), GeoPoint(lat0, lon0))
    return TractPolygon(tract_id=tid, shapes=(PolygonRing(ring, holes),),
                        per_capita_income=income)


def random_ring(rng, lat_c, lon_c, radius):
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(3, 7)))
    ring = [GeoPoint(lat_c + radius * rng.uniform(0.3, 1) * math.sin(a),
                     lon_c + radius * rng.uniform(0.3, 1) * math.cos(a)) for a in angles]
    return ring + ring[:1]


def overlapping_tracts(rng):
    return [TractPolygon(f"o{k}", (PolygonRing(random_ring(rng, rng.uniform(0, 2),
                                                            rng.uniform(0, 2), 0.6)),),
                         float(k))
            for k in range(rng.randint(2, 30))]


def islands_and_holes(rng):
    # as in census data: a holed tract whose hole is an island of its neighbour
    tracts = []
    for k in range(rng.randint(2, 12)):
        lon0 = k * 1.0
        hole = rect_tract("", 0.3, lon0 + 0.3, 0.7, lon0 + 0.7, 0.0).shapes[0].exterior
        own = rect_tract("", 0.0, lon0, 1.0, lon0 + 1.0, 0.0, holes=[hole]).shapes[0]
        island = PolygonRing(hole)
        tracts.append(TractPolygon(f"h{k}", (own,), float(k)))
        tracts.append(TractPolygon(f"i{k}", (PolygonRing(random_ring(rng, 2.0, lon0, 0.4)),
                                             island), float(k) + 0.5))
    rng.shuffle(tracts)
    return tracts


def shared_edges(rng):
    # a dyadic grid of squares: its edges and the grid's cell boundaries are exact
    side = rng.choice([1, 2, 3, 4, 5, 8])
    size = rng.choice([0.25, 0.5, 0.125])
    return [rect_tract(f"g{r}-{c}", r * size, c * size, (r + 1) * size, (c + 1) * size,
                       float(r * side + c))
            for r in range(side) for c in range(side)]


def single_tract(rng):
    return [TractPolygon("only", (PolygonRing(random_ring(rng, 1.0, 1.0, 0.5)),), 1.0)]


def zero_extent(rng):
    # collinear rings on one parallel or one meridian: no extent on that axis
    on_meridian = rng.random() < 0.5
    tracts = []
    for k in range(rng.randint(1, 20)):
        a, b = sorted(rng.uniform(0, 3) for _ in range(2))
        ring = [(v, 1.5) if on_meridian else (1.5, v) for v in (a, (a + b) / 2, b, a)]
        tracts.append(TractPolygon(f"z{k}", (PolygonRing([GeoPoint(*q) for q in ring]),),
                                   float(k)))
    return tracts


def probe_points(rng, tracts):
    """Vertices, edge midpoints, the union's cell boundaries for up to 12
    cells a side, random points in and around the union, and far points."""
    lat0 = min(t.bounds()[0] for t in tracts)
    lon0 = min(t.bounds()[1] for t in tracts)
    lat1 = max(t.bounds()[2] for t in tracts)
    lon1 = max(t.bounds()[3] for t in tracts)
    points = []
    for t in tracts:
        for shape in t.shapes:
            for ring in (shape.exterior, *shape.holes):
                for a, b in zip(ring, ring[1:]):
                    points += [a, GeoPoint((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)]
    for m in range(1, 13):
        for k in range(m + 1):
            lat = lat0 + k * (lat1 - lat0) / m
            lon = lon0 + k * (lon1 - lon0) / m
            points += [GeoPoint(lat, lon), GeoPoint(lat, rng.uniform(lon0, lon1)),
                       GeoPoint(rng.uniform(lat0, lat1), lon)]
    pad_lat, pad_lon = (lat1 - lat0) * 0.1 + 1e-3, (lon1 - lon0) * 0.1 + 1e-3
    points += [GeoPoint(rng.uniform(lat0 - pad_lat, lat1 + pad_lat),
                        rng.uniform(lon0 - pad_lon, lon1 + pad_lon)) for _ in range(300)]
    points += [GeoPoint(-60.0, -170.0), GeoPoint(lat1 + 1.0, lon0), GeoPoint(lat0, lon1 + 1.0)]
    rng.shuffle(points)
    return [(f"s{k}", p) for k, p in enumerate(points)]


def grid_join(points, tracts, caplog):
    """(matches, unmatched, multi) from join_income, multi read from its warning."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="roadsense.analysis"):
        matches, unmatched = join_income(points, tracts)
    counts = [int(r.getMessage().split()[1]) for r in caplog.records
              if "multiple tracts" in r.getMessage()]
    return matches, unmatched, sum(counts)


class TestJoinIncomeAgainstLinearScan:
    @pytest.mark.parametrize("layout", [overlapping_tracts, islands_and_holes, shared_edges,
                                        single_tract, zero_extent],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", range(6))
    def test_same_join_as_the_linear_scan(self, caplog, layout, seed):
        rng = random.Random(f"{layout.__name__}:{seed}")
        tracts = layout(rng)
        points = probe_points(rng, tracts)
        expected = linear_join_income(points, tracts)
        assert grid_join(points, tracts, caplog) == expected
        assert expected[0] and expected[1]

    def test_overlaps_and_islands_produce_multi_tract_points(self, caplog):
        rng = random.Random(3)
        tracts = overlapping_tracts(rng) + islands_and_holes(rng)
        points = probe_points(rng, tracts)
        expected = linear_join_income(points, tracts)
        assert expected[2] > 0
        assert grid_join(points, tracts, caplog) == expected

    def test_no_points(self, caplog):
        tracts = shared_edges(random.Random(0))
        assert grid_join([], tracts, caplog) == linear_join_income([], tracts) == ([], [], 0)

    def test_no_tracts(self, caplog):
        points = [("s0", GeoPoint(0.5, 0.5)), ("s1", GeoPoint(-1, 2))]
        assert grid_join(points, [], caplog) == linear_join_income(points, []) \
            == ([], ["s0", "s1"], 0)


class TestQuintiles:
    def test_frozen_cut_points(self):
        # hand-computed under the linear order-statistic convention
        bins = quintile_bins(list(range(1, 101)))
        assert bins.cut_points == pytest.approx((20.8, 40.6, 60.4, 80.2))

    def test_too_few_distinct(self):
        with pytest.raises(AnalysisError):
            quintile_bins([1.0, 1.0, 2.0, 3.0, 4.0])

    def test_equal_to_cut_goes_lower(self):
        bins = QuintileBinning(cut_points=(10.0, 20.0, 30.0, 40.0))
        assert bins.bin_of(10.0) == "Q1"
        assert bins.bin_of(10.0001) == "Q2"
        assert bins.bin_of(40.0) == "Q4"
        assert bins.bin_of(41.0) == "Q5"

    def test_scale_invariance_of_assignment(self):
        rng = random.Random(12)
        incomes = [rng.uniform(5000, 90000) for _ in range(500)]
        bins = quintile_bins(incomes)
        scaled = quintile_bins([x * 3.5 for x in incomes])
        for x in incomes:
            assert bins.bin_of(x) == scaled.bin_of(x * 3.5)

    def test_strictly_ascending_required(self):
        # 8 of 12 incomes are 1: the first three cut points are all 1
        with pytest.raises(AnalysisError, match=r"cut points 1, 1, 1, 2.8 tie at 1:"):
            quintile_bins([1.0] * 8 + [2.0, 3.0, 4.0, 5.0])

    def test_cut_points_equal_numpy_percentile_bit_for_bit(self):
        rng = random.Random(2027)
        compared = 0
        for i in range(3000):
            n = rng.randint(5, 80)
            if i % 3 == 0:  # a few values, each repeated
                pool = [round(rng.uniform(4000.0, 90000.0), 2) for _ in range(rng.randint(5, 9))]
                incomes = [rng.choice(pool) for _ in range(n)]
            elif i % 3 == 1:
                incomes = [rng.randint(0, 60) for _ in range(n)]
            else:  # magnitudes from 1e-300 up to 1e300 in one sample
                incomes = [rng.random() * 10.0 ** rng.randint(-300, 300) for _ in range(n)]
            oracle = np.percentile(np.array(incomes, dtype=float), [20, 40, 60, 80],
                                   method="linear").tolist()
            if len(set(incomes)) < 5 or any(a >= b for a, b in zip(oracle, oracle[1:])):
                with pytest.raises(AnalysisError):
                    quintile_bins(incomes)
                continue
            assert [c.hex() for c in quintile_bins(incomes).cut_points] == [
                c.hex() for c in oracle]
            compared += 1
        assert compared > 2000


class TestExpectedIncidents:
    def test_zero_rate(self):
        assert expected_incidents(0.0, 100.0, 0.5) == 0.0

    def test_one_km_capture(self):
        assert expected_incidents(0.23, 10.0, 1.0) == pytest.approx(2.3)

    def test_half_km_capture(self):
        assert expected_incidents(0.23, 10.0, 0.5) == pytest.approx(4.6)


class TestTractsGeojson:
    def test_polygon_and_multipolygon(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature",
                 "properties": {"tract_id": "100", "per_capita_income": 12000},
                 "geometry": {"type": "Polygon",
                              "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}},
                {"type": "Feature",
                 "properties": {"tract_id": "200", "per_capita_income": 45000},
                 "geometry": {"type": "MultiPolygon",
                              "coordinates": [
                                  [[[2, 0], [3, 0], [3, 1], [2, 1], [2, 0]]],
                                  [[[4, 0], [5, 0], [5, 1], [4, 1], [4, 0]]],
                              ]}},
            ],
        }
        path = tmp_path / "tracts.geojson"
        path.write_text(json.dumps(doc))
        tracts = load_tracts_geojson(path)
        assert [t.tract_id for t in tracts] == ["100", "200"]
        assert len(tracts[1].shapes) == 2
        # lon/lat order: polygon covers lon [0,1], lat [0,1]
        matches, _ = join_income([("s", GeoPoint(0.5, 0.5))], tracts)
        assert matches[0][1] == "100"

    def test_missing_properties(self, tmp_path):
        doc = {"type": "FeatureCollection",
               "features": [{"type": "Feature", "properties": {},
                             "geometry": {"type": "Polygon",
                                          "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}]}
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputDataError):
            load_tracts_geojson(path)

    def test_not_a_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "Feature"}')
        with pytest.raises(InputDataError):
            load_tracts_geojson(path)

    def test_position_altitude_is_ignored(self, tmp_path):
        doc = two_tracts()
        for position in doc["features"][0]["geometry"]["coordinates"][0]:
            position.append(183.5)
        path = tmp_path / "tracts.geojson"
        path.write_text(json.dumps(doc))
        tracts = load_tracts_geojson(path)
        assert tracts[0].shapes[0].exterior[1] == GeoPoint(0, 1)
        assert join_income([("s", GeoPoint(0.5, 0.5))], tracts)[0] == [("s", "100", 12000.0)]


def two_tracts() -> dict:
    """A Polygon tract and a MultiPolygon tract whose first part has a hole."""
    return {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"tract_id": "100", "per_capita_income": 12000},
         "geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}},
        {"type": "Feature", "properties": {"tract_id": "200", "per_capita_income": 45000.5},
         "geometry": {"type": "MultiPolygon", "coordinates": [
             [[[2, 0], [3, 0], [3, 1], [2, 1], [2, 0]],
              [[2.4, 0.4], [2.6, 0.4], [2.6, 0.6], [2.4, 0.6], [2.4, 0.4]]],
             [[[4, 0], [5, 0], [5, 1], [4, 1], [4, 0]]]]}}]}


def _edit(change):
    def build():
        doc = two_tracts()
        change(doc["features"])
        return json.dumps(doc)
    return build


MALFORMED_TRACTS = {
    "feature_not_an_object": (_edit(lambda f: f.__setitem__(1, 7)),
                              "feature 1: expected an object, got 7"),
    "no_coordinates": (_edit(lambda f: f[0]["geometry"].pop("coordinates")),
                       "feature 0: geometry.coordinates: expected a non-empty list"),
    "ring_of_3": (_edit(lambda f: f[0]["geometry"].__setitem__(
        "coordinates", [[[0, 0], [1, 0], [0, 0]]])),
        "feature 0: geometry.coordinates: exterior ring needs >= 4 entries"),
    "lat_100": (_edit(lambda f: f[1]["geometry"]["coordinates"][0][1].__setitem__(2, [2.6, 100])),
                "feature 1: geometry.coordinates[0][1][2]: lat 100"),
    "income_abc": (_edit(lambda f: f[1]["properties"].__setitem__("per_capita_income", "abc")),
                   "feature 1: properties.per_capita_income: expected a number, got 'abc'"),
    "income_negative": (_edit(lambda f: f[0]["properties"].__setitem__("per_capita_income", -1)),
                        "feature 0: properties.per_capita_income: expected a finite "
                        "number >= 0, got -1"),
    "position_too_short": (_edit(lambda f: f[0]["geometry"]["coordinates"][0].__setitem__(1, [1])),
                           "feature 0: geometry.coordinates[0][1]: expected a [lon, lat] position"),
    "point_geometry": (_edit(lambda f: f[0]["geometry"].__setitem__("type", "Point")),
                       "feature 0: geometry.type: unsupported geometry 'Point'"),
    "empty_multipolygon": (_edit(lambda f: f[1]["geometry"].__setitem__("coordinates", [])),
                           "feature 1: geometry.coordinates: expected a non-empty list"),
    "tract_id_missing": (_edit(lambda f: f[0]["properties"].pop("tract_id")),
                         "feature 0: properties.tract_id: missing"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACTS))
def test_malformed_tracts_exit_3_naming_file_feature_and_field(tmp_path, capsys, case):
    build, expected = MALFORMED_TRACTS[case]
    tracts = tmp_path / "tracts.geojson"
    tracts.write_text(build())
    segments = tmp_path / "segments.csv"
    segments.write_text(SEGMENTS_CSV_HEADER + "\n1#0,1,0,0.5000000,0.5000000,0.5000000,"
                        "0.5010000,111.195,primary,x\n")
    consensus = tmp_path / "consensus.csv"
    consensus.write_text("segment_id,potholes,cracks,markings_present,markings_clear,"
                         "litter,sidewalk_paved,n_workers\n1#0,yes,no,yes,yes,no,yes,1\n")
    assert main(["regress", "--outcome", "potholes", "--consensus", str(consensus),
                 "--segments", str(segments), "--factors", "road_class,income_quintile",
                 "--tracts", str(tracts)]) == 3
    err = capsys.readouterr().err
    assert f"{tracts}: {expected}" in err
    assert "Traceback" not in err
