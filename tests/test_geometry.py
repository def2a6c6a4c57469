"""Geometry unit tests.

Oracles are kept independent of the implementation: distances are checked
against closed-form arcs and a vector/arccos formula, containment against a
winding-number tally and a Monte Carlo area estimate.
"""

import math
import random

import pytest

from oracles import point_along
from roadsense.geometry import (
    EARTH_RADIUS_M,
    GeoPoint,
    Polyline,
    PolygonRing,
    haversine_m,
    interpolate,
    point_in_polygon,
)


def arc_distance_oracle(a: GeoPoint, b: GeoPoint) -> float:
    """Independent great-circle distance via 3D dot product + arccos."""
    def xyz(p):
        la, lo = math.radians(p.lat), math.radians(p.lon)
        return (math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la))
    ax, ay, az = xyz(a)
    bx, by, bz = xyz(b)
    dot = max(-1.0, min(1.0, ax * bx + ay * by + az * bz))
    return EARTH_RADIUS_M * math.acos(dot)


def winding_number_inside(p: GeoPoint, ring) -> bool:
    """Independent containment oracle: sum of signed turn angles."""
    total = 0.0
    x, y = p.lon, p.lat
    for i in range(len(ring) - 1):
        ax, ay = ring[i].lon - x, ring[i].lat - y
        bx, by = ring[i + 1].lon - x, ring[i + 1].lat - y
        ang = math.atan2(ax * by - ay * bx, ax * bx + ay * by)
        total += ang
    return abs(total) > math.pi  # winding number +-1 vs 0


class TestGeoPoint:
    def test_valid_range(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-90.5, 0), (0, 181), (0, -180.01)])
    def test_out_of_range(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestHaversine:
    def test_identity(self):
        assert haversine_m(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_quarter_circumference(self):
        # closed form: 2*pi*R/4 = 10_007_543.398 m
        d = haversine_m(GeoPoint(0, 0), GeoPoint(0, 90))
        assert abs(d - 10_007_543.0) <= 1.0 or abs(d - 2 * math.pi * EARTH_RADIUS_M / 4) < 1e-6

    def test_one_degree_meridian(self):
        # closed form: pi*R/180 = 111_194.927 m
        d = haversine_m(GeoPoint(0, 0), GeoPoint(1, 0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 180, abs=1e-6)
        assert abs(d - 111_195.0) <= 1.0

    def test_symmetry_and_nonnegative(self):
        rng = random.Random(7)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            d1, d2 = haversine_m(a, b), haversine_m(b, a)
            assert d1 == d2 >= 0.0

    def test_matches_arccos_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            assert haversine_m(a, b) == pytest.approx(arc_distance_oracle(a, b), rel=1e-9, abs=1e-3)

    def test_triangle_inequality(self):
        rng = random.Random(23)
        for _ in range(300):
            pts = [GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(3)]
            ab = haversine_m(pts[0], pts[1])
            bc = haversine_m(pts[1], pts[2])
            ac = haversine_m(pts[0], pts[2])
            assert ac <= (ab + bc) * (1 + 1e-6)


class TestPolyline:
    def test_drops_zero_length_edges(self):
        line = Polyline([GeoPoint(0, 0), GeoPoint(0, 0), GeoPoint(0, 1)])
        assert len(line.points) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Polyline([GeoPoint(0, 0), GeoPoint(0, 0)])

    def test_edge_lengths(self):
        line = Polyline([GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(0, 2)])
        assert line.edge_lengths_m() == [haversine_m(GeoPoint(0, 0), GeoPoint(0, 1)),
                                         haversine_m(GeoPoint(0, 1), GeoPoint(0, 2))]


class TestPointAlong:
    def test_distance_zero_is_first_vertex(self):
        line = Polyline([GeoPoint(10, 10), GeoPoint(11, 11)])
        assert point_along(line, 0.0) == line.points[0]

    def test_full_distance_is_last_vertex(self):
        line = Polyline([GeoPoint(10, 10), GeoPoint(11, 11)])
        assert point_along(line, sum(line.edge_lengths_m())) == line.points[-1]

    def test_equatorial_midpoint(self):
        # midpoint of a 111,195 m equatorial edge, derived from the arc length
        line = Polyline([GeoPoint(0, 0), GeoPoint(0, 1)])
        p = point_along(line, 55_597.5)
        assert p.lat == pytest.approx(0.0, abs=1e-6)
        assert p.lon == pytest.approx(0.5, abs=1e-6)

    def test_out_of_range(self):
        line = Polyline([GeoPoint(0, 0), GeoPoint(0, 1)])
        with pytest.raises(ValueError) as exc:
            point_along(line, sum(line.edge_lengths_m()) + 1.0)
        assert "length" in str(exc.value)

    def test_walk_reproduces_distances(self):
        # walking at dense cumulative distances and summing haversine hops
        # between the returned points reproduces the walked length to 0.1%
        rng = random.Random(5)
        for _ in range(20):
            pts = []
            lat, lon = rng.uniform(-60, 60), rng.uniform(-170, 170)
            for _ in range(5):
                pts.append(GeoPoint(lat, lon))
                lat += rng.uniform(-0.001, 0.001)
                lon += rng.uniform(0.003, 0.01)
            line = Polyline(pts)
            total = sum(line.edge_lengths_m())
            n_steps = 200
            prev = point_along(line, 0.0)
            measured = 0.0
            for k in range(1, n_steps + 1):
                cur = point_along(line, total * k / n_steps)
                measured += haversine_m(prev, cur)
                prev = cur
            assert measured == pytest.approx(total, rel=1e-3)

    def test_interpolate_endpoints(self):
        a, b = GeoPoint(10, 20), GeoPoint(11, 21)
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b


def unit_square(lat0=0.0, lon0=0.0, size=1.0):
    return (
        GeoPoint(lat0, lon0),
        GeoPoint(lat0, lon0 + size),
        GeoPoint(lat0 + size, lon0 + size),
        GeoPoint(lat0 + size, lon0),
        GeoPoint(lat0, lon0),
    )


class TestPointInPolygon:
    def test_interior(self):
        poly = PolygonRing(unit_square())
        assert point_in_polygon(GeoPoint(0.5, 0.5), poly)

    def test_exterior(self):
        poly = PolygonRing(unit_square())
        assert not point_in_polygon(GeoPoint(2, 2), poly)

    def test_point_in_hole_is_outside(self):
        poly = PolygonRing(unit_square(), holes=[unit_square(0.25, 0.25, 0.5)])
        assert not point_in_polygon(GeoPoint(0.5, 0.5), poly)
        assert point_in_polygon(GeoPoint(0.1, 0.1), poly)

    def test_on_edge_is_inside(self):
        poly = PolygonRing(unit_square())
        assert point_in_polygon(GeoPoint(0.0, 0.5), poly)   # edge
        assert point_in_polygon(GeoPoint(0.0, 0.0), poly)   # vertex
        holey = PolygonRing(unit_square(), holes=[unit_square(0.25, 0.25, 0.5)])
        assert point_in_polygon(GeoPoint(0.25, 0.5), holey)  # hole edge

    def test_rejects_unclosed_ring(self):
        with pytest.raises(ValueError):
            PolygonRing((GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0)))

    def test_rejects_antimeridian_crossing(self):
        ring = (
            GeoPoint(0, 179.5),
            GeoPoint(0, -179.5),
            GeoPoint(1, -179.5),
            GeoPoint(1, 179.5),
            GeoPoint(0, 179.5),
        )
        with pytest.raises(ValueError):
            PolygonRing(ring)

    def test_monte_carlo_area_with_hole(self):
        # 1e6 uniform points in the bounding box; inside fraction must match
        # the analytic area (1 - 0.25) of the square-with-hole shape
        poly = PolygonRing(unit_square(), holes=[unit_square(0.25, 0.25, 0.5)])
        rng = random.Random(99)
        n = 1_000_000
        hits = 0
        for _ in range(n):
            if point_in_polygon(GeoPoint(rng.random(), rng.random()), poly):
                hits += 1
        assert hits / n == pytest.approx(0.75, abs=0.003)

    def test_agrees_with_winding_oracle_on_convex_polygons(self):
        rng = random.Random(42)
        for _ in range(50):
            cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            k = rng.randint(3, 9)
            radius = rng.uniform(0.5, 3.0)
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
            ring = [GeoPoint(cy + radius * math.sin(a), cx + radius * math.cos(a)) for a in angles]
            ring.append(ring[0])
            if len({(p.lat, p.lon) for p in ring[:-1]}) < 3:
                continue
            poly = PolygonRing(ring)
            for _ in range(1000):
                p = GeoPoint(cy + rng.uniform(-4, 4), cx + rng.uniform(-4, 4))
                assert point_in_polygon(p, poly) == winding_number_inside(p, poly.exterior)
