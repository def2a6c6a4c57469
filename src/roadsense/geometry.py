"""Spherical-earth primitives: great-circle distance, interpolation along
polylines, and point-in-polygon tests.

All operations model the earth as a sphere of radius 6,371,000 m. At the
segment scale this pipeline works with (hundreds of meters) the error
against an ellipsoid is far below labeling noise, and a sphere keeps the
arithmetic deterministic and easy to reproduce elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    lat: float  # degrees, [-90, 90]
    lon: float  # degrees, [-180, 180]

    def __post_init__(self):
        check_coordinate(self.lat, self.lon)


def check_coordinate(lat: float, lon: float) -> None:
    """Raise ValueError unless lat is in [-90, 90] and lon in [-180, 180].

    NaN fails every comparison, so non-finite values are rejected too.
    """
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"lat {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"lon {lon} outside [-180, 180]")


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def _to_unit_xyz(p: GeoPoint) -> tuple[float, float, float]:
    la, lo = math.radians(p.lat), math.radians(p.lon)
    c = math.cos(la)
    return (c * math.cos(lo), c * math.sin(lo), math.sin(la))


def _from_unit_xyz(x: float, y: float, z: float) -> GeoPoint:
    h = math.hypot(x, y)
    return GeoPoint(math.degrees(math.atan2(z, h)), math.degrees(math.atan2(y, x)))


def interpolate(a: GeoPoint, b: GeoPoint, t: float) -> GeoPoint:
    """Point a fraction ``t`` of the way from a to b along the great circle."""
    if t <= 0.0:
        return a
    if t >= 1.0:
        return b
    ax, ay, az = _to_unit_xyz(a)
    bx, by, bz = _to_unit_xyz(b)
    dot = max(-1.0, min(1.0, ax * bx + ay * by + az * bz))
    omega = math.acos(dot)
    if omega < 1e-12:
        # nearly coincident endpoints: chord interpolation is exact enough
        x, y, z = ax + (bx - ax) * t, ay + (by - ay) * t, az + (bz - az) * t
    else:
        s = math.sin(omega)
        f0 = math.sin((1.0 - t) * omega) / s
        f1 = math.sin(t * omega) / s
        x, y, z = f0 * ax + f1 * bx, f0 * ay + f1 * by, f0 * az + f1 * bz
    return _from_unit_xyz(x, y, z)


@dataclass(frozen=True, slots=True)
class Polyline:
    """Ordered chain of at least two points; zero-length edges are dropped
    at construction."""

    points: tuple[GeoPoint, ...]

    def __init__(self, points):
        pts: list[GeoPoint] = []
        for p in points:
            if not pts or p != pts[-1]:
                pts.append(p)
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 distinct points")
        object.__setattr__(self, "points", tuple(pts))

    def edge_lengths_m(self) -> list[float]:
        pts = self.points
        return [haversine_m(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def length_m(self) -> float:
        # left to right, as way_pieces adds; sum() compensates from Python 3.12
        return reduce(add, self.edge_lengths_m(), 0.0)


def _check_ring(ring: tuple[GeoPoint, ...], kind: str) -> None:
    if len(ring) < 4:
        raise ValueError(f"{kind} ring needs >= 4 entries (closed), got {len(ring)}")
    if ring[0] != ring[-1]:
        raise ValueError(f"{kind} ring is not closed (first != last)")
    if len(set((p.lat, p.lon) for p in ring[:-1])) < 3:
        raise ValueError(f"{kind} ring needs >= 3 distinct vertices")
    for i in range(len(ring) - 1):
        if abs(ring[i + 1].lon - ring[i].lon) > 180.0:
            raise ValueError(f"{kind} ring crosses the antimeridian; not supported")


@dataclass(frozen=True)
class PolygonRing:
    """Closed exterior ring plus optional closed hole rings, in lon/lat
    degrees. Antimeridian-crossing rings are rejected."""

    exterior: tuple[GeoPoint, ...]
    holes: tuple[tuple[GeoPoint, ...], ...] = field(default_factory=tuple)

    def __init__(self, exterior, holes=()):
        ext = tuple(exterior)
        hs = tuple(tuple(h) for h in holes)
        _check_ring(ext, "exterior")
        for h in hs:
            _check_ring(h, "hole")
        object.__setattr__(self, "exterior", ext)
        object.__setattr__(self, "holes", hs)

    def bounds(self) -> tuple[float, float, float, float]:
        """(min_lat, min_lon, max_lat, max_lon) of the exterior ring."""
        lats = [p.lat for p in self.exterior]
        lons = [p.lon for p in self.exterior]
        return (min(lats), min(lons), max(lats), max(lons))


def _ring_side(ring: tuple[GeoPoint, ...], p: GeoPoint) -> bool | None:
    """None if p lies on an edge of the closed ring, else whether even-odd
    ray casting in lon/lat coordinates puts it inside."""
    x, y = p.lon, p.lat
    inside = False
    for a, b in zip(ring, ring[1:]):
        ax, ay, bx, by = a.lon, a.lat, b.lon, b.lat
        # collinear and within the bounding box of the edge
        if ((bx - ax) * (y - ay) - (by - ay) * (x - ax) == 0.0
                and min(ax, bx) <= x <= max(ax, bx) and min(ay, by) <= y <= max(ay, by)):
            return None
        if (ay > y) != (by > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


def point_in_polygon(p: GeoPoint, poly: PolygonRing) -> bool:
    """True iff p lies inside the exterior and outside every hole.

    Points exactly on any edge (exterior or hole boundary) count as inside:
    a total, deterministic rule for the rare exact tie.
    """
    sides = [_ring_side(ring, p) for ring in (poly.exterior, *poly.holes)]
    return None in sides or (sides[0] and not any(sides[1:]))
