"""Chunk road polylines into fixed-length segments, the sampling units.

Tail rule: after cutting a way at whole multiples of the target length,
a remainder of at least half the target becomes its own shorter segment;
a smaller remainder is merged into the previous segment (which then runs
over the target). A way shorter than the target is a single segment. The
rule covers every meter of road exactly once without near-zero units.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path

from .errors import DegenerateWayError, InputDataError
from .fileio import read_table, write_table
from .geometry import GeoPoint, Polyline, haversine_m, interpolate
from .osm_ingest import RoadNetwork, Way


SEGMENTS_CSV_HEADER = ("segment_id,way_id,index,start_lat,start_lon,"
                       "end_lat,end_lon,length_m,highway_class,city")
PLAN_CSV_HEADER = SEGMENTS_CSV_HEADER + ",sample_rank"


@dataclass(frozen=True, slots=True)
class RoadSegment:
    segment_id: str            # "<way_id>#<index>"
    way_id: int
    index: int
    start: GeoPoint
    end: GeoPoint
    length_m: float
    highway_class: str
    city: str


def _cut_distances(length_m: float, target_m: float) -> list[float]:
    """Interior cut positions implementing the tail rule."""
    k = int(length_m // target_m)
    if k == 0:
        return []
    remainder = length_m - k * target_m
    if remainder < 1e-9:
        n_cuts = k - 1
    elif remainder >= target_m / 2.0:
        n_cuts = k
    else:
        n_cuts = k - 1
    return [target_m * (i + 1) for i in range(n_cuts)]


def way_pieces(way: Way, network: RoadNetwork,
               target_m: float) -> list[tuple[list[GeoPoint], float]]:
    """The way cut by the tail rule into consecutive pieces, each a shape and
    its length in meters, tiling the way with no gaps; target_m > 0.

    A shape keeps every intermediate way vertex plus the interpolated cut
    points; a cut point is shared bit-exactly as the end of one piece and the
    start of the next.
    """
    try:
        line = Polyline(network.way_points(way))
    except ValueError as e:
        raise DegenerateWayError(f"way {way.id}: {e}") from e
    edges = line.edge_lengths_m()
    # left to right, as each piece adds below; sum() compensates from Python 3.12
    total = reduce(add, edges, 0.0)
    if total < 1.0:
        raise DegenerateWayError(f"way {way.id} is only {total:.3f} m long")

    cuts = _cut_distances(total, target_m)
    if not cuts:
        return [(list(line.points), total)]
    # each piece's length adds up the way's own edge lengths; only an edge
    # split at a cut point is measured
    pieces: list[tuple[list[GeoPoint], float]] = []
    current, length = [line.points[0]], 0.0
    walked = 0.0
    cut_iter = iter(cuts)
    next_cut = next(cut_iter, None)
    for i, edge in enumerate(edges):
        a, b = line.points[i], line.points[i + 1]
        start_walked = walked
        while next_cut is not None and next_cut <= start_walked + edge:
            t = (next_cut - start_walked) / edge
            if t >= 1.0 - 1e-12:
                cut_point = b
            elif t <= 1e-12:
                cut_point = a
            else:
                cut_point = interpolate(a, b, t)
            if cut_point != current[-1]:
                whole = current[-1] is a and cut_point is b
                length += edge if whole else haversine_m(current[-1], cut_point)
                current.append(cut_point)
            pieces.append((current, length))
            current, length = [cut_point], 0.0
            next_cut = next(cut_iter, None)
        walked += edge
        if current[-1] is a:  # a != b: the polyline has no consecutive duplicates
            length += edge
            current.append(b)
        elif b != current[-1]:
            length += haversine_m(current[-1], b)
            current.append(b)
    # cuts are strictly interior, so the leftover always reaches the last vertex
    pieces.append((current, length))
    # consecutive points of a piece always differ, so a piece of two points has
    # two distinct ones; only cuts closer together than float coordinates
    # resolve, a nanometer or so apart, could leave a piece of one point
    if any(len(piece) < 2 for piece, _ in pieces):
        raise DegenerateWayError(f"way {way.id}: target {target_m} m cuts a piece "
                                 "of no length")
    return pieces


def chunk_way(way: Way, network: RoadNetwork, target_m: float) -> list[RoadSegment]:
    """Split one way into consecutive segments, one per piece of way_pieces."""
    return [RoadSegment(f"{way.id}#{idx}", way.id, idx, piece[0], piece[-1], length_m,
                        way.highway_class, network.source_name)
            for idx, (piece, length_m) in enumerate(way_pieces(way, network, target_m))]


def chunk_network(ways: list[Way], network: RoadNetwork, target_m: float) -> list[RoadSegment]:
    """chunk_way over a list of ways, concatenated in input order, skipping
    each way that chunk_way finds degenerate; skipped_ways counts them."""
    segments: list[RoadSegment] = []
    for way in ways:
        try:
            segments.extend(chunk_way(way, network, target_m))
        except DegenerateWayError:
            continue
    return segments


def skipped_ways(ways: list[Way], segments: list[RoadSegment]) -> int:
    """How many of `ways` chunk_network skipped: every way it chunks yields
    exactly one segment of index 0, even where way ids repeat."""
    return len(ways) - sum(s.index == 0 for s in segments)


def segment_shapes(segments: list[RoadSegment], network: RoadNetwork,
                   target_m: float) -> list[list[GeoPoint]]:
    """Each segment's full shape, which CSV does not store.

    Chunking is deterministic, so re-chunking the parent ways with the
    same target reproduces each segment's shape; segments are matched by
    segment_id.
    """
    by_way = {w.id: w for w in network.ways}
    shapes: dict[str, list[GeoPoint]] = {}
    for way_id in sorted({s.way_id for s in segments}):
        way = by_way.get(way_id)
        if way is None:
            raise InputDataError(f"way {way_id} not present in the network file")
        for idx, (piece, _) in enumerate(way_pieces(way, network, target_m)):
            shapes[f"{way_id}#{idx}"] = piece
    for s in segments:
        if s.segment_id not in shapes:
            raise InputDataError(
                f"segment {s.segment_id} not reproducible from the network "
                f"at target {target_m} m")
    return [shapes[s.segment_id] for s in segments]


def write_segments_csv(segments: list[RoadSegment], path: str | Path) -> None:
    write_table(path, SEGMENTS_CSV_HEADER.split(","), map(_segment_row, segments))


def write_plan_csv(plan: list[RoadSegment], path: str | Path) -> None:
    """plan.csv: segments.csv's columns plus each segment's draw rank, which
    read_segments_csv skips when it reads the plan back."""
    write_table(path, PLAN_CSV_HEADER.split(","),
                (_segment_row(s) + [str(rank)] for rank, s in enumerate(plan)))


def _segment_row(s: RoadSegment) -> list[str]:
    return [
        s.segment_id,
        str(s.way_id),
        str(s.index),
        f"{s.start.lat:.7f}",
        f"{s.start.lon:.7f}",
        f"{s.end.lat:.7f}",
        f"{s.end.lon:.7f}",
        f"{s.length_m:.3f}",
        s.highway_class,
        s.city,
    ]


# a road class or city repeats on every row of it: interned, each is held once
_SEGMENT_COLUMNS = dict(zip(SEGMENTS_CSV_HEADER.split(","),
                            (str, int, int, float, float, float, float, float,
                             sys.intern, sys.intern)))


def _segment(segment_id, way_id, index, lat0, lon0, lat1, lon1, *rest) -> RoadSegment:
    # rest: length_m, highway_class, city
    return RoadSegment(segment_id, way_id, index, GeoPoint(lat0, lon0),
                       GeoPoint(lat1, lon1), *rest)


def read_segments_csv(path: str | Path) -> list[RoadSegment]:
    """Segments of segments.csv or plan.csv, each id once. CSV holds no
    interior vertices: segment_shapes re-chunks the network file for them."""
    return read_table(path, _SEGMENT_COLUMNS, _segment, key="segment_id")
