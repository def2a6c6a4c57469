"""Emit sampled locations and segment shapes as GeoJSON.

Output is deterministic down to the byte: coordinates are printed with a
fixed 7 decimal places (about a centimeter) and features keep plan order.
No basemap rendering here; the files feed external plotting tools.
"""

from __future__ import annotations

import json

from .sampler import SamplePlan
from .segmenter import RoadSegment


def _coord(p) -> str:
    # GeoJSON coordinate order is [lon, lat]
    return f"[{p.lon:.7f},{p.lat:.7f}]"


def _feature(segment: RoadSegment, rank: int, mode: str) -> str:
    if mode == "points":
        geometry = f'{{"type":"Point","coordinates":{_coord(segment.start)}}}'
    else:
        points = segment.geometry.points if segment.geometry else (segment.start, segment.end)
        coords = ",".join(_coord(p) for p in points)
        geometry = f'{{"type":"LineString","coordinates":[{coords}]}}'
    props = json.dumps({"segment_id": segment.segment_id, "city": segment.city,
                        "highway_class": segment.highway_class, "sample_rank": rank},
                       ensure_ascii=False, separators=(",", ":"))
    return f'{{"type":"Feature","geometry":{geometry},"properties":{props}}}'


def export_geojson(plan: SamplePlan, mode: str = "points") -> str:
    """FeatureCollection of the plan: start points, or full polylines."""
    if mode not in ("points", "lines"):
        raise ValueError(f"mode must be 'points' or 'lines', got {mode!r}")
    features = ",\n".join(_feature(s, rank, mode)
                          for rank, s in enumerate(plan.segments))
    if features:
        return ('{"type":"FeatureCollection","features":[\n'
                + features + "\n]}\n")
    return '{"type":"FeatureCollection","features":[]}\n'
