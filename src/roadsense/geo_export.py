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


def _feature(segment: RoadSegment, rank: int, shape) -> str:
    if shape is None:
        geometry = f'{{"type":"Point","coordinates":{_coord(segment.start)}}}'
    else:
        coords = ",".join(_coord(p) for p in shape)
        geometry = f'{{"type":"LineString","coordinates":[{coords}]}}'
    props = json.dumps({"segment_id": segment.segment_id, "city": segment.city,
                        "highway_class": segment.highway_class, "sample_rank": rank},
                       ensure_ascii=False, separators=(",", ":"))
    return f'{{"type":"Feature","geometry":{geometry},"properties":{props}}}'


def export_geojson(plan: SamplePlan, shapes: list | None = None) -> str:
    """FeatureCollection of the plan: start points or, given each segment's
    shape (segmenter.segment_shapes), lines."""
    features = ",\n".join(_feature(s, rank, shapes[rank] if shapes else None)
                          for rank, s in enumerate(plan.segments))
    if features:
        return ('{"type":"FeatureCollection","features":[\n'
                + features + "\n]}\n")
    return '{"type":"FeatureCollection","features":[]}\n'
