"""Seeded input generators for the roadsense benchmark.

Everything here is built directly from the workload seed, without importing
roadsense, so set-up time does not move when the program changes. Each
generator writes its files into a directory and returns a small design
record the checks in ``run.py`` compare the program's outputs against.

Coordinates are written with exactly 7 decimals. A segment whose start is a
way's first node therefore reaches the imagery client as the same
``lat,lon`` string the fixture is keyed by.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

M_PER_DEG = 6_371_000.0 * math.pi / 180.0
CITY = "benchcity"
# a 0.3 x 0.3 degree city box, away from the poles and the antimeridian
LAT0, LON0, SPAN = 13.60, 100.40, 0.30
SAMPLED_CLASSES = ("trunk", "primary", "secondary", "tertiary")
OK_SHARE = 246                  # OK points per 1,000, as in acceptance criterion 1


def loc(lat: float, lon: float) -> str:
    return f"{lat:.7f},{lon:.7f}"


def _step(lat: float, lon: float, dist_m: float, bearing: float) -> tuple[float, float]:
    dlat = dist_m * math.cos(bearing) / M_PER_DEG
    dlon = dist_m * math.sin(bearing) / (M_PER_DEG * math.cos(math.radians(lat)))
    return lat + dlat, lon + dlon


def _inside_box(rng: random.Random, margin: float = 0.03) -> tuple[float, float]:
    return (LAT0 + margin + rng.random() * (SPAN - 2 * margin),
            LON0 + margin + rng.random() * (SPAN - 2 * margin))


def _ok_entry(i: int) -> dict:
    return {"status": "OK", "pano_id": f"pano{i:06d}", "date": f"20{10 + i % 9}-0{1 + i % 9}"}


# --- large extract: ingest-large ------------------------------------------

# (class, count) of the road ways; residential lies outside the sampling frame
LARGE_ROAD_CLASSES = (("trunk", 400), ("primary", 800), ("secondary", 1000),
                      ("tertiary", 1200), ("residential", 600))
# way lengths in metres and the segments each makes under the 500 m target's
# tail rule; every length is at least 50 m from a rule threshold, so the
# count does not hang on rounding
LARGE_LENGTHS_M = {350.0: 1, 800.0: 2, 1200.0: 2, 1850.0: 4}
LARGE_BUILDINGS = 6_000
LARGE_POIS = 100_000
NODES_PER_WAY = 10
POI_TAGS = (("amenity", "cafe"), ("shop", "convenience"), ("amenity", "school"),
            ("tourism", "hotel"), ("amenity", "bank"))


def large_extract(seed: int, out_dir: Path) -> dict:
    """A city extract whose non-road nodes outnumber its road nodes 4 to 1.

    4,000 highway ways of 10 nodes (40,000 road nodes, ids 1001-41000),
    then 6,000 building ways of 10 nodes and 100,000 point-of-interest
    nodes (160,000 non-road nodes): about 15 MB. The fixture makes the
    first segment of every fourth in-frame way OK. Returns the designed
    road-way, road-node and segment counts.
    """
    rng = random.Random(f"large:{seed}")
    classes = [c for c, n in LARGE_ROAD_CLASSES for _ in range(n)]
    rng.shuffle(classes)
    node_lines: list[str] = []
    way_lines: list[str] = []
    fixture: dict[str, dict] = {}
    nid = 1000

    def add_node(lat: float, lon: float) -> int:
        nonlocal nid
        nid += 1
        node_lines.append(f'  <node id="{nid}" lat="{lat:.7f}" lon="{lon:.7f}"/>')
        return nid

    lengths = list(LARGE_LENGTHS_M)
    in_frame = segments = 0
    for w, cls in enumerate(classes):
        length = lengths[w % len(lengths)]
        lat, lon = _inside_box(rng)
        bearing = rng.random() * 2 * math.pi
        first = (lat, lon)
        refs = [add_node(lat, lon)]
        weights = [0.5 + rng.random() for _ in range(NODES_PER_WAY - 1)]
        total = sum(weights)
        for wt in weights:
            bearing += (rng.random() - 0.5) * 0.4
            lat, lon = _step(lat, lon, length * wt / total, bearing)
            refs.append(add_node(lat, lon))
        way_id = 500_000 + w
        way_lines.append(f'  <way id="{way_id}">')
        way_lines.extend(f'    <nd ref="{r}"/>' for r in refs)
        way_lines.append(f'    <tag k="highway" v="{cls}"/>')
        if w % 3 == 0:
            way_lines.append(f'    <tag k="name" v="Road {w}"/>')
        way_lines.append("  </way>")
        if cls in SAMPLED_CLASSES:
            segments += LARGE_LENGTHS_M[length]
            if in_frame % 4 == 0:
                fixture[loc(*first)] = _ok_entry(w)
            in_frame += 1

    road_nodes = nid - 1000

    for b in range(LARGE_BUILDINGS):
        lat, lon = _inside_box(rng, margin=0.01)
        refs = []
        for k in range(NODES_PER_WAY):
            a = 2 * math.pi * k / NODES_PER_WAY
            refs.append(add_node(lat + 0.0002 * math.cos(a), lon + 0.0002 * math.sin(a)))
        way_lines.append(f'  <way id="{900_000 + b}">')
        way_lines.extend(f'    <nd ref="{r}"/>' for r in refs + refs[:1])
        way_lines.append('    <tag k="building" v="yes"/>')
        way_lines.append("  </way>")

    for p in range(LARGE_POIS):
        lat, lon = _inside_box(rng, margin=0.0)
        if p % 5:
            add_node(lat, lon)
        else:
            k, v = POI_TAGS[p % len(POI_TAGS)]
            nid += 1
            node_lines.append(f'  <node id="{nid}" lat="{lat:.7f}" lon="{lon:.7f}">'
                              f'<tag k="{k}" v="{v}"/></node>')

    text = "\n".join(["<?xml version='1.0' encoding='UTF-8'?>", '<osm version="0.6">',
                      *node_lines, *way_lines, "</osm>", ""])
    (out_dir / "city.osm").write_text(text, encoding="utf-8")
    _write_fixture(out_dir, fixture)
    return {"road_ways": len(classes), "road_nodes": road_nodes,
            "last_road_node": 1000 + road_nodes, "segments": segments, "fail_once": 0}


# --- small extract: fetch-interrupted --------------------------------------

SMALL_WAYS = 1000
FAIL_ONCE_POINTS = 10           # 1% of the plan answers 503 once


def small_extract(seed: int, out_dir: Path) -> dict:
    """1,000 two-node ways, each shorter than the 500 m target.

    Every way is one segment whose start is its first node, so a plan of
    all 1,000 segments queries exactly the fixture's locations: 246 OK,
    the rest ZERO_RESULTS, and 10 of them 503 once.
    Returns the designed counts, as ``large_extract`` does, and the OK count.
    """
    rng = random.Random(f"small:{seed}")
    classes = [SAMPLED_CLASSES[i % 4] for i in range(SMALL_WAYS)]
    rng.shuffle(classes)
    ok = set(rng.sample(range(SMALL_WAYS), OK_SHARE))
    fail_once = set(rng.sample(range(SMALL_WAYS), FAIL_ONCE_POINTS))
    nodes, ways, fixture, seen = [], [], {}, set()
    for w in range(SMALL_WAYS):
        while True:
            lat, lon = _inside_box(rng)
            key = loc(lat, lon)
            if key not in seen:
                seen.add(key)
                break
        lat2, lon2 = _step(lat, lon, 100.0 + rng.random() * 350.0, rng.random() * 2 * math.pi)
        a, b = 2 * w + 1, 2 * w + 2
        nodes.append(f'  <node id="{a}" lat="{lat:.7f}" lon="{lon:.7f}"/>')
        nodes.append(f'  <node id="{b}" lat="{lat2:.7f}" lon="{lon2:.7f}"/>')
        ways.append(f'  <way id="{10_000 + w}">\n    <nd ref="{a}"/>\n    <nd ref="{b}"/>\n'
                    f'    <tag k="highway" v="{classes[w]}"/>\n  </way>')
        entry = _ok_entry(w) if w in ok else {"status": "ZERO_RESULTS"}
        if w in fail_once:
            entry["fail_once"] = True
        fixture[key] = entry
    text = "\n".join(["<?xml version='1.0' encoding='UTF-8'?>", '<osm version="0.6">',
                      *nodes, *ways, "</osm>", ""])
    (out_dir / "city.osm").write_text(text, encoding="utf-8")
    _write_fixture(out_dir, fixture)
    return {"road_ways": SMALL_WAYS, "road_nodes": 2 * SMALL_WAYS,
            "last_road_node": 2 * SMALL_WAYS, "segments": SMALL_WAYS,
            "ok_points": OK_SHARE, "fail_once": len(fail_once)}


def _write_fixture(out_dir: Path, locations: dict) -> None:
    doc = {"default_status": "ZERO_RESULTS", "locations": locations}
    (out_dir / "fixture.json").write_text(json.dumps(doc), encoding="utf-8")


# --- analysis inputs --------------------------------------------------------

ANALYSIS_SEGMENTS = 12_000
GRID = 40                       # GRID x GRID tracts
GOOD_WORKERS = 30
BAD_WORKERS = 3
LABEL_HEADER = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
                "Answer.markings_present,Answer.markings_clear,Answer.litter,"
                "Answer.sidewalk")
PLAN_HEADER = ("segment_id,way_id,index,start_lat,start_lon,end_lat,end_lon,"
               "length_m,highway_class,city,sample_rank")


def _ring(lat0: float, lon0: float, lat1: float, lon1: float) -> list[list[float]]:
    # GeoJSON order: [lon, lat], closed
    return [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]


def analysis_inputs(seed: int, out_dir: Path) -> dict:
    """Plan, label batch and tract grid for the labels and regress commands.

    Each segment gets three truthful workers, one of whom may flip a binary
    answer, and sometimes one of three workers who always answer the
    opposite; those three fall below the agreement threshold. Excluding
    them, every consensus verdict equals the designed truth, so the
    regression has an exact oracle. One tract in ten has a square hole
    whose island belongs, as a second polygon, to its eastern neighbour.
    """
    rng = random.Random(f"analysis:{seed}")
    cell = SPAN / GRID
    incomes = [round(4000.0 + 30000.0 * rng.random(), 2) + 0.001 * t
               for t in range(GRID * GRID)]
    holed = set(rng.sample(range(GRID * GRID), GRID * GRID // 10))
    islands: dict[int, list[tuple[float, float, float, float]]] = {}
    features = []
    for t in range(GRID * GRID):
        r, c = divmod(t, GRID)
        lat0, lon0 = LAT0 + r * cell, LON0 + c * cell
        own = [_ring(lat0, lon0, lat0 + cell, lon0 + cell)]
        if t in holed:
            box = (lat0 + cell / 3, lon0 + cell / 3, lat0 + 2 * cell / 3, lon0 + 2 * cell / 3)
            own.append(_ring(*box))
            owner = t + 1 if c + 1 < GRID else t - 1
            islands.setdefault(owner, []).append(box)
        features.append((t, own))
    docs = []
    for t, own in features:
        if t in islands:
            geometry = {"type": "MultiPolygon",
                        "coordinates": [own] + [[_ring(*b)] for b in islands[t]]}
        else:
            geometry = {"type": "Polygon", "coordinates": own}
        docs.append({"type": "Feature", "geometry": geometry,
                     "properties": {"tract_id": f"T{t:04d}", "per_capita_income": incomes[t]}})
    (out_dir / "tracts.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": docs}), encoding="utf-8")

    classes = [SAMPLED_CLASSES[i % 4] for i in range(ANALYSIS_SEGMENTS)]
    rng.shuffle(classes)
    plan_rows, segments = [PLAN_HEADER], []
    for s in range(ANALYSIS_SEGMENTS):
        t = rng.randrange(GRID * GRID)
        r, c = divmod(t, GRID)
        m = cell * 0.02         # keep points off every edge
        in_island = t in islands and rng.random() < 0.3
        if in_island:
            box = rng.choice(islands[t])
        else:
            box = (LAT0 + r * cell, LON0 + c * cell, LAT0 + (r + 1) * cell, LON0 + (c + 1) * cell)
        hole = (box[0] + cell / 3 - m, box[1] + cell / 3 - m,
                box[0] + 2 * cell / 3 + m, box[1] + 2 * cell / 3 + m)
        while True:
            lat = box[0] + m + rng.random() * (box[2] - box[0] - 2 * m)
            lon = box[1] + m + rng.random() * (box[3] - box[1] - 2 * m)
            if in_island or t not in holed or not (hole[0] <= lat <= hole[2]
                                                   and hole[1] <= lon <= hole[3]):
                break
        seg_id = f"{20_000 + s}#0"
        cls = classes[s]
        p = 0.08 + 0.06 * SAMPLED_CLASSES.index(cls) + 0.2 * (incomes[t] < 12000.0)
        truth = {
            "potholes": "yes" if rng.random() < p else "no",
            "cracks": "yes" if rng.random() < 0.4 else "no",
            "markings_present": "yes" if rng.random() < 0.9 else "no",
            "litter": "yes" if rng.random() < 0.15 else "no",
            "sidewalk": rng.choice(("yes", "no", "nosidewalk")),
        }
        truth["markings_clear"] = (("yes" if rng.random() < 0.6 else "no")
                                   if truth["markings_present"] == "yes" else "na")
        plan_rows.append(f"{seg_id},{20_000 + s},0,{lat:.7f},{lon:.7f},{lat + 0.001:.7f},"
                         f"{lon:.7f},111.195,{cls},{CITY},{s}")
        segments.append({"segment_id": seg_id, "road_class": cls,
                         "income": incomes[t], "truth": truth})
    (out_dir / "plan.csv").write_text("\n".join(plan_rows) + "\n", encoding="utf-8")

    label_rows = []
    for seg in segments:
        truth = seg["truth"]
        workers = [f"G{w:03d}" for w in rng.sample(range(GOOD_WORKERS), 3)]
        answers = [dict(truth) for _ in workers]
        for attr in ("potholes", "cracks", "litter"):
            if rng.random() < 0.15:
                a = answers[rng.randrange(3)]
                a[attr] = "no" if truth[attr] == "yes" else "yes"
        if rng.random() < 0.3:
            workers.append(f"B{rng.randrange(BAD_WORKERS)}")
            answers.append(_opposite(truth))
        for worker, a in zip(workers, answers):
            label_rows.append(",".join([
                f"A{len(label_rows):07d}", worker, seg["segment_id"], a["potholes"],
                a["cracks"], a["markings_present"], a["markings_clear"], a["litter"],
                a["sidewalk"]]))
    rng.shuffle(label_rows)
    (out_dir / "batch.csv").write_text("\n".join([LABEL_HEADER, *label_rows]) + "\n",
                                       encoding="utf-8")
    return {"segments": segments, "label_rows": len(label_rows)}


def _opposite(truth: dict) -> dict:
    flip = {"yes": "no", "no": "yes", "nosidewalk": "yes"}
    out = {a: flip[truth[a]] for a in ("potholes", "cracks", "markings_present",
                                       "litter", "sidewalk")}
    out["markings_clear"] = "na" if out["markings_present"] == "no" else "no"
    return out
