"""Independent reference computations shared by the test modules.

These deliberately avoid the library's own code paths: distance via the
3D arccos formula, containment via winding numbers, and least squares via
hand-rolled Gauss-Jordan on the normal equations or via scipy's
column-pivoted QR.

The last section holds helpers that only tests use and that do build on
the library: an OSM XML writer, the network.ndjson writer that passed
every record through json.dumps, a walk along a polyline, the linear scan
that joined points to tracts before the tracts were grid-indexed, and the
label consensus that deduped, grouped and tallied the records again for
each of score_workers and aggregate before they shared one tally.
"""

import json
import logging
import math
from xml.sax.saxutils import quoteattr

from roadsense.geometry import GeoPoint, Polyline, interpolate, point_in_polygon
from roadsense.labeling import (
    ATTRIBUTES,
    DEFAULT_AGREEMENT_THRESHOLD,
    MIN_SCORED_OVERLAP,
    ConsensusLabel,
    WorkerScore,
)
from roadsense.osm_ingest import RoadNetwork

EARTH_RADIUS_M = 6_371_000.0


def arc_distance_m(lat1, lon1, lat2, lon2):
    """Great-circle distance from the dot product of unit vectors."""
    def xyz(lat, lon):
        la, lo = math.radians(lat), math.radians(lon)
        return (math.cos(la) * math.cos(lo), math.cos(la) * math.sin(lo), math.sin(la))
    a, b = xyz(lat1, lon1), xyz(lat2, lon2)
    dot = max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b))))
    return EARTH_RADIUS_M * math.acos(dot)


def polyline_length_m(points):
    return sum(arc_distance_m(points[i].lat, points[i].lon,
                              points[i + 1].lat, points[i + 1].lon)
               for i in range(len(points) - 1))


def equator_lon_for_meters(meters):
    """Longitude span (degrees) of an equatorial arc of the given length."""
    return meters * 180.0 / (math.pi * EARTH_RADIUS_M)


def gauss_jordan_inverse(matrix):
    """Invert a small dense matrix with plain lists; raises on singular."""
    n = len(matrix)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) < 1e-12:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0.0:
                factor = aug[r][col]
                aug[r] = [rv - factor * cv for rv, cv in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def normal_equations_ols(design_rows, response):
    """(coefficients, standard errors, r_squared) via (X'X)^-1 X'y."""
    n = len(design_rows)
    k = len(design_rows[0])
    xtx = [[sum(design_rows[r][i] * design_rows[r][j] for r in range(n))
            for j in range(k)] for i in range(k)]
    xty = [sum(design_rows[r][i] * response[r] for r in range(n)) for i in range(k)]
    inv = gauss_jordan_inverse(xtx)
    beta = [sum(inv[i][j] * xty[j] for j in range(k)) for i in range(k)]
    fitted = [sum(design_rows[r][j] * beta[j] for j in range(k)) for r in range(n)]
    rss = sum((response[r] - fitted[r]) ** 2 for r in range(n))
    sigma2 = rss / (n - k)
    ses = [math.sqrt(sigma2 * inv[i][i]) for i in range(k)]
    mean = sum(response) / n
    tss = sum((y - mean) ** 2 for y in response)
    r2 = 0.0 if tss <= 0.0 else 1.0 - rss / tss
    return beta, ses, r2


def scipy_qr_ols(design, response, robust=False):
    """(coefficients, standard errors, r_squared) via scipy's column-pivoted
    QR, with classical or HC1 errors; None when a pivot falls below 1e-10
    times the largest (rank deficient). numpy and scipy are imported here, so
    that the modules using the other oracles run without them."""
    import numpy as np
    from scipy import linalg

    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, k = x.shape
    q, r, pivot = linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.max() == 0.0 or np.any(diag < 1e-10 * diag.max()):
        return None
    beta = np.empty(k)
    beta[pivot] = linalg.solve_triangular(r, q.T @ y)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)
    rinv = linalg.solve_triangular(r, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(pivot, pivot)] = rinv @ rinv.T
    if robust:
        meat = (x * (residuals ** 2)[:, None]).T @ x
        cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
    else:
        cov = xtx_inv * rss / (n - k)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if tss <= 1e-12 * (float(y @ y) + 1.0) else 1.0 - rss / tss
    return beta, np.sqrt(np.diag(cov)), r2


# --- test-only helpers built on the library ---------------------------------

def to_osm_xml(network: RoadNetwork) -> str:
    """Serialize to the OSM XML subset that parse_osm reads.

    Coordinates are written with repr(), the shortest decimal string that
    round-trips the float, so parse(to_osm_xml(n)) == n.
    """
    out = ["<?xml version='1.0' encoding='UTF-8'?>", "<osm version=\"0.6\">"]
    for nid in network.nodes:
        p = network.nodes[nid]
        out.append(f'  <node id="{nid}" lat="{p.lat!r}" lon="{p.lon!r}"/>')
    for way in network.ways:
        out.append(f'  <way id="{way.id}">')
        for ref in way.node_ids:
            out.append(f'    <nd ref="{ref}"/>')
        out.append(f'    <tag k="highway" v={quoteattr(way.highway_class)}/>')
        if way.name is not None:
            out.append(f'    <tag k="name" v={quoteattr(way.name)}/>')
        out.append("  </way>")
    out.append("</osm>")
    return "\n".join(out) + "\n"


def json_dumps_network(network: RoadNetwork) -> str:
    """network.ndjson as written before write_network formatted its lines
    directly: one json.dumps per record."""
    lines = [json.dumps({"type": "meta", "city": network.source_name})]
    for nid in sorted(network.nodes):
        p = network.nodes[nid]
        lines.append(json.dumps({"type": "node", "id": nid, "lat": p.lat, "lon": p.lon}))
    for w in network.ways:
        lines.append(json.dumps({"type": "way", "id": w.id, "nodes": list(w.node_ids),
                                 "highway": w.highway_class, "name": w.name}))
    return "".join(line + "\n" for line in lines)


def point_along(line: Polyline, distance_m: float) -> GeoPoint:
    """The point reached by walking ``distance_m`` from the first vertex.

    Raises ValueError when the distance falls outside [0, length] by more
    than a 1e-6 m slack.
    """
    edges = line.edge_lengths_m()
    total = sum(edges)
    if distance_m < -1e-6 or distance_m > total + 1e-6:
        raise ValueError(
            f"distance {distance_m} m outside polyline of length {total} m")
    if distance_m <= 0.0:
        return line.points[0]
    remaining = distance_m
    for i, edge in enumerate(edges):
        if remaining <= edge:
            if edge == 0.0:
                return line.points[i]
            return interpolate(line.points[i], line.points[i + 1], remaining / edge)
        remaining -= edge
    return line.points[-1]


def linear_join_income(points, tracts):
    """(matches, unmatched, multi) by testing every tract's box for every
    point: the reference for analysis.join_income, whose (matches,
    unmatched) it returns, along with the number of points that fell in
    more than one tract."""
    boxes = [t.bounds() for t in tracts]
    matches = []
    unmatched = []
    multi = 0
    for segment_id, p in points:
        containing = []
        for t, box in zip(tracts, boxes):
            if not (box[0] <= p.lat <= box[2] and box[1] <= p.lon <= box[3]):
                continue
            if any(point_in_polygon(p, shape) for shape in t.shapes):
                containing.append(t)
        if not containing:
            unmatched.append(segment_id)
            continue
        if len(containing) > 1:
            multi += 1
        chosen = containing[0]
        matches.append((segment_id, chosen.tract_id, chosen.per_capita_income))
    return matches, unmatched, multi


# logs under the library's logger name, so that its records compare equal
label_log = logging.getLogger("roadsense.labeling")


def dedupe_labels(records):
    seen = set()
    out = []
    for r in records:
        if r.assignment_id in seen:
            continue
        seen.add(r.assignment_id)
        out.append(r)
    return out


def tally_attribute(records, attribute):
    """Strict-majority verdict for one attribute over a segment's records.

    markings_clear is tallied only among workers who said markings are
    present; nobody said so -> na. nosidewalk counts as an unpaved
    sidewalk.
    """
    counts = {"yes": 0, "no": 0}
    for r in records:
        if attribute == "markings_clear":
            if r.markings_present != "yes":
                continue
            answer = r.markings_clear
        else:
            answer = getattr(r, attribute)
            if attribute == "sidewalk_paved" and answer == "nosidewalk":
                answer = "no"
        counts[answer] += 1
    total = counts["yes"] + counts["no"]
    if total == 0:
        return "na" if attribute == "markings_clear" else "unresolved"
    if counts["yes"] * 2 > total:
        return "yes"
    if counts["no"] * 2 > total:
        return "no"
    return "unresolved"


def aggregate_labels(records, excluding=frozenset()):
    """labeling.aggregate over records, recounting every segment."""
    deduped = dedupe_labels(records)
    by_segment = {}
    for r in deduped:
        if r.worker_id in excluding:
            continue
        by_segment.setdefault(r.segment_id, []).append(r)

    all_segments = {r.segment_id for r in deduped}
    n_omitted = len(all_segments - set(by_segment))
    if n_omitted:
        label_log.warning("aggregate: %d segments lost all labels after exclusion",
                          n_omitted)

    out = []
    for segment_id in sorted(by_segment):
        recs = by_segment[segment_id]
        verdicts = tuple(tally_attribute(recs, attr) for attr in ATTRIBUTES)
        out.append(ConsensusLabel(segment_id=segment_id, verdicts=verdicts,
                                  n_workers=len({r.worker_id for r in recs})))
    return out


def score_label_workers(records, threshold=DEFAULT_AGREEMENT_THRESHOLD):
    """labeling.score_workers over records, recounting every segment."""
    records = dedupe_labels(records)
    by_segment = {}
    for r in records:
        by_segment.setdefault(r.segment_id, []).append(r)
    consensus = {seg: {attr: tally_attribute(recs, attr) for attr in ATTRIBUTES}
                 for seg, recs in by_segment.items()}

    if records and max(len({r.worker_id for r in recs})
                       for recs in by_segment.values()) <= 1:
        label_log.warning("score_workers: every segment has a single worker; "
                          "quality control is inert (all agreements are 1.0)")

    matched = {}
    scored = {}
    for r in records:
        verdicts = consensus[r.segment_id]
        for attr in ATTRIBUTES:
            verdict = verdicts[attr]
            if verdict == "unresolved":
                continue
            if attr == "markings_clear":
                answer = r.markings_clear
                if verdict == "na" and r.markings_present != "yes":
                    continue
            else:
                answer = getattr(r, attr)
                if attr == "sidewalk_paved" and answer == "nosidewalk":
                    answer = "no"
            scored[r.worker_id] = scored.get(r.worker_id, 0) + 1
            if answer == verdict:
                matched[r.worker_id] = matched.get(r.worker_id, 0) + 1

    out = []
    for worker_id in sorted({r.worker_id for r in records}):
        n = scored.get(worker_id, 0)
        agreement = matched.get(worker_id, 0) / n if n else 1.0
        flagged = agreement < threshold and n >= MIN_SCORED_OVERLAP
        out.append(WorkerScore(worker_id=worker_id, n_labels=n,
                               agreement=agreement, flagged=flagged))
    return out
