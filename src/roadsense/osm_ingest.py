"""Parse OpenStreetMap XML extracts into an in-memory road network.

Only the XML subset matters here: <node id lat lon>, <way id>, <nd ref>
and <tag k v>. Ways carrying a highway tag (any value) become road
polylines and keep the nodes they reference; everything else (other
nodes, relations, untagged ways, changesets) is ignored. The binary PBF
format is out of scope.
"""

from __future__ import annotations

import json
import logging
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from xml.parsers import expat

from .errors import InputDataError
from .fileio import atomic_open, json_field, parse_json
from .geometry import GeoPoint, check_coordinate

log = logging.getLogger(__name__)

# The road classes the sampling frame focuses on. Any other highway tag
# value is kept in the network but treated as an "other" class.
SAMPLED_ROAD_CLASSES = frozenset({"trunk", "primary", "secondary", "tertiary"})


@dataclass(frozen=True, slots=True)
class Way:
    id: int
    node_ids: tuple[int, ...]
    highway_class: str  # raw highway tag value; the four named classes are special
    name: str | None = None

    def __post_init__(self):
        if len(self.node_ids) < 2:
            raise InputDataError(f"way {self.id} has fewer than 2 node references")


@dataclass
class RoadNetwork:
    """What network.ndjson holds: the kept nodes, the road ways and the city."""
    nodes: dict[int, GeoPoint]
    ways: list[Way]
    source_name: str = ""

    def way_points(self, way: Way) -> list[GeoPoint]:
        return [self.nodes[nid] for nid in way.node_ids]


def parse_osm(path: str | Path, source_name: str = "") -> RoadNetwork:
    """Parse the OSM XML document at path, streamed, into a RoadNetwork.

    Every node is checked, but only the nodes that a highway=* way
    references are kept, in document order; until the ways are known all
    coordinates sit in compact arrays. Duplicate node ids follow
    last-definition-wins; a warning counts them over all nodes. A way
    referencing a node id absent from the document, or a highway way that
    repeats an earlier one's id, raises an InputDataError.
    """
    ids, lats, lons = array("q"), array("d"), array("d")
    ways: list[Way] = []
    way_ids: set[int] = set()
    open_nodes: list[dict] = []
    open_ways: list[tuple[dict, list, dict]] = []  # (attrs, nd refs, tags)

    def start(name, attrs):
        if name == "node":
            open_nodes.append(attrs)
        elif name == "way":
            open_ways.append((attrs, [], {}))
        elif name == "nd" and open_ways:
            open_ways[-1][1].append(attrs.get("ref"))
        elif name == "tag" and open_ways:
            open_ways[-1][2][attrs.get("k")] = attrs.get("v", "")

    def end(name):  # checked on close, so a truncated element is malformed XML
        if name == "node":
            attrs = open_nodes.pop()
            try:
                nid, lat, lon = int(attrs["id"]), float(attrs["lat"]), float(attrs["lon"])
                ids.append(nid)
            except (KeyError, ValueError, OverflowError) as e:
                raise InputDataError(f"node element missing/invalid id/lat/lon: {e}") from e
            try:
                check_coordinate(lat, lon)
            except ValueError as e:
                raise InputDataError(f"node {nid}: {e}") from e
            lats.append(lat)
            lons.append(lon)
        elif name == "way":
            attrs, refs, tags = open_ways.pop()
            highway = tags.get("highway")
            if highway is None:
                return
            try:
                wid = int(attrs["id"])
                node_ids = tuple(int(ref) for ref in refs)
            except (KeyError, ValueError, TypeError) as e:
                raise InputDataError(f"way element missing/invalid id or nd ref: {e}") from e
            if wid in way_ids:
                raise InputDataError(f"way {wid}: repeats the id of an earlier highway way")
            way_ids.add(wid)
            ways.append(Way(id=wid, node_ids=node_ids, highway_class=highway,
                            name=tags.get("name")))

    parser = expat.ParserCreate(namespace_separator="}")  # rejects undeclared prefixes
    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        with open(path, "rb") as f:
            parser.ParseFile(f)
    except expat.ExpatError as e:
        raise InputDataError(f"malformed OSM XML at line {e.lineno}, "
                             f"column {e.offset}: {e}") from e
    except LookupError as e:  # the XML declaration names an encoding Python lacks
        raise InputDataError(f"malformed OSM XML at line {parser.CurrentLineNumber}: "
                             f"{e}") from e
    except InputDataError as e:  # raised by a handler, which does not know the line
        raise InputDataError(f"line {parser.CurrentLineNumber}: {e}") from e

    referenced = {nid for way in ways for nid in way.node_ids}
    nodes: dict[int, GeoPoint] = {}
    for i, nid in enumerate(ids):
        if nid in referenced:
            nodes[nid] = GeoPoint(lats[i], lons[i])
    network = _check_node_refs(RoadNetwork(nodes=nodes, ways=ways, source_name=source_name),
                               "the document")

    # extracts list nodes by ascending id, which rules duplicates out
    # without a set of every id
    if (not all(a < b for a, b in zip(ids, islice(ids, 1, None)))
            and (duplicates := len(ids) - len(set(ids)))):
        log.warning("parse_osm: %d duplicate node ids (last definition wins)", duplicates)
    return network


def _check_node_refs(network: RoadNetwork, source: str | Path) -> RoadNetwork:
    """network, or an InputDataError for the first node reference it lacks."""
    for way in network.ways:
        for nid in way.node_ids:
            if nid not in network.nodes:
                raise InputDataError(f"way {way.id} references node {nid} absent from {source}")
    return network


def filter_roads(network: RoadNetwork, classes: set[str]) -> list[Way]:
    """Ways whose highway class is in ``classes``, in input order."""
    return [w for w in network.ways if w.highway_class in classes]


# --- newline-delimited intermediate format -------------------------------
#
# One JSON record per line:
#   {"type": "meta", "city": <source_name>}
#   {"type": "node", "id": <int>, "lat": <float>, "lon": <float>}
#   {"type": "way", "id": <int>, "nodes": [<int>...], "highway": <str>,
#    "name": <str or null>}

_WRITE_BATCH = 4096  # lines per write call


def _network_lines(network: RoadNetwork):
    # json.dumps's own text for these records, formatted directly: ints by
    # str, floats by repr (as json does), strings and None through json.dumps
    dumps = json.dumps
    yield dumps({"type": "meta", "city": network.source_name}) + "\n"
    nodes = network.nodes
    for nid in sorted(nodes):
        p = nodes[nid]
        yield f'{{"type": "node", "id": {nid}, "lat": {p.lat!r}, "lon": {p.lon!r}}}\n'
    for w in network.ways:
        yield (f'{{"type": "way", "id": {w.id}, "nodes": [{", ".join(map(str, w.node_ids))}], '
               f'"highway": {dumps(w.highway_class)}, "name": {dumps(w.name)}}}\n')


def write_network(network: RoadNetwork, path: str | Path) -> None:
    lines = _network_lines(network)
    with atomic_open(path) as f:
        while batch := "".join(islice(lines, _WRITE_BATCH)):
            f.write(batch)


def read_network(path: str | Path) -> RoadNetwork:
    """Read a network file back. A bad record raises an InputDataError
    subclass naming the file, the line and the field: ids and node refs
    are integers, lat/lon numbers, highway and city strings, name a string
    or null, and no way id repeats."""
    nodes: dict[int, GeoPoint] = {}
    ways: list[Way] = []
    way_ids: set[int] = set()
    source_name = ""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            rec = parse_json(raw, path, lineno)
            kind = rec.get("type") if isinstance(rec, dict) else None
            where = f"{path}: line {lineno}: {kind} record: "
            try:
                if kind == "meta":
                    source_name = json_field(rec, "city", "a string", where, default="")
                elif kind == "node":
                    nodes[json_field(rec, "id", "an integer", where)] = GeoPoint(
                        json_field(rec, "lat", "a number", where),
                        json_field(rec, "lon", "a number", where))
                elif kind == "way":
                    refs = json_field(rec, "nodes", "a list of integers", where)
                    if len(refs) < 2:
                        raise InputDataError(f"{where}nodes: holds fewer than 2 node ids")
                    wid = json_field(rec, "id", "an integer", where)
                    if wid in way_ids:
                        raise InputDataError(f"{where}id: {wid} repeats an earlier way's id")
                    way_ids.add(wid)
                    ways.append(Way(
                        id=wid,
                        node_ids=tuple(refs),
                        highway_class=json_field(rec, "highway", "a string", where),
                        name=json_field(rec, "name", "a string or null", where, default=None)))
                else:
                    raise InputDataError(f"{path}: line {lineno}: unknown record type {kind!r}")
            except ValueError as e:  # GeoPoint names the coordinate out of range
                raise InputDataError(f"{where}{e}") from e
    return _check_node_refs(RoadNetwork(nodes=nodes, ways=ways, source_name=source_name), path)
