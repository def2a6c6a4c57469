"""The records a command holds one of per node, way, segment, point, query or
label: slotted, so that none carries a per-instance ``__dict__``, still frozen
and hashed by value, and small per row when a table is read back."""

import dataclasses
import random
import tracemalloc

import pytest

from roadsense.geometry import GeoPoint, Polyline
from roadsense.labeling import ATTRIBUTES, ConsensusLabel, read_consensus_csv, write_consensus_csv
from roadsense.osm_ingest import Way
from roadsense.segmenter import RoadSegment, read_segments_csv, write_plan_csv
from roadsense.streetview import QueryRecord

A, B = GeoPoint(42.33, -83.05), GeoPoint(42.331, -83.05)
VERDICTS = ("yes", "no", "yes", "unresolved", "no", "yes")

# each builds a fresh record, equal to the one built before
RECORDS = {
    "GeoPoint": lambda: GeoPoint(42.33, -83.05),
    "Polyline": lambda: Polyline([A, B]),
    "Way": lambda: Way(7, (1, 2), "primary", "Woodward Avenue"),
    "RoadSegment": lambda: RoadSegment("7#0", 7, 0, A, B, 111.2, "primary", "wayne"),
    "QueryRecord": lambda: QueryRecord("7#0", A, "OK", "p1", "2017-05", "images/7#0.jpg",
                                       "2026-01-01T00:00:00Z"),
    "ConsensusLabel": lambda: ConsensusLabel("7#0", tuple(VERDICTS), 3),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_slotted_frozen_and_compares_by_value(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert not hasattr(record, "__dict__")
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(twin, field))
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)


N_ROWS = 5_000
CLASSES = ("trunk", "primary", "secondary", "tertiary")


def retained_per_row(read, path) -> float:
    tracemalloc.start()
    try:
        rows = read(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == N_ROWS
    return retained / N_ROWS


def test_plan_rows_retain_under_500_bytes_each(tmp_path):
    # regress reads the whole plan: a slotted segment, its two slotted points and
    # interned class and city strings come to about 420 bytes a row
    rng = random.Random(3)
    segments = []
    for i in range(N_ROWS):
        start = GeoPoint(42.3 + 0.1 * rng.random(), -83.1 + 0.1 * rng.random())
        end = GeoPoint(start.lat + 0.001, start.lon)
        segments.append(RoadSegment(f"{1000 + i}#0", 1000 + i, 0, start, end, 111.2,
                                    CLASSES[i % 4], "wayne"))
    write_plan_csv(segments, tmp_path / "plan.csv")
    assert retained_per_row(read_segments_csv, tmp_path / "plan.csv") < 500


def test_consensus_rows_retain_under_250_bytes_each(tmp_path):
    # a tuple of six verdicts, each one of four interned tokens, beside a
    # slotted record: about 210 bytes a row
    rng = random.Random(3)
    labels = [ConsensusLabel(f"{1000 + i}#0",
                             tuple(rng.choice(("yes", "no", "unresolved")) for _ in ATTRIBUTES), 3)
              for i in range(N_ROWS)]
    write_consensus_csv(labels, tmp_path / "consensus.csv")
    assert retained_per_row(read_consensus_csv, tmp_path / "consensus.csv") < 250
