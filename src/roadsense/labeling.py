"""Ingest crowdsourced label batches, score worker quality, and aggregate
per-segment consensus verdicts for the six condition attributes.

Input follows the MTurk results-file convention: one row per assignment
with Answer.* columns. Worker quality control is a consensus-agreement
score; it replaces a manual spot check with a reproducible rule and
degenerates to a no-op when every image has a single worker (nobody to
compare against).
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .fileio import read_table, write_table

log = logging.getLogger(__name__)

ATTRIBUTES = ("potholes", "cracks", "markings_present", "markings_clear",
              "litter", "sidewalk_paved")

REQUIRED_COLUMNS = (
    "AssignmentId", "WorkerId", "Input.segment_id",
    "Answer.potholes", "Answer.cracks", "Answer.markings_present",
    "Answer.markings_clear", "Answer.litter", "Answer.sidewalk",
)

_BINARY = frozenset({"yes", "no"})
_ALLOWED = {
    "potholes": _BINARY,
    "cracks": _BINARY,
    "markings_present": _BINARY,
    "markings_clear": frozenset({"yes", "no", "na"}),
    "litter": _BINARY,
    "sidewalk_paved": frozenset({"yes", "no", "nosidewalk"}),
}

DEFAULT_AGREEMENT_THRESHOLD = 0.6
MIN_SCORED_OVERLAP = 10

CONSENSUS_CSV_HEADER = ("segment_id,potholes,cracks,markings_present,"
                        "markings_clear,litter,sidewalk_paved,n_workers")


@dataclass(frozen=True)
class LabelRecord:
    assignment_id: str
    worker_id: str
    segment_id: str
    potholes: str
    cracks: str
    markings_present: str
    markings_clear: str  # "na" when markings_present == "no"
    litter: str
    sidewalk_paved: str

    def answer(self, attribute: str) -> str:
        return getattr(self, attribute)


@dataclass(frozen=True)
class WorkerScore:
    worker_id: str
    n_labels: int       # scored (attribute, segment) answers
    agreement: float
    flagged: bool


@dataclass(frozen=True)
class ConsensusLabel:
    segment_id: str
    verdicts: dict      # attribute -> yes | no | unresolved | na
    n_workers: int

    def verdict(self, attribute: str) -> str:
        return self.verdicts[attribute]


def _answer(allowed: frozenset, raw: str) -> str:
    token = raw.strip().lower()
    if token not in allowed:
        raise ValueError(f"unrecognized answer {raw!r}")
    return token


# LabelRecord lists its fields in the order of the batch columns
_LABEL_COLUMNS = dict(zip(REQUIRED_COLUMNS, (str.strip,) * 3
                          + tuple(partial(_answer, _ALLOWED[a]) for a in ATTRIBUTES)))


def _label_record(*values: str) -> LabelRecord:
    record = LabelRecord(*values)
    if record.markings_present == "yes" and record.markings_clear == "na":
        raise ValueError("column Answer.markings_clear: 'na' is not an answer "
                         "when Answer.markings_present is yes")
    return record


def parse_labels(csv_bytes: bytes | str, name: str = "label batch") -> list[LabelRecord]:
    """Parse an MTurk-style results CSV into normalized label records.

    Answer tokens are case-insensitive {yes, no, na, nosidewalk}. A
    markings_clear answer on a row that says markings_present = no is
    coerced to na (counted and logged): the question was not applicable.
    A markings_clear of na on a row that says markings_present = yes is a
    RowError. ``name`` names the batch in error messages.
    """
    if isinstance(csv_bytes, bytes):
        text = io.TextIOWrapper(io.BytesIO(csv_bytes), encoding="utf-8-sig", newline="")
    else:
        text = io.StringIO(csv_bytes, newline="")
    records = read_table(text, _LABEL_COLUMNS, _label_record, name)
    coerced = [i for i, r in enumerate(records)
               if r.markings_present == "no" and r.markings_clear != "na"]
    for i in coerced:
        records[i] = replace(records[i], markings_clear="na")
    if coerced:
        log.warning("parse_labels: coerced markings_clear to na on %d rows "
                    "where markings_present was no", len(coerced))
    return records


def _dedupe(records: list[LabelRecord]) -> list[LabelRecord]:
    seen: set[str] = set()
    out = []
    for r in records:
        if r.assignment_id in seen:
            continue
        seen.add(r.assignment_id)
        out.append(r)
    return out


def _tally(records: list[LabelRecord], attribute: str) -> str:
    """Strict-majority verdict for one attribute over a segment's records.

    markings_clear is tallied only among workers who said markings are
    present; nobody said so -> na. nosidewalk counts as an unpaved
    sidewalk, matching the single paved-sidewalk proportion reported
    downstream.
    """
    counts = {"yes": 0, "no": 0}
    for r in records:
        if attribute == "markings_clear":
            if r.markings_present != "yes":
                continue
            answer = r.markings_clear
        else:
            answer = r.answer(attribute)
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


def aggregate(records: list[LabelRecord],
              excluding: set[str] | frozenset[str] = frozenset()) -> list[ConsensusLabel]:
    """Per-segment strict-majority verdicts among non-excluded workers.

    Exact ties are unresolved. Duplicate assignment ids are collapsed
    first. Segments left with no labels after exclusion are omitted (with
    a logged count). Output is sorted by segment_id for determinism.
    """
    deduped = _dedupe(records)
    by_segment: dict[str, list[LabelRecord]] = {}
    for r in deduped:
        if r.worker_id in excluding:
            continue
        by_segment.setdefault(r.segment_id, []).append(r)

    all_segments = {r.segment_id for r in deduped}
    n_omitted = len(all_segments - set(by_segment))
    if n_omitted:
        log.warning("aggregate: %d segments lost all labels after exclusion",
                    n_omitted)

    out = []
    for segment_id in sorted(by_segment):
        recs = by_segment[segment_id]
        verdicts = {attr: _tally(recs, attr) for attr in ATTRIBUTES}
        out.append(ConsensusLabel(segment_id=segment_id, verdicts=verdicts,
                                  n_workers=len({r.worker_id for r in recs})))
    return out


def score_workers(records: list[LabelRecord],
                  threshold: float = DEFAULT_AGREEMENT_THRESHOLD) -> list[WorkerScore]:
    """Score each worker's agreement with the provisional consensus.

    The provisional consensus is the majority over all workers; a worker's
    agreement is the fraction of their (attribute, segment) answers that
    match it, counted only where the consensus resolves. Workers below the
    threshold with at least MIN_SCORED_OVERLAP scored answers are flagged.
    """
    records = _dedupe(records)
    by_segment: dict[str, list[LabelRecord]] = {}
    for r in records:
        by_segment.setdefault(r.segment_id, []).append(r)
    consensus = {seg: {attr: _tally(recs, attr) for attr in ATTRIBUTES}
                 for seg, recs in by_segment.items()}

    if records and max(len({r.worker_id for r in recs})
                       for recs in by_segment.values()) <= 1:
        log.warning("score_workers: every segment has a single worker; "
                    "quality control is inert (all agreements are 1.0)")

    matched: dict[str, int] = {}
    scored: dict[str, int] = {}
    for r in records:
        verdicts = consensus[r.segment_id]
        for attr in ATTRIBUTES:
            verdict = verdicts[attr]
            if verdict == "unresolved":
                continue
            if attr == "markings_clear":
                answer = r.markings_clear
                if verdict == "na" and r.markings_present != "yes":
                    # question not applicable for this worker either
                    continue
            else:
                answer = r.answer(attr)
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


def flagged_workers(scores: list[WorkerScore]) -> set[str]:
    return {s.worker_id for s in scores if s.flagged}


def write_consensus_csv(labels: list[ConsensusLabel], path: str | Path) -> None:
    write_table(path, CONSENSUS_CSV_HEADER.split(","),
                ([c.segment_id, *(c.verdicts[a] for a in ATTRIBUTES), c.n_workers]
                 for c in labels))


def _consensus(segment_id, *values) -> ConsensusLabel:
    # values are the verdicts in ATTRIBUTES order, then n_workers
    return ConsensusLabel(segment_id, dict(zip(ATTRIBUTES, values)), values[-1])


def read_consensus_csv(path: str | Path) -> list[ConsensusLabel]:
    return read_table(path, dict.fromkeys(CONSENSUS_CSV_HEADER.split(","), str)
                      | {"n_workers": int}, _consensus)
