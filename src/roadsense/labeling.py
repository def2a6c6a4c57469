"""Ingest crowdsourced label batches, score worker quality, and aggregate
per-segment consensus verdicts for the six condition attributes.

Input follows the MTurk results-file convention: one row per assignment
with Answer.* columns. Worker quality control is a consensus-agreement
score; it replaces a manual spot check with a reproducible rule and
degenerates to a no-op when every image has a single worker (nobody to
compare against).
"""

from __future__ import annotations

import logging
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import NamedTuple

from .fileio import read_table, write_table

log = logging.getLogger(__name__)

ATTRIBUTES = ("potholes", "cracks", "markings_present", "markings_clear",
              "litter", "sidewalk_paved")

REQUIRED_COLUMNS = (
    "AssignmentId", "WorkerId", "Input.segment_id",
    "Answer.potholes", "Answer.cracks", "Answer.markings_present",
    "Answer.markings_clear", "Answer.litter", "Answer.sidewalk",
)

# answers a batch may give, and verdicts consensus.csv may hold, per attribute
_ALLOWED = dict.fromkeys(ATTRIBUTES, frozenset({"yes", "no"})) | {
    "markings_clear": frozenset({"yes", "no", "na"}),
    "sidewalk_paved": frozenset({"yes", "no", "nosidewalk"})}
_VERDICTS = dict.fromkeys(ATTRIBUTES, frozenset({"yes", "no", "unresolved"})) | {
    "markings_clear": frozenset({"yes", "no", "unresolved", "na"})}

DEFAULT_AGREEMENT_THRESHOLD = 0.6
MIN_SCORED_OVERLAP = 10

CONSENSUS_CSV_HEADER = ",".join(("segment_id", *ATTRIBUTES, "n_workers"))


class LabelRecord(NamedTuple):
    assignment_id: str
    worker_id: str
    segment_id: str
    potholes: str
    cracks: str
    markings_present: str
    markings_clear: str  # "na" when markings_present == "no"
    litter: str
    sidewalk_paved: str


@dataclass(frozen=True)
class WorkerScore:
    worker_id: str
    n_labels: int       # scored (attribute, segment) answers
    agreement: float
    flagged: bool


@dataclass(frozen=True, slots=True)
class ConsensusLabel:
    segment_id: str
    verdicts: tuple     # yes | no | unresolved | na per attribute, in ATTRIBUTES order
    n_workers: int


# LabelRecord lists its fields in the order of the batch columns; answers stay
# raw, and a worker id, which repeats on each of that worker's rows, is interned
_LABEL_COLUMNS = ({"AssignmentId": str.strip, "WorkerId": lambda v: sys.intern(v.strip()),
                   "Input.segment_id": str.strip}
                  | dict.fromkeys(REQUIRED_COLUMNS[3:], str))


def _answers(cells: tuple[str, ...]) -> tuple[tuple[str, ...], bool]:
    """A row's raw answer cells checked one at a time and normalized, with
    markings_clear coerced to na where markings are absent; and whether it was."""
    answers = []
    for column, attribute, raw in zip(REQUIRED_COLUMNS[3:], ATTRIBUTES, cells):
        token = raw.strip().lower()
        if token not in _ALLOWED[attribute]:
            raise ValueError(f"column {column}: unrecognized answer {raw!r}")
        answers.append(token)
    if answers[2:4] == ["yes", "na"]:
        raise ValueError("column Answer.markings_clear: 'na' is not an answer "
                         "when Answer.markings_present is yes")
    coerced = answers[2] == "no" and answers[3] != "na"
    if coerced:
        answers[3] = "na"
    return tuple(answers), coerced


def parse_labels(path: str | Path) -> list[LabelRecord]:
    """Parse the MTurk-style results CSV at path into normalized label records.

    Answer tokens are case-insensitive {yes, no, na, nosidewalk}. A
    markings_clear answer on a row that says markings_present = no is
    coerced to na (counted and logged): the question was not applicable.
    A markings_clear of na on a row that says markings_present = yes is a
    InputDataError.
    """
    known: dict[tuple[str, ...], tuple] = {}  # raw answer cells -> _answers(cells)
    n_coerced = 0

    def record(assignment_id, worker_id, segment_id, *cells) -> LabelRecord:
        nonlocal n_coerced
        if (answers := known.get(cells)) is None:
            answers = known[cells] = _answers(cells)
        n_coerced += answers[1]
        return LabelRecord(assignment_id, worker_id, segment_id, *answers[0])

    records = read_table(path, _LABEL_COLUMNS, record)
    if n_coerced:
        log.warning("parse_labels: coerced markings_clear to na on %d rows "
                    "where markings_present was no", n_coerced)
    return records


# Yes and no counts packed as the digits of one int, so that votes add up by
# integer addition: attribute i's yes count is digit 2i, its no count 2i + 1.
_BASE = 1 << 32  # no segment holds 2**32 labels


@lru_cache(maxsize=1 << 10)  # 72 distinct normalized answers
def _ballot(answers: tuple[str, ...]) -> int:
    """One row's votes as packed counts. markings_clear votes only where markings
    are present; nosidewalk votes no, as in the paved-sidewalk proportion."""
    return sum(_BASE ** (2 * i + (answer != "yes")) for i, answer in enumerate(answers)
               if ATTRIBUTES[i] != "markings_clear" or answers[2] == "yes")


@lru_cache(maxsize=1 << 14)
def _verdicts(counts: int) -> tuple[tuple[str, ...], int]:
    """Strict-majority verdicts from packed counts, in ATTRIBUTES order, and the
    packed vote of each resolved one, whose digits a row's ballot shares where
    it agrees. Ties and no votes are unresolved; no votes on markings_clear, na."""
    verdicts, resolved = [], 0
    for i, attribute in enumerate(ATTRIBUTES):
        counts, yes = divmod(counts, _BASE)
        counts, no = divmod(counts, _BASE)
        if yes == no:
            verdicts.append("na" if not yes and attribute == "markings_clear" else "unresolved")
        else:
            verdicts.append("yes" if yes > no else "no")
            resolved += _BASE ** (2 * i + (no > yes))
    return tuple(verdicts), resolved


@dataclass(frozen=True)
class LabelTally:
    """A batch's records deduped by assignment id, grouped and counted by segment."""
    rows: dict      # segment_id -> its records, in input order
    counts: dict    # segment_id -> packed yes/no counts over every worker


def tally(records: list[LabelRecord]) -> LabelTally:
    """Dedupe, group and count a batch once, for score_workers and aggregate."""
    seen: set[str] = set()
    rows: dict[str, list[LabelRecord]] = defaultdict(list)
    for r in records:
        if r.assignment_id not in seen:
            seen.add(r.assignment_id)
            rows[r.segment_id].append(r)
    counts = {seg: sum(_ballot(r[3:]) for r in recs) for seg, recs in rows.items()}
    return LabelTally(dict(rows), counts)


def aggregate(labels: LabelTally,
              excluding: set[str] | frozenset[str] = frozenset()) -> list[ConsensusLabel]:
    """Per-segment strict-majority verdicts among non-excluded workers.

    Only segments an excluded worker labeled lose votes; the others keep
    their provisional verdicts. A worker's second assignment on a segment is
    a vote but not another worker. Segments left with no labels are omitted
    (with a logged count). Output is sorted by segment_id for determinism.
    """
    out = []
    n_omitted = 0
    for segment_id in sorted(labels.rows):
        recs, counts = labels.rows[segment_id], labels.counts[segment_id]
        workers = {r.worker_id for r in recs}
        if not workers.isdisjoint(excluding):
            workers.difference_update(excluding)
            if not workers:
                n_omitted += 1
                continue
            counts -= sum(_ballot(r[3:]) for r in recs if r.worker_id in excluding)
        out.append(ConsensusLabel(segment_id, _verdicts(counts)[0], len(workers)))
    if n_omitted:
        log.warning("aggregate: %d segments lost all labels after exclusion", n_omitted)
    return out


def score_workers(labels: LabelTally,
                  threshold: float = DEFAULT_AGREEMENT_THRESHOLD) -> list[WorkerScore]:
    """Score each worker's agreement with the provisional consensus.

    The provisional consensus is the majority over all workers; a worker's
    agreement is the fraction of their (attribute, segment) answers that
    match it, counted only where the consensus resolves. Workers below the
    threshold with at least MIN_SCORED_OVERLAP scored answers are flagged.
    """
    if labels.rows and not any(len({r.worker_id for r in recs}) > 1
                               for recs in labels.rows.values()):
        log.warning("score_workers: every segment has a single worker; "
                    "quality control is inert (all agreements are 1.0)")

    scored: Counter[str] = Counter()
    matched: Counter[str] = Counter()
    for segment_id, recs in labels.rows.items():
        resolved = _verdicts(labels.counts[segment_id])[1]
        for r in recs:  # every answer to a resolved verdict is scored
            scored[r.worker_id] += resolved.bit_count()
            matched[r.worker_id] += (_ballot(r[3:]) & resolved).bit_count()

    out = []
    for worker_id, n in sorted(scored.items()):
        agreement = matched[worker_id] / n if n else 1.0
        flagged = agreement < threshold and n >= MIN_SCORED_OVERLAP
        out.append(WorkerScore(worker_id, n, agreement, flagged))
    return out


def flagged_workers(scores: list[WorkerScore]) -> set[str]:
    return {s.worker_id for s in scores if s.flagged}


def write_consensus_csv(labels: list[ConsensusLabel], path: str | Path) -> None:
    write_table(path, CONSENSUS_CSV_HEADER.split(","),
                ([c.segment_id, *c.verdicts, c.n_workers] for c in labels))


def _consensus(segment_id, *values) -> ConsensusLabel:
    # values are the verdicts in ATTRIBUTES order, then n_workers
    if values[-1] < 1:
        raise ValueError(f"column n_workers: must be at least 1, got {values[-1]}")
    return ConsensusLabel(segment_id, values[:-1], values[-1])


def _verdict(allowed: frozenset, raw: str) -> str:
    """raw, interned: each consensus row holds six of a handful of tokens."""
    if raw not in allowed:
        raise ValueError(f"unrecognized verdict {raw!r}")
    return sys.intern(raw)


def read_consensus_csv(path: str | Path) -> list[ConsensusLabel]:
    return read_table(path, {"segment_id": str}
                      | {a: partial(_verdict, _VERDICTS[a]) for a in ATTRIBUTES}
                      | {"n_workers": int}, _consensus, key="segment_id")
