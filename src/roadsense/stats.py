"""Estimators of shares: imagery coverage with its Wilson interval,
per-city condition proportions with their table and CSV rows, and expected
incident counts. estimate_coverage reads only each query record's status."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

from .errors import AnalysisError
from .labeling import ATTRIBUTES, ConsensusLabel

log = logging.getLogger(__name__)

WILSON_Z = 1.959964
DEFAULT_CAPTURE_KM = 0.5  # km of road per photo, for expected_incidents

# the statuses the coverage estimate counts; streetview records them
STATUS_OK = "OK"
STATUS_ZERO_RESULTS = "ZERO_RESULTS"

# display order and names follow the condition summary table
SUMMARY_COLUMNS = (
    ("potholes", "potholes"),
    ("cracks", "cracks"),
    ("markings_clear", "clear road markings"),
    ("markings_present", "roads w/ markings"),
    ("litter", "litter"),
    ("sidewalk_paved", "paved sidewalk"),
)


@dataclass(frozen=True)
class CoverageEstimate:
    successes: int
    total: int
    proportion: float
    ci_low: float
    ci_high: float
    excluded: int = 0  # TRANSPORT_ERROR / REQUEST_DENIED records left out


@dataclass
class CitySummary:
    city: str
    n_images: int
    proportions: dict            # attribute -> ratio; absent when unresolvable


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_coverage(records: list) -> CoverageEstimate:
    """Proportion of OK among {OK, ZERO_RESULTS}, with a Wilson interval.

    TRANSPORT_ERROR and REQUEST_DENIED records carry no information about
    imagery coverage and are excluded from both numerator and denominator.
    """
    usable = [r for r in records if r.status in (STATUS_OK, STATUS_ZERO_RESULTS)]
    excluded = len(records) - len(usable)
    if not usable:
        raise AnalysisError(
            f"no usable records: {len(records)} total, all excluded")
    successes = sum(1 for r in usable if r.status == STATUS_OK)
    total = len(usable)
    low, high = wilson_interval(successes, total)
    return CoverageEstimate(successes=successes, total=total,
                            proportion=successes / total,
                            ci_low=low, ci_high=high, excluded=excluded)


def coverage_json(est: CoverageEstimate) -> str:
    """The coverage.json document for an estimate."""
    return json.dumps(asdict(est), indent=2, sort_keys=True) + "\n"


def summarize_city(consensus: list[ConsensusLabel], city: str) -> CitySummary:
    """Per-attribute yes-proportions, excluding unresolved verdicts.

    markings_clear is the proportion among images whose consensus says
    markings are present (na verdicts drop out), reported alongside the
    unconditional markings_present proportion.
    """
    if not consensus:
        raise AnalysisError(f"no consensus labels for {city}")
    proportions = {}
    # each attribute's column of verdicts; na counts nowhere: question not applicable
    for attr, column in zip(ATTRIBUTES, zip(*(c.verdicts for c in consensus))):
        yes, no = column.count("yes"), column.count("no")
        if yes + no > 0:
            proportions[attr] = yes / (yes + no)
        else:
            log.warning("summarize_city(%s): no resolvable labels for %s", city, attr)
    return CitySummary(city=city, n_images=len(consensus), proportions=proportions)


def expected_incidents(rate: float, journey_km: float, capture_km: float) -> float:
    """Expected incident count over a journey: rate * journey / capture (> 0).

    The capture length matters: a 0.23 segment rate over 10 km gives 2.3
    expected incidents when each photo covers 1 km, 4.6 when it covers
    0.5 km.
    """
    return rate * journey_km / capture_km


def summary_table(summaries: list[CitySummary]) -> str:
    """Aligned-text condition table, one row per city."""
    headers = ["city", "n"] + [display for _, display in SUMMARY_COLUMNS]
    rows = []
    for s in summaries:
        row = [s.city, str(s.n_images)]
        for attr, _ in SUMMARY_COLUMNS:
            row.append(f"{s.proportions[attr]:.2f}" if attr in s.proportions else "-")
        rows.append(row)
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def summary_csv_rows(summaries: list[CitySummary]) -> list[list[str]]:
    """Rows of city, n_images, then each SUMMARY_COLUMNS proportion."""
    return [[s.city, str(s.n_images)]
            + [f"{s.proportions[attr]:.6f}" if attr in s.proportions else ""
               for attr, _ in SUMMARY_COLUMNS]
            for s in summaries]
