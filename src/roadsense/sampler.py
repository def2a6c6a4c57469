"""Deterministic uniform sampling of road segments.

Reproducibility across runs, machines and languages is a hard requirement
for the sampling stage, so the generator is pinned rather than borrowed
from the standard library: SplitMix64 (increment 0x9E3779B97F4A7C15, mix
multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) drives a partial
Fisher-Yates shuffle, with rejection sampling so every bounded draw is
exactly uniform. Identical (population, n, seed) triples yield identical
plans anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .fileio import write_table
from .geometry import GeoPoint
from .segmenter import SEGMENTS_CSV_HEADER, RoadSegment, _segment_row, read_segments_csv

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


class SplitMix64:
    """The published SplitMix64 sequence for a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _TWO64 - (_TWO64 % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


@dataclass
class SamplePlan:
    seed: int
    population_n: int
    segments: list[RoadSegment] = field(default_factory=list)


def sample_segments(population: list[RoadSegment], n: int, seed: int) -> SamplePlan:
    """Uniform sample of n segments without replacement, in draw order.

    Asking for more than the population returns the whole population
    (shuffled) and logs a warning.
    """
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    pop_n = len(population)
    if n > pop_n:
        log.warning("sample_segments: requested %d segments but population has only %d",
                    n, pop_n)
    k = min(n, pop_n)
    rng = SplitMix64(seed)
    indices = list(range(pop_n))
    for i in range(k):
        j = i + rng.next_below(pop_n - i)
        indices[i], indices[j] = indices[j], indices[i]
    chosen = [population[indices[i]] for i in range(k)]
    return SamplePlan(seed=seed, population_n=pop_n, segments=chosen)


def sample_points(plan: SamplePlan) -> list[tuple[str, GeoPoint]]:
    """Start points of the sampled segments, in plan order."""
    return [(s.segment_id, s.start) for s in plan.segments]


def stratified_counts(class_counts: dict[str, int], n: int) -> dict[str, int]:
    """Allocate n across classes proportionally (largest-remainder rounding)."""
    total = sum(class_counts.values())
    if total == 0 or n <= 0:
        return {c: 0 for c in class_counts}
    shares = {c: n * cnt / total for c, cnt in class_counts.items()}
    alloc = {c: min(int(shares[c]), class_counts[c]) for c in shares}
    leftover = n - sum(alloc.values())
    # hand out remaining units by largest fractional part, then name for ties
    order = sorted(shares, key=lambda c: (-(shares[c] - int(shares[c])), c))
    while leftover > 0:
        progressed = False
        for c in order:
            if leftover == 0:
                break
            if alloc[c] < class_counts[c]:
                alloc[c] += 1
                leftover -= 1
                progressed = True
        if not progressed:
            break  # every class exhausted
    return alloc


def sample_stratified(population: list[RoadSegment], n: int, seed: int) -> SamplePlan:
    """Sample n segments allocated proportionally to highway-class counts.

    Each stratum is drawn with the same pinned generator; the i-th class in
    sorted name order is seeded with seed + i + 1, and strata are
    concatenated in that order.
    """
    classes: dict[str, list[RoadSegment]] = {}
    for s in population:
        classes.setdefault(s.highway_class, []).append(s)
    alloc = stratified_counts({c: len(v) for c, v in classes.items()}, n)
    chosen: list[RoadSegment] = []
    if n > len(population):
        log.warning("sample_stratified: requested %d segments but population has only %d",
                    n, len(population))
    for i, cls in enumerate(sorted(classes)):
        sub = sample_segments(classes[cls], alloc[cls], seed + i + 1)
        chosen.extend(sub.segments)
    return SamplePlan(seed=seed, population_n=len(population), segments=chosen)


PLAN_CSV_HEADER = SEGMENTS_CSV_HEADER + ",sample_rank"


def write_plan_csv(plan: SamplePlan, path: str | Path) -> None:
    write_table(path, PLAN_CSV_HEADER.split(","),
                (_segment_row(s) + [str(rank)] for rank, s in enumerate(plan.segments)))


def read_plan_csv(path: str | Path) -> SamplePlan:
    segments = read_segments_csv(path)
    return SamplePlan(0, len(segments), segments)
