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
from pathlib import Path

from .fileio import write_table
from .geometry import GeoPoint
from .segmenter import SEGMENTS_CSV_HEADER, RoadSegment, _segment_row

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
        """Uniform integer in [0, bound), bound >= 1, via rejection sampling."""
        limit = _TWO64 - (_TWO64 % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def sample_segments(population: list[RoadSegment], n: int, seed: int) -> list[RoadSegment]:
    """Uniform sample of n >= 0 segments without replacement, in draw order: the
    sample for n is the first n segments of the sample for any larger n.

    Asking for more than the population returns the whole population
    (shuffled) and logs a warning.
    """
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
    return [population[indices[i]] for i in range(k)]


def sample_points(plan: list[RoadSegment]) -> list[tuple[str, GeoPoint]]:
    """Start points of the sampled segments, in plan order."""
    return [(s.segment_id, s.start) for s in plan]


PLAN_CSV_HEADER = SEGMENTS_CSV_HEADER + ",sample_rank"


def write_plan_csv(plan: list[RoadSegment], path: str | Path) -> None:
    """plan.csv: segments.csv's columns plus each segment's draw rank, which
    read_segments_csv skips when it reads the plan back."""
    write_table(path, PLAN_CSV_HEADER.split(","),
                (_segment_row(s) + [str(rank)] for rank, s in enumerate(plan)))
