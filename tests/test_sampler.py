import itertools
import logging

import pytest
from scipy import stats

from roadsense.geometry import GeoPoint
from roadsense.sampler import (
    PLAN_CSV_HEADER,
    SplitMix64,
    sample_points,
    sample_segments,
    sample_stratified,
    stratified_counts,
    write_plan_csv,
)
from roadsense.segmenter import RoadSegment


def make_population(n, highway_class="primary"):
    segs = []
    for i in range(n):
        start = GeoPoint(0.0, (i % 1700) * 0.1)
        end = GeoPoint(0.001, (i % 1700) * 0.1)
        segs.append(RoadSegment(
            segment_id=f"{i}#0", way_id=i, index=0,
            start=start, end=end,
            length_m=500.0, highway_class=highway_class, city="t"))
    return segs


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # published reference outputs for the SplitMix64 algorithm, seed 0
        rng = SplitMix64(0)
        expected = [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]
        assert [rng.next_u64() for _ in range(5)] == expected

    def test_mask_wraps(self):
        rng = SplitMix64((1 << 64) - 1)
        assert 0 <= rng.next_u64() < (1 << 64)

    def test_next_below_range_and_determinism(self):
        rng1, rng2 = SplitMix64(42), SplitMix64(42)
        draws1 = [rng1.next_below(7) for _ in range(1000)]
        draws2 = [rng2.next_below(7) for _ in range(1000)]
        assert draws1 == draws2
        assert set(draws1) <= set(range(7))
        assert set(draws1) == set(range(7))

    def test_next_below_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(0)


class TestSampleSegments:
    def test_empty_draw(self, caplog):
        with caplog.at_level(logging.WARNING, logger="roadsense.sampler"):
            plan = sample_segments(make_population(10), 0, seed=1)
        assert plan.segments == []
        assert plan.population_n == 10
        assert caplog.records == []

    def test_exhaustive_draw(self, caplog):
        pop = make_population(10)
        with caplog.at_level(logging.WARNING, logger="roadsense.sampler"):
            plan = sample_segments(pop, 15, seed=1)
        assert len(plan.segments) == 10
        assert {s.segment_id for s in plan.segments} == {s.segment_id for s in pop}
        assert [r.getMessage() for r in caplog.records] == [
            "sample_segments: requested 15 segments but population has only 10"]

    def test_stratified_over_ask_warns_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="roadsense.sampler"):
            plan = sample_stratified(make_population(10), 15, seed=1)
        assert len(plan.segments) == 10
        assert [r.getMessage() for r in caplog.records] == [
            "sample_stratified: requested 15 segments but population has only 10"]

    def test_without_replacement(self):
        pop = make_population(100)
        plan = sample_segments(pop, 40, seed=9)
        ids = [s.segment_id for s in plan.segments]
        assert len(ids) == len(set(ids)) == 40

    def test_determinism_byte_identical(self, tmp_path):
        pop = make_population(50)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_plan_csv(sample_segments(pop, 20, seed=42), p1)
        write_plan_csv(sample_segments(pop, 20, seed=42), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == PLAN_CSV_HEADER

    def test_different_seeds_differ(self):
        pop = make_population(100)
        a = [s.segment_id for s in sample_segments(pop, 20, seed=1).segments]
        b = [s.segment_id for s in sample_segments(pop, 20, seed=2).segments]
        assert a != b

    def test_permutation_when_n_equals_population(self):
        pop = make_population(8)
        plan = sample_segments(pop, 8, seed=3)
        assert sorted(s.segment_id for s in plan.segments) == sorted(s.segment_id for s in pop)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            sample_segments(make_population(3), -1, seed=0)

    def test_exhaustive_small_populations_all_low_seeds(self):
        # every (pop size <= 6, n <= pop, seed < 64) combination yields a
        # valid, reproducible, duplicate-free draw
        for pop_n in range(1, 7):
            pop = make_population(pop_n)
            for n, seed in itertools.product(range(pop_n + 1), range(64)):
                plan1 = sample_segments(pop, n, seed)
                plan2 = sample_segments(pop, n, seed)
                ids = [s.segment_id for s in plan1.segments]
                assert ids == [s.segment_id for s in plan2.segments]
                assert len(ids) == n
                assert len(set(ids)) == n

    def test_small_population_permutations_cover(self):
        # with 3 items all 6 permutations appear across seeds: no ordering bias
        pop = make_population(3)
        seen = set()
        for seed in range(200):
            seen.add(tuple(s.segment_id for s in sample_segments(pop, 3, seed).segments))
        assert len(seen) == 6

    def test_inclusion_frequencies_uniform(self):
        # Monte Carlo oracle: chi-square on per-segment inclusion counts
        pop_n, n, n_seeds = 200, 20, 2000
        pop = make_population(pop_n)
        counts = [0] * pop_n
        for seed in range(n_seeds):
            for s in sample_segments(pop, n, seed).segments:
                counts[s.way_id] += 1
        expected = n_seeds * n / pop_n
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        p = stats.chi2.sf(chi2, pop_n - 1)
        assert p > 0.001


class TestSamplePoints:
    def test_projection(self):
        pop = make_population(1)
        plan = sample_segments(pop, 1, seed=0)
        pts = sample_points(plan)
        assert pts == [(pop[0].segment_id, pop[0].start)]

    def test_empty(self):
        assert sample_points(sample_segments([], 0, seed=0)) == []

    def test_size_matches_plan(self):
        plan = sample_segments(make_population(6000), 5000, seed=11)
        assert len(sample_points(plan)) == 5000


class TestStratified:
    def test_allocation_largest_remainder(self):
        alloc = stratified_counts({"primary": 50, "tertiary": 30, "trunk": 20}, 10)
        assert alloc == {"primary": 5, "tertiary": 3, "trunk": 2}
        assert sum(stratified_counts({"a": 3, "b": 3, "c": 3}, 5).values()) == 5

    def test_allocation_never_exceeds_class_size(self):
        alloc = stratified_counts({"a": 2, "b": 100}, 50)
        assert alloc["a"] <= 2
        assert sum(alloc.values()) == 50

    def test_stratified_sample_counts(self):
        pop = (make_population(60, "primary")
               + [RoadSegment(segment_id=f"t{i}", way_id=1000 + i, index=0,
                              start=GeoPoint(1, i * 0.1),
                              end=GeoPoint(1, i * 0.1 + 0.001), length_m=500.0,
                              highway_class="tertiary", city="t")
                  for i in range(40)])
        plan = sample_stratified(pop, 10, seed=5)
        by_class = {}
        for s in plan.segments:
            by_class[s.highway_class] = by_class.get(s.highway_class, 0) + 1
        assert by_class == {"primary": 6, "tertiary": 4}
        ids = [s.segment_id for s in plan.segments]
        assert len(ids) == len(set(ids))

    def test_stratified_deterministic(self):
        pop = make_population(30, "primary") + make_population(30, "secondary")[0:20]
        a = sample_stratified(pop, 12, seed=4).segments
        b = sample_stratified(pop, 12, seed=4).segments
        assert [s.segment_id for s in a] == [s.segment_id for s in b]
