import itertools
import logging

import pytest
from scipy import stats

from roadsense.geometry import GeoPoint
from roadsense.sampler import SplitMix64, sample_points, sample_segments
from roadsense.segmenter import PLAN_CSV_HEADER, RoadSegment, write_plan_csv


def make_population(n):
    segs = []
    for i in range(n):
        start = GeoPoint(0.0, (i % 1700) * 0.1)
        end = GeoPoint(0.001, (i % 1700) * 0.1)
        segs.append(RoadSegment(
            segment_id=f"{i}#0", way_id=i, index=0,
            start=start, end=end,
            length_m=500.0, highway_class="primary", city="t"))
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


class TestSampleSegments:
    def test_empty_draw(self, caplog):
        with caplog.at_level(logging.WARNING, logger="roadsense.sampler"):
            plan = sample_segments(make_population(10), 0, seed=1)
        assert plan == []
        assert caplog.records == []

    def test_exhaustive_draw(self, caplog):
        pop = make_population(10)
        with caplog.at_level(logging.WARNING, logger="roadsense.sampler"):
            plan = sample_segments(pop, 15, seed=1)
        assert len(plan) == 10
        assert {s.segment_id for s in plan} == {s.segment_id for s in pop}
        assert [r.getMessage() for r in caplog.records] == [
            "sample_segments: requested 15 segments but population has only 10"]

    def test_without_replacement(self):
        pop = make_population(100)
        plan = sample_segments(pop, 40, seed=9)
        ids = [s.segment_id for s in plan]
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
        a = [s.segment_id for s in sample_segments(pop, 20, seed=1)]
        b = [s.segment_id for s in sample_segments(pop, 20, seed=2)]
        assert a != b

    def test_plan_for_n_is_a_prefix_of_the_plan_for_n_plus_m(self):
        # a larger sample only continues the draw, so a plan can grow
        # without re-drawing the points it already holds
        for pop_n in (1, 2, 7, 50, 301):
            pop = make_population(pop_n)
            for n, m, seed in itertools.product(
                    sorted({0, 1, pop_n // 3, pop_n - 1, pop_n}), (1, 4, pop_n + 2),
                    (0, 1, 42, (1 << 64) - 1)):
                ids = [s.segment_id for s in sample_segments(pop, n + m, seed)]
                assert [s.segment_id for s in sample_segments(pop, n, seed)] == ids[:n], \
                    (pop_n, n, m, seed)

    def test_plan_csv_for_n_is_a_prefix_of_the_plan_csv_for_more(self, tmp_path):
        # the rank column counts the draw, so a grown plan keeps each row's rank
        pop = make_population(40)
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        write_plan_csv(sample_segments(pop, 6, seed=8), small)
        write_plan_csv(sample_segments(pop, 15, seed=8), large)
        rows = large.read_text().splitlines()
        assert small.read_text().splitlines() == rows[:1 + 6]
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == [str(i) for i in range(15)]

    def test_permutation_when_n_equals_population(self):
        pop = make_population(8)
        plan = sample_segments(pop, 8, seed=3)
        assert sorted(s.segment_id for s in plan) == sorted(s.segment_id for s in pop)

    def test_exhaustive_small_populations_all_low_seeds(self):
        # every (pop size <= 6, n <= pop, seed < 64) combination yields a
        # valid, reproducible, duplicate-free draw
        for pop_n in range(1, 7):
            pop = make_population(pop_n)
            for n, seed in itertools.product(range(pop_n + 1), range(64)):
                plan1 = sample_segments(pop, n, seed)
                plan2 = sample_segments(pop, n, seed)
                ids = [s.segment_id for s in plan1]
                assert ids == [s.segment_id for s in plan2]
                assert len(ids) == n
                assert len(set(ids)) == n

    def test_small_population_permutations_cover(self):
        # with 3 items all 6 permutations appear across seeds: no ordering bias
        pop = make_population(3)
        seen = set()
        for seed in range(200):
            seen.add(tuple(s.segment_id for s in sample_segments(pop, 3, seed)))
        assert len(seen) == 6

    def test_inclusion_frequencies_uniform(self):
        # Monte Carlo oracle: chi-square on per-segment inclusion counts
        pop_n, n, n_seeds = 200, 20, 2000
        pop = make_population(pop_n)
        counts = [0] * pop_n
        for seed in range(n_seeds):
            for s in sample_segments(pop, n, seed):
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

    def test_points_for_n_are_a_prefix_of_the_points_for_more(self):
        pop = make_population(200)
        more = sample_points(sample_segments(pop, 30, seed=5))
        assert sample_points(sample_segments(pop, 12, seed=5)) == more[:12]

    def test_size_matches_plan(self):
        plan = sample_segments(make_population(6000), 5000, seed=11)
        assert len(sample_points(plan)) == 5000
