"""Tests for the workload generators."""

import random
from collections import Counter

import pytest

from repro.workloads import (
    Distribution,
    WorkloadSpec,
    YCSB_A,
    YCSB_A_ZIPFIAN,
    YCSB_B,
    YCSB_C,
    ZipfianGenerator,
    ycsb,
)


class TestSpecs:
    def test_ycsb_a_is_50_50(self):
        assert YCSB_A.read_fraction == 0.5
        assert YCSB_A.write_fraction == 0.5

    def test_paper_keyspace(self):
        assert YCSB_A.keyspace == 250_000_000

    def test_builder(self):
        spec = ycsb("a", zipfian=True, keyspace=1000)
        assert spec.read_fraction == 0.5
        assert spec.distribution is Distribution.ZIPFIAN
        assert spec.keyspace == 1000
        assert ycsb("YCSB-B").read_fraction == 0.95

    def test_builder_rejects_unknown(self):
        with pytest.raises(ValueError):
            ycsb("z")

    def test_shard_keys(self):
        assert YCSB_A.shard_keys(8) == 250_000_000 / 8

    def test_effective_shard_keys_skew(self):
        uniform = YCSB_A.effective_shard_keys(8)
        zipf = YCSB_A_ZIPFIAN.effective_shard_keys(8)
        # The Zipfian hot set is far smaller than the full shard.
        assert zipf < uniform / 10


class TestBatchWriteCount:
    def test_bounds(self, rng):
        for batch in [1, 16, 64, 1024]:
            count = YCSB_A.batch_write_count(batch, rng)
            assert 0 <= count <= batch

    def test_mean_tracks_write_fraction(self, rng):
        total = sum(YCSB_A.batch_write_count(1024, rng) for _ in range(200))
        assert total / (200 * 1024) == pytest.approx(0.5, abs=0.02)

    def test_small_batch_is_one_draw_per_op_in_order(self, rng):
        # Figure bytes hang on this stream: b draws, each compared to
        # the write fraction, nothing skipped or batched.
        model = random.Random(12345)
        for batch in [1, 16, 64]:
            assert YCSB_A.batch_write_count(batch, rng) == sum(
                model.random() < YCSB_A.write_fraction
                for _ in range(batch))
        assert rng.getstate() == model.getstate()

    def test_read_only_workload(self, rng):
        assert YCSB_C.batch_write_count(1024, rng) == 0

    def test_read_mostly(self, rng):
        total = sum(YCSB_B.batch_write_count(1024, rng) for _ in range(100))
        assert total / (100 * 1024) == pytest.approx(0.05, abs=0.02)


class TestSamplers:
    def test_key_sampler_in_range(self, rng):
        spec = ycsb("a", keyspace=100)
        sampler = spec.key_sampler(rng)
        assert all(0 <= sampler() < 100 for _ in range(500))

    def test_op_sampler_mix(self, rng):
        spec = ycsb("a", keyspace=100)
        sampler = spec.op_sampler(rng)
        kinds = Counter(sampler()[0] for _ in range(1000))
        assert 350 < kinds["read"] < 650
        assert kinds["read"] + kinds["upsert"] == 1000


class TestZipfian:
    def test_range(self, rng):
        generator = ZipfianGenerator(1000, rng=rng)
        assert all(0 <= generator.sample() < 1000 for _ in range(2000))

    def test_skew_concentrates_on_head(self, rng):
        generator = ZipfianGenerator(10000, theta=0.99, rng=rng)
        counts = Counter(generator.sample() for _ in range(20000))
        head_mass = sum(counts[i] for i in range(10)) / 20000
        assert head_mass > 0.2  # top-10 of 10000 carries >20% of mass

    def test_item_zero_hottest(self, rng):
        generator = ZipfianGenerator(1000, rng=rng)
        counts = Counter(generator.sample() for _ in range(20000))
        assert counts[0] == max(counts.values())

    def test_scramble_spreads_hotspot(self, rng):
        generator = ZipfianGenerator(1000, rng=rng, scramble=True)
        counts = Counter(generator.sample() for _ in range(20000))
        # Still skewed, but the hottest item is no longer item 0
        # deterministically adjacent to item 1.
        hottest = counts.most_common(1)[0][0]
        assert 0 <= hottest < 1000

    def test_effective_keyspace_much_smaller_than_n(self):
        generator = ZipfianGenerator(1_000_000, theta=0.99,
                                     rng=random.Random(0))
        effective = generator.effective_keyspace()
        assert effective < 1_000_000 / 3
        assert effective > 100

    def test_uniform_theta_bounds(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(100, theta=1.0)
        with pytest.raises(ValueError):
            ZipfianGenerator(0)

    def test_determinism(self):
        first = ZipfianGenerator(1000, rng=random.Random(7))
        second = ZipfianGenerator(1000, rng=random.Random(7))
        assert [first.sample() for _ in range(100)] == \
            [second.sample() for _ in range(100)]
