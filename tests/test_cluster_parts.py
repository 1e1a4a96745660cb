"""Tests for cluster building blocks: metadata, ownership, cost model,
modeled store, and stats."""

import math

import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.metadata import MetadataStore
from repro.cluster.modeled import ModeledStore
from repro.cluster.ownership import (
    HashPartitioner,
    Lease,
    OwnershipView,
    StaleLeaseError,
)
from repro.cluster.stats import ClusterStats, Reservoir, TimeSeries
from repro.sim.storage import StorageKind


class TestMetadataStore:
    def test_access_takes_time(self, env):
        metadata = MetadataStore(env, rtt_mean=2e-3, rtt_jitter=0.0)
        done = []

        def proc():
            yield metadata.access()
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [pytest.approx(2e-3)]
        assert metadata.queries == 1

    def test_ownership_table(self, env):
        metadata = MetadataStore(env)
        metadata.set_owner(3, "worker-1")
        assert metadata.owner_of(3) == "worker-1"
        metadata.set_owner(3, None)
        assert metadata.owner_of(3) is None

    def test_membership_via_dpr_table(self, env):
        metadata = MetadataStore(env)
        metadata.add_member("w0")
        metadata.add_member("w1")
        assert set(metadata.members()) == {"w0", "w1"}
        metadata.remove_member("w0")
        assert set(metadata.members()) == {"w1"}


class TestPartitioners:
    def test_hash_partitioner_range(self):
        partitioner = HashPartitioner(partition_count=8)
        for key in ["a", 42, ("t", 1)]:
            assert 0 <= partitioner.partition_of(key) < 8


class TestOwnership:
    def test_lease_grant_validate(self):
        clock = {"now": 0.0}
        view = OwnershipView("w0", lease_duration=10,
                             clock=lambda: clock["now"])
        view.grant(3)
        view.validate(3)  # no raise
        assert view.owns(3)

    def test_expired_lease_fails_validation(self):
        clock = {"now": 0.0}
        view = OwnershipView("w0", lease_duration=10,
                             clock=lambda: clock["now"])
        view.grant(3)
        clock["now"] = 11.0
        with pytest.raises(StaleLeaseError):
            view.validate(3)

    def test_unowned_partition_rejected(self):
        view = OwnershipView("w0")
        with pytest.raises(StaleLeaseError):
            view.validate(5)


class TestCostModel:
    def test_rcu_probability_decays(self):
        cost = CostModel()
        fresh = cost.rcu_probability(0, 1000, True)
        settled = cost.rcu_probability(5000, 1000, True)
        assert fresh == 1.0
        assert settled < 0.01

    def test_rcu_zero_without_checkpoints(self):
        cost = CostModel()
        assert cost.rcu_probability(0, 1000, False) == 0.0

    def test_batching_amortizes_fixed_cost(self):
        cost = CostModel()
        single = cost.server_batch_time(1, 0.5, 0.0, 1.0)
        big = cost.server_batch_time(1024, 0.5, 0.0, 1.0)
        assert big / 1024 < single / 2  # per-op cost much lower batched

    def test_rcu_raises_write_cost(self):
        cost = CostModel()
        cheap = cost.server_batch_time(1024, 0.5, 0.0, 1.0)
        dear = cost.server_batch_time(1024, 0.5, 1.0, 1.0)
        assert dear > cheap

    def test_slowdown_scales_linearly(self):
        cost = CostModel()
        base = cost.server_batch_time(100, 0.5, 0.5, 1.0)
        slowed = cost.server_batch_time(100, 0.5, 0.5, 2.0)
        assert slowed == pytest.approx(2 * base)

    def test_flush_slowdown_ordering(self):
        cost = CostModel()
        assert (cost.flush_slowdown[StorageKind.NULL]
                < cost.flush_slowdown[StorageKind.LOCAL_SSD]
                < cost.flush_slowdown[StorageKind.CLOUD_SSD])

    def test_aof_always_dominates_redis_cost(self):
        cost = CostModel()
        plain = cost.redis_batch_time(1024)
        sync = cost.redis_batch_time(1024, aof_always=True)
        assert sync > 5 * plain


class TestModeledStore:
    def test_batch_counting(self):
        store = ModeledStore("w", effective_keys=1000)
        store.execute(("batch", 100, 40))
        assert store.total_ops == 100
        assert store.total_writes == 40
        assert store.writes_since_seal == 40

    def test_seal_resets_dirty_tracking(self):
        store = ModeledStore("w", effective_keys=1000)
        store.execute(("batch", 100, 50))
        store.commit()
        assert store.writes_since_seal == 0

    def test_distinct_dirty_saturates_at_keyspace(self):
        store = ModeledStore("w", effective_keys=100)
        store.execute(("batch", 100000, 100000))
        assert store.distinct_dirty_records() == pytest.approx(100, rel=0.01)

    def test_checkpoint_bytes_from_dirty_set(self):
        store = ModeledStore("w", effective_keys=1e9)
        store.execute(("batch", 1000, 500))
        descriptor = store.commit()
        # ~500 distinct dirty records * 64B.
        assert store.checkpoint_bytes(descriptor.token.version) == pytest.approx(
            500 * 64, rel=0.05)

    def test_rejects_non_batch_ops(self):
        with pytest.raises(ValueError):
            ModeledStore("w").execute(("set", "k", 1))

    def test_rollback_resets(self):
        store = ModeledStore("w", effective_keys=1000)
        store.execute(("batch", 10, 5))
        store.commit()
        store.execute(("batch", 10, 5))
        store.restore(1)
        assert store.writes_since_seal == 0


class TestStats:
    def test_reservoir_percentiles(self):
        reservoir = Reservoir(capacity=1000)
        for value in range(100):
            reservoir.add(float(value))
        assert reservoir.percentile(50) == pytest.approx(50, abs=2)
        assert reservoir.percentile(99) == pytest.approx(99, abs=2)
        assert reservoir.mean() == pytest.approx(49.5)

    def test_reservoir_caps_memory(self):
        reservoir = Reservoir(capacity=10)
        for value in range(1000):
            reservoir.add(float(value))
        assert len(reservoir._samples) == 10
        assert reservoir.count == 1000

    def test_reservoir_boundary_percentiles_exact(self):
        reservoir = Reservoir(capacity=1000)
        for value in range(100):
            reservoir.add(float(value))
        # Exact at boundary and integral ranks, not index-truncated.
        assert reservoir.percentile(0) == 0.0
        assert reservoir.percentile(100) == 99.0
        assert reservoir.percentile(50) == pytest.approx(49.5)
        assert reservoir.percentile(99) == pytest.approx(98.01)

    def test_reservoir_interpolates_between_ranks(self):
        reservoir = Reservoir(capacity=10)
        reservoir.add(0.0)
        reservoir.add(10.0)
        assert reservoir.percentile(50) == 5.0
        assert reservoir.percentile(95) == pytest.approx(9.5)

    def test_timeseries_buckets(self):
        series = TimeSeries(bucket_width=0.1)
        series.add(0.05, 10)
        series.add(0.15, 20)
        assert series.series() == [(0.0, 100.0), (pytest.approx(0.1), 200.0)]

    def test_timeseries_resample(self):
        series = TimeSeries(bucket_width=0.05)
        series.add(0.01, 5)
        series.add(0.06, 5)
        coarse = series.series(0.1)
        assert coarse == [(0.0, 100.0)]

    def test_timeseries_total_window(self):
        series = TimeSeries(bucket_width=0.1)
        for t in [0.05, 0.15, 0.25]:
            series.add(t, 1)
        assert series.total(0.1, 0.3) == 2

    def test_throughput_window(self):
        stats = ClusterStats()
        for t in [0.1, 0.2, 0.3, 0.4]:
            stats.completed.add(t, 100)
        assert stats.throughput(start=0.1, end=0.5, duration=0.4) == \
            pytest.approx(1000.0)
