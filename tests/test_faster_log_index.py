"""Tests for the HybridLog and the hash index."""

import pytest

from repro.faster.hash_index import HashIndex
from repro.faster.hybrid_log import HybridLog
from repro.faster.record import NULL_ADDRESS, Record


def record(key, value, version=1):
    return Record(key=key, value=value, version=version)


class TestHashIndex:
    def test_publish_returns_previous_head(self):
        index = HashIndex(bucket_count=4)
        bucket = index.bucket_of("k")
        assert index.publish(bucket, 0) == NULL_ADDRESS
        assert index.publish(bucket, 5) == 0
        assert index._buckets[bucket] == 5

    def test_collisions_share_bucket(self):
        index = HashIndex(bucket_count=1)
        assert index.bucket_of("a") == index.bucket_of("b")
        index.publish(index.bucket_of("a"), 0)
        previous = index.publish(index.bucket_of("b"), 1)
        assert previous == 0  # chained behind the other key

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            HashIndex(bucket_count=0)


class TestHybridLogAppend:
    def test_addresses_sequential(self):
        log = HybridLog()
        assert log.append(record("a", 1)) == 0
        assert log.append(record("b", 2)) == 1
        assert log.tail_address == 2

    def test_get_bounds_checked(self):
        log = HybridLog()
        with pytest.raises(IndexError):
            log.get(0)

    def test_everything_starts_mutable_and_in_memory(self):
        log = HybridLog()
        address = log.append(record("a", 1))
        assert address >= log.read_only_address  # mutable
        assert address >= log.head_address  # in memory


class TestFoldOver:
    def test_mark_read_only_freezes_span(self):
        log = HybridLog()
        log.append(record("a", 1))
        log.append(record("b", 2))
        span = log.mark_read_only()
        assert span == (0, 2)
        assert log.read_only_address == 2  # 0 and 1 are immutable
        # New appends are mutable again.
        address = log.append(record("c", 3))
        assert address >= log.read_only_address

    def test_flush_complete_advances_frontier(self):
        log = HybridLog()
        log.append(record("a", 1))
        log.mark_read_only()
        log.flush_complete(1)
        assert log.flushed_until_address == 1

    def test_flush_past_read_only_rejected(self):
        log = HybridLog()
        log.append(record("a", 1))
        with pytest.raises(ValueError):
            log.flush_complete(1)


class TestMemoryBudget:
    def test_head_shifts_only_after_flush(self):
        log = HybridLog(memory_budget_records=2)
        for i in range(4):
            log.append(record(i, i))
        # Nothing flushed: head cannot move.
        assert log.head_address == 0
        log.mark_read_only()
        log.flush_complete(4)
        log.append(record(9, 9))
        assert log.head_address > 0  # address 0 is on disk


class TestChains:
    def test_scan_in_address_order(self):
        log = HybridLog()
        for i in range(3):
            log.append(record(i, i * 10))
        values = [r.value for _, r in log.scan()]
        assert values == [0, 10, 20]


class TestRollbackSupport:
    def test_invalidate_versions(self):
        log = HybridLog()
        for version in [1, 2, 3, 2]:
            log.append(record("k", version, version=version))
        count = log.invalidate_versions(1, 2)
        assert count == 2
        assert not log.get(0).invalid
        assert log.get(1).invalid
        assert not log.get(2).invalid
        assert log.get(3).invalid

    def test_invalidate_idempotent(self):
        log = HybridLog()
        log.append(record("k", 1, version=2))
        assert log.invalidate_versions(1, 2) == 1
        assert log.invalidate_versions(1, 2) == 0
