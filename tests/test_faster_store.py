"""Tests for FasterKV operations, checkpoints, and rollbacks."""

import pytest

from repro.faster.checkpoint import materialize
from repro.faster.statemachine import Phase
from repro.faster.store import FasterKV, PendingMarker


@pytest.fixture
def kv():
    return FasterKV(bucket_count=16)


class TestOperations:
    def test_upsert_read(self, kv):
        assert kv.upsert("k", 1) is None
        assert kv.read("k") == 1

    def test_read_missing(self, kv):
        assert kv.read("nope") is None

    def test_delete_tombstones(self, kv):
        kv.upsert("k", 1)
        assert kv.delete("k") is True
        assert kv.read("k") is None
        assert kv.delete("k") is False

    def test_rmw_creates_with_initial(self, kv):
        assert kv.rmw("ctr", lambda v: v + 10, initial=0) == 10

    def test_rmw_updates_existing(self, kv):
        kv.upsert("ctr", 5)
        assert kv.rmw("ctr", lambda v: v * 2) == 10

    def test_upsert_after_delete_revives(self, kv):
        kv.upsert("k", 1)
        kv.delete("k")
        kv.upsert("k", 2)
        assert kv.read("k") == 2

    def test_hash_collisions_resolved_by_chain(self):
        kv = FasterKV(bucket_count=1)  # everything collides
        for i in range(10):
            kv.upsert(f"key{i}", i)
        for i in range(10):
            assert kv.read(f"key{i}") == i

    def test_version_stamps(self, kv):
        kv.upsert("k", 1)
        assert kv.log.get(0).version == 1
        kv.run_checkpoint_synchronously()
        kv.upsert("k", 2)
        assert kv.log.get(1).version == 2


class TestInPlaceVsRcu:
    def test_same_version_updates_in_place(self, kv):
        kv.upsert("k", 1)
        kv.upsert("k", 2)
        assert kv.in_place_updates == 1
        assert len(kv.log) == 1

    def test_version_boundary_forces_rcu(self, kv):
        kv.upsert("k", 1)
        kv.run_checkpoint_synchronously()
        kv.upsert("k", 2)
        assert kv.rcu_appends == 1
        assert len(kv.log) == 2
        # Subsequent updates to the fresh record go in place again.
        kv.upsert("k", 3)
        assert kv.in_place_updates == 1
        assert len(kv.log) == 2

    def test_rmw_in_place(self, kv):
        kv.upsert("k", 1)
        kv.rmw("k", lambda v: v + 1)
        assert kv.in_place_updates == 1


class TestPendingReads:
    @pytest.fixture
    def cold_kv(self):
        kv = FasterKV(bucket_count=16, memory_budget_records=2)
        for i in range(5):
            kv.upsert(i, i * 10)
        kv.run_checkpoint_synchronously()
        for i in range(5):
            kv.upsert(100 + i, i)
        return kv

    def test_cold_read_goes_pending(self, cold_kv):
        marker = cold_kv.read(0)
        assert isinstance(marker, PendingMarker)
        assert marker.key == 0
        assert marker.address >= 0

    def test_resolve_pending_read(self, cold_kv):
        marker = cold_kv.read(0)
        assert cold_kv.resolve_pending_read(0, marker.address) == 0

    def test_hot_read_stays_synchronous(self, cold_kv):
        assert cold_kv.read(104) == 4


class TestCheckpoint:
    def test_checkpoint_metadata(self, kv):
        kv.upsert("a", 1)
        kv.upsert("b", 2)
        info = kv.run_checkpoint_synchronously()
        assert info.version == 1
        assert info.until_address == 2
        assert kv.current_version == 2
        assert kv.epoch.global_state.phase is Phase.REST

    def test_materialize_checkpoint_filters_versions(self, kv):
        kv.upsert("a", 1)
        kv.run_checkpoint_synchronously()
        kv.upsert("a", 99)
        kv.upsert("b", 2)
        assert materialize(kv, version=1) == {"a": 1}
        assert materialize(kv) == {"a": 99, "b": 2}

    def test_on_capture_hook(self, kv):
        captured = []
        kv.on_capture = captured.append
        kv.upsert("a", 1)
        kv.run_checkpoint_synchronously()
        assert len(captured) == 1
        assert captured[0].version == 1

    def test_ops_continue_during_checkpoint(self, kv):
        kv.epoch.register_thread("t1")
        kv.upsert("a", 1)
        kv.begin_checkpoint()
        # t0 refreshes into the checkpoint; t1 lags but still serves.
        kv.epoch.refresh("t0")
        assert kv.upsert("b", 2, thread_id="t1") is None
        # t1 still in the old version: the appended record says so.
        assert kv.log.get(kv.log.tail_address - 1).version == 1


class TestRollback:
    def test_rollback_hides_new_versions(self, kv):
        kv.upsert("k", "v1")
        kv.run_checkpoint_synchronously()
        kv.upsert("k", "v2")
        kv.upsert("extra", 1)
        kv.run_rollback_synchronously(1)
        assert kv.read("k") == "v1"
        assert kv.read("extra") is None

    def test_rollback_moves_to_v_plus_one(self, kv):
        kv.upsert("k", 1)
        kv.run_checkpoint_synchronously()  # at version 2
        kv.run_rollback_synchronously(1)
        assert kv.current_version == 3

    def test_rollback_drops_newer_checkpoints(self, kv):
        kv.upsert("k", 1)
        kv.run_checkpoint_synchronously()
        kv.upsert("k", 2)
        kv.run_checkpoint_synchronously()
        kv.run_rollback_synchronously(1)
        assert list(kv.checkpoints) == [1]

    def test_ops_after_rollback_use_new_version(self, kv):
        kv.upsert("k", 1)
        kv.run_checkpoint_synchronously()
        kv.run_rollback_synchronously(1)
        kv.upsert("k", "new")
        assert kv.read("k") == "new"
        assert kv.log.get(kv.log.tail_address - 1).version == 3

    def test_readers_skip_purged_before_invalidation(self, kv):
        # During THROW/PURGE the filter hides entries even before the
        # background invalidation marks them (§5.5).
        kv.upsert("k", "durable")
        kv.run_checkpoint_synchronously()
        kv.upsert("k", "lost")
        kv.begin_rollback(1)
        assert kv.read("k") == "durable"
        kv.drive_to_phase(Phase.PURGE)
        assert kv.read("k") == "durable"
        kv.purge_invalid()
        kv.complete_purge()
        assert kv.read("k") == "durable"

    def test_double_rollback(self, kv):
        kv.upsert("a", 1)
        kv.run_checkpoint_synchronously()
        kv.upsert("b", 2)
        kv.run_rollback_synchronously(1)
        kv.upsert("c", 3)
        kv.run_rollback_synchronously(1)
        assert materialize(kv) == {"a": 1}

    def test_fast_forward_version(self, kv):
        kv.fast_forward_version(9)
        assert kv.current_version == 9
        kv.upsert("k", 1)
        assert kv.log.get(0).version == 9

    def test_fast_forward_requires_rest(self, kv):
        from repro.faster.statemachine import StateMachineBusy
        kv.begin_checkpoint()
        with pytest.raises(StateMachineBusy):
            kv.fast_forward_version(9)
