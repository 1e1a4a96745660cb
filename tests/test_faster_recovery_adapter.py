"""Tests for crash recovery and the FasterStateObject DPR adapter."""

import pytest

from repro.core.versioning import Token
from repro.faster.checkpoint import durable_prefix, materialize, recover
from repro.faster.state_object import FasterStateObject, PendingMarker
from repro.faster.store import FasterKV


class TestCrashRecovery:
    def test_recover_replays_durable_prefix(self):
        kv = FasterKV(bucket_count=16)
        kv.upsert("a", 1)
        kv.upsert("b", 2)
        kv.run_checkpoint_synchronously()
        kv.upsert("a", 99)
        recovered = recover(kv, 1)
        assert materialize(recovered) == {"a": 1, "b": 2}

    def test_recover_resumes_past_checkpoint_version(self):
        kv = FasterKV(bucket_count=16)
        kv.upsert("a", 1)
        kv.run_checkpoint_synchronously()
        recovered = recover(kv, 1)
        assert recovered.current_version == 2

    def test_recover_filters_fuzzy_new_version_records(self):
        # Records stamped v+1 can sit below the fold boundary (threads
        # enter the new version before capture); recovery must skip them.
        kv = FasterKV(bucket_count=16)
        kv.epoch.register_thread("t1")
        kv.upsert("old", 1)
        kv.begin_checkpoint()
        kv.epoch.refresh("t0")
        kv.epoch.refresh("t1")  # IN_PROGRESS established next refresh
        kv.epoch.refresh("t0")
        kv.upsert("fuzzy", 2, thread_id="t0")  # stamped version 2
        kv.epoch.refresh("t1")
        kv.epoch.refresh("t0")
        kv.complete_flush()
        info = kv.checkpoints[1]
        assert info.until_address >= 2  # fuzzy record inside the prefix
        recovered = recover(kv, 1)
        assert materialize(recovered) == {"old": 1}

    def test_recover_respects_tombstones(self):
        kv = FasterKV(bucket_count=16)
        kv.upsert("a", 1)
        kv.delete("a")
        kv.run_checkpoint_synchronously()
        recovered = recover(kv, 1)
        assert materialize(recovered) == {}

    def test_recover_unknown_version_rejected(self):
        kv = FasterKV(bucket_count=16)
        with pytest.raises(KeyError):
            durable_prefix(kv, 7)

    def test_recovered_instance_is_durable(self):
        kv = FasterKV(bucket_count=16)
        kv.upsert("a", 1)
        kv.run_checkpoint_synchronously()
        recovered = recover(kv, 1)
        # The replayed prefix counts as flushed.
        assert recovered.log.flushed_until_address == recovered.log.tail_address


class TestFasterStateObject:
    @pytest.fixture
    def shard(self):
        return FasterStateObject("W0", bucket_count=16)

    def test_ops_round_trip(self, shard):
        shard.execute(("set", "k", 1))
        assert shard.execute(("get", "k")).value == 1
        shard.execute(("incr", "n", 3))
        assert shard.get("n") == 3
        shard.execute(("delete", "k"))
        assert shard.get("k") is None

    def test_rmw_op(self, shard):
        shard.execute(("set", "k", 4))
        result = shard.execute(("rmw", "k", lambda v: v * 10))
        assert result.value == 40

    def test_unknown_op_rejected(self, shard):
        with pytest.raises(ValueError):
            shard.execute(("explode",))

    def test_versions_stay_in_lockstep(self, shard):
        shard.execute(("set", "k", 1))
        shard.commit()
        assert shard.version == shard.kv.current_version == 2
        shard.fast_forward(9)
        assert shard.version == shard.kv.current_version == 9

    def test_commit_then_restore(self, shard):
        shard.execute(("set", "k", "durable"))
        descriptor = shard.commit()
        shard.execute(("set", "k", "volatile"))
        shard.restore(descriptor.token.version)
        assert shard.get("k") == "durable"
        assert shard.version == shard.kv.current_version

    def test_dirty_fast_forward_checkpoints(self, shard):
        shard.execute(("set", "k", 1))
        shard.fast_forward(5)
        sealed = shard.drain_sealed()
        assert [d.token for d in sealed] == [Token("W0", 1)]
        assert 1 in shard.kv.checkpoints

    def test_checkpoint_bytes(self, shard):
        shard.execute(("set", "k", 1))
        descriptor = shard.commit()
        assert shard.checkpoint_bytes(descriptor.token.version) > 0

    def test_pending_marker_path(self):
        shard = FasterStateObject("W0", bucket_count=16,
                                  memory_budget_records=2)
        for i in range(5):
            shard.execute(("set", i, i * 10))
        shard.commit()
        for i in range(5):
            shard.execute(("set", 100 + i, i))
        value = shard.apply(("read", 0))
        if isinstance(value, PendingMarker):
            assert shard.resolve_pending(value) == 0
        assert shard.get(0) == 0

    def test_cold_rmw_applies_its_update(self):
        # A RMW on a record paged out below the head used to come back
        # PENDING with the update dropped, and resolving the marker only
        # read the old value.
        shard = FasterStateObject("A", memory_budget_records=4)
        shard.execute(("upsert", "ctr", 5))
        for i in range(20):
            shard.execute(("upsert", f"filler{i}", i))
            if i % 5 == 4:
                shard.commit()
        assert shard.kv.log.head_address > 0
        pending_before = shard.kv.reads_pending
        result = shard.execute(("incr", "ctr", 1))
        assert result.value == 6
        assert shard.kv.reads_pending == pending_before + 1
        assert shard.get("ctr") == 6
        # The update is appended in the version the op executed in.
        log = shard.kv.log
        assert log.get(log.tail_address - 1).version == result.version
        assert shard.execute(("rmw", "ctr", lambda v: v * 10)).value == 60
        assert shard.get("ctr") == 60

    def test_restore_with_resume_hint(self, shard):
        shard.execute(("set", "k", 1))
        shard.commit()
        shard.restore(1, resume_version=20)
        assert shard.version == 20
        assert shard.kv.current_version == 20
