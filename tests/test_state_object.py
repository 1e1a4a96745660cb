"""Tests for the StateObject base class and the reference implementation."""

import pytest

from repro.core.state_object import (
    InMemoryStateObject,
    WorldLineMismatch,
)
from repro.core.versioning import Token
from repro.core.worldline import WorldLineDecision


@pytest.fixture
def obj():
    return InMemoryStateObject("A")


class TestOperations:
    def test_set_get(self, obj):
        obj.execute(("set", "k", 1))
        assert obj.execute(("get", "k")).value == 1

    def test_delete(self, obj):
        obj.execute(("set", "k", 1))
        assert obj.execute(("delete", "k")).value == 1
        assert obj.execute(("get", "k")).value is None

    def test_incr(self, obj):
        assert obj.execute(("incr", "n")).value == 1
        assert obj.execute(("incr", "n", 5)).value == 6

    def test_unknown_op_rejected(self, obj):
        with pytest.raises(ValueError):
            obj.execute(("bogus",))

    def test_result_carries_version_and_worldline(self, obj):
        result = obj.execute(("set", "k", 1))
        assert result.version == 1
        assert result.world_line == 0

    def test_ops_counter(self, obj):
        obj.execute(("set", "a", 1))
        obj.execute(("get", "a"))
        assert obj.ops_executed == 2

    def test_apply_override_routes_execution(self, obj):
        seen = []
        result = obj.execute(("anything",),
                             apply_override=lambda op: seen.append(op) or "ok")
        assert result.value == "ok"
        assert seen == [("anything",)]
        # DPR bookkeeping still happened.
        assert obj.dirty


class TestCommit:
    def test_commit_seals_and_persists(self, obj):
        obj.execute(("set", "k", 1))
        descriptor = obj.commit()
        assert descriptor.token == Token("A", 1)
        assert obj.version == 2
        assert obj.max_persisted_version == 1
        assert obj.persisted_versions() == [1]

    def test_versions_are_cumulative(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.execute(("set", "k", 2))
        obj.commit()
        obj.rollback_to(2)
        assert obj.get("k") == 2
        obj.rollback_to(1)
        assert obj.get("k") == 1

    def test_session_watermarks_in_descriptor(self, obj):
        obj.execute(("set", "k", 1), session_id="s1", seqno=3)
        obj.execute(("set", "k", 2), session_id="s2", seqno=7)
        descriptor = obj.commit()
        assert descriptor.session_watermarks == {"s1": 3, "s2": 7}

    def test_deps_accumulated_and_cleared(self, obj):
        obj.execute(("set", "k", 1), deps=[Token("B", 2), Token("C", 1)])
        first = obj.commit()
        assert first.deps == frozenset({Token("B", 2), Token("C", 1)})
        obj.execute(("set", "k", 2))
        second = obj.commit()
        assert second.deps == frozenset()

    def test_self_deps_ignored(self, obj):
        obj.execute(("set", "k", 1), deps=[Token("A", 1)])
        assert obj.commit().deps == frozenset()

    def test_mark_persisted_requires_seal(self, obj):
        with pytest.raises(KeyError):
            obj.mark_persisted(1)

    def test_latest_persisted_at_or_below(self, obj):
        obj.execute(("set", "a", 1))
        obj.commit()  # version 1
        obj.fast_forward(5)
        obj.execute(("set", "a", 2))
        obj.commit()  # version 5
        for earlier in obj.drain_sealed():
            pass
        assert obj.latest_persisted_at_or_below(4) == 1
        assert obj.latest_persisted_at_or_below(5) == 5
        assert obj.latest_persisted_at_or_below(0) == 0


class TestFastForward:
    def test_clean_fast_forward_no_seal(self, obj):
        obj.fast_forward(7)
        assert obj.version == 7
        assert obj.drain_sealed() == []

    def test_dirty_seal_invariant(self, obj):
        # Fast-forwarding over a dirty version must seal it so the
        # min-version finder can never lose its operations.
        obj.execute(("set", "k", 1))
        obj.fast_forward(5)
        sealed = obj.drain_sealed()
        assert [d.token for d in sealed] == [Token("A", 1)]
        assert obj.version == 5
        assert obj.is_sealed(1)
        obj.rollback_to(1)  # the version-1 checkpoint captured the op
        assert obj.get("k") == 1

    def test_backwards_fast_forward_ignored(self, obj):
        obj.fast_forward(5)
        obj.fast_forward(3)
        assert obj.version == 5

    def test_execute_min_version_fast_forwards(self, obj):
        obj.execute(("set", "k", 1), min_version=4)
        assert obj.version == 4


class TestWorldLineGating:
    def test_matching_worldline_executes(self, obj):
        obj.execute(("set", "k", 1), world_line=0)

    def test_stale_request_rejected(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.restore(1)  # world-line bumps to 1
        with pytest.raises(WorldLineMismatch) as info:
            obj.execute(("get", "k"), world_line=0)
        assert info.value.decision is WorldLineDecision.REJECT

    def test_future_request_delayed(self, obj):
        with pytest.raises(WorldLineMismatch) as info:
            obj.execute(("get", "k"), world_line=3)
        assert info.value.decision is WorldLineDecision.DELAY


class TestRestore:
    def test_restore_rolls_back_state(self, obj):
        obj.execute(("set", "k", "committed"))
        descriptor = obj.commit()
        obj.execute(("set", "k", "uncommitted"))
        restored = obj.restore(descriptor.token.version)
        assert restored == 1
        assert obj.get("k") == "committed"

    def test_restore_advances_version_past_prefailure(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()  # now in-progress 2
        obj.restore(1)
        assert obj.version == 3  # strictly past the pre-failure 2

    def test_restore_advances_worldline(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.restore(1, world_line=5)
        assert obj.world_line.current == 5

    def test_restore_resolves_to_largest_checkpoint(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()  # checkpoint 1
        obj.fast_forward(10)
        obj.execute(("set", "k", 2))
        obj.commit()  # checkpoint 10
        for _ in obj.drain_sealed():
            pass
        obj.execute(("set", "k", 3))
        # Restore to 7: largest checkpoint <= 7 is version 1.
        restored = obj.restore(7)
        assert restored == 1
        assert obj.get("k") == 1

    def test_restore_to_zero_empties(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.restore(0)
        assert obj.get("k") is None

    def test_restore_drops_unpersisted_seals(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.execute(("set", "k", 2))
        obj.seal_version()  # sealed version 2, never flushed
        obj.restore(1)
        assert obj.persisted_versions() == [1]
        assert not obj.is_sealed(2)

    def test_resume_version_hint(self, obj):
        obj.execute(("set", "k", 1))
        obj.commit()
        obj.restore(1, resume_version=42)
        assert obj.version == 42
