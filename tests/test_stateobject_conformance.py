"""StateObject conformance suite.

Every cache-store integration — the in-memory reference, FASTER and
the Redis clone — must honour the same DPR contract.  The suite drives each implementation through an
implementation-agnostic key-value facade and checks the §3/§4
obligations: version arithmetic, the dirty-seal invariant, cumulative
restores, world-line behaviour, and commit/restore idempotence.
"""

import pytest

from repro.core.state_object import InMemoryStateObject, WorldLineMismatch
from repro.core.versioning import Token
from repro.faster.state_object import FasterStateObject
from repro.redisclone.state_object import RedisStateObject


class _KvFacade:
    """Uniform put/get over the different operation dialects."""

    def __init__(self, state_object):
        self.obj = state_object

    def put(self, key, value, **kwargs):
        if isinstance(self.obj, RedisStateObject):
            return self.obj.execute(("SET", key, value), **kwargs)
        return self.obj.execute(("set", key, value), **kwargs)

    def get(self, key):
        if isinstance(self.obj, RedisStateObject):
            return self.obj.execute(("GET", key)).value
        return self.obj.execute(("get", key)).value


IMPLEMENTATIONS = [
    pytest.param(lambda: InMemoryStateObject("X"), id="in-memory"),
    pytest.param(lambda: FasterStateObject("X", bucket_count=16),
                 id="faster"),
    pytest.param(lambda: RedisStateObject("X"), id="redis"),
]


@pytest.fixture(params=IMPLEMENTATIONS)
def kv(request):
    return _KvFacade(request.param())


class TestVersionContract:
    def test_versions_start_at_one(self, kv):
        assert kv.obj.version == 1

    def test_ops_stamped_with_current_version(self, kv):
        result = kv.put("k", "v")
        assert result.version == kv.obj.version

    def test_commit_increments_version(self, kv):
        kv.put("k", "v")
        descriptor = kv.obj.commit()
        assert descriptor.token == Token("X", 1)
        assert kv.obj.version == 2
        assert kv.obj.max_persisted_version == 1

    def test_fast_forward_clean(self, kv):
        kv.obj.fast_forward(9)
        assert kv.obj.version == 9
        assert kv.obj.drain_sealed() == []

    def test_dirty_seal_invariant(self, kv):
        kv.put("k", "v")
        kv.obj.fast_forward(9)
        sealed = kv.obj.drain_sealed()
        assert [d.token.version for d in sealed] == [1]
        assert kv.obj.version == 9

    def test_min_version_gate(self, kv):
        result = kv.put("k", "v", min_version=5)
        assert result.version == 5


class TestRestoreContract:
    def test_restore_erases_uncommitted(self, kv):
        kv.put("k", "committed")
        kv.obj.commit()
        kv.put("k", "uncommitted")
        kv.obj.restore(1)
        assert kv.get("k") == "committed"

    def test_restore_is_cumulative(self, kv):
        for index in range(3):
            kv.put(f"k{index}", f"v{index}")
            kv.obj.commit()
        kv.obj.restore(2)
        assert kv.get("k0") == "v0"
        assert kv.get("k1") == "v1"
        assert kv.get("k2") is None

    def test_restore_resolves_to_covering_checkpoint(self, kv):
        kv.put("k", "first")
        kv.obj.commit()          # checkpoint 1
        kv.obj.fast_forward(10)
        kv.put("k", "second")
        kv.obj.commit()          # checkpoint 10
        for _ in kv.obj.drain_sealed():
            pass
        assert kv.obj.restore(7) == 1
        assert kv.get("k") == "first"

    def test_restore_to_zero_empties(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        kv.obj.restore(0)
        assert kv.get("k") is None

    def test_version_strictly_advances_across_restore(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        before = kv.obj.version
        kv.obj.restore(1)
        assert kv.obj.version > before

    def test_double_restore_idempotent_state(self, kv):
        kv.put("k", "stable")
        kv.obj.commit()
        kv.put("k", "junk")
        kv.obj.restore(1)
        kv.obj.restore(1)
        assert kv.get("k") == "stable"


class TestWorldLineContract:
    def test_restore_advances_worldline(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        kv.obj.restore(1, world_line=3)
        assert kv.obj.world_line.current == 3

    def test_stale_request_rejected_after_restore(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        kv.obj.restore(1)
        with pytest.raises(WorldLineMismatch):
            kv.put("k", "late", world_line=0)

    def test_current_worldline_accepted(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        kv.obj.restore(1)
        result = kv.put("k", "new", world_line=kv.obj.world_line.current)
        assert result.world_line == kv.obj.world_line.current


class TestDurabilityAccounting:
    def test_checkpoint_bytes_positive(self, kv):
        kv.put("k", "v")
        descriptor = kv.obj.commit()
        assert kv.obj.checkpoint_bytes(descriptor.token.version) > 0

    def test_persisted_versions_sorted(self, kv):
        for index in range(3):
            kv.put("k", index)
            kv.obj.commit()
        versions = kv.obj.persisted_versions()
        assert versions == sorted(versions) == [1, 2, 3]

    def test_deps_recorded_per_version(self, kv):
        kv.put("k", "v", deps=[Token("other", 1)])
        descriptor = kv.obj.commit()
        assert Token("other", 1) in descriptor.deps
        kv.put("k", "w")
        assert kv.obj.commit().deps == frozenset()
