"""StateObject conformance suite.

Every cache-store integration — the in-memory reference, FASTER, the
Redis clone and the benchmark's payload-free ``ModeledStore`` — must
honour the same DPR contract.  The suite drives each implementation
through an implementation-agnostic facade and checks the §3/§4
obligations: version arithmetic, the dirty-seal invariant, world-line
behaviour and durability accounting for every ``StateObject`` subclass
in ``repro`` (a subclass that bypasses the base class's version
machinery fails here), plus cumulative restores and commit/restore
idempotence over the values of the stores that keep values.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.cluster.modeled import ModeledStore
from repro.core.state_object import (
    InMemoryStateObject,
    StateObject,
    WorldLineMismatch,
)
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
        if isinstance(self.obj, ModeledStore):
            return self.obj.execute(("batch", 1, 1), **kwargs)
        return self.obj.execute(("set", key, value), **kwargs)

    def get(self, key):
        if isinstance(self.obj, RedisStateObject):
            return self.obj.execute(("GET", key)).value
        return self.obj.execute(("get", key)).value


#: Stores that keep values: the value-level restore tests read them back.
IMPLEMENTATIONS = [
    pytest.param(lambda: InMemoryStateObject("X"), id="in-memory"),
    pytest.param(lambda: FasterStateObject("X", bucket_count=16),
                 id="faster"),
    pytest.param(lambda: RedisStateObject("X"), id="redis"),
]

#: Every StateObject subclass in ``repro``: the version-level suites.
VERSIONED = IMPLEMENTATIONS + [
    pytest.param(lambda: ModeledStore("X"), id="modeled"),
]


@pytest.fixture(params=VERSIONED)
def kv(request):
    return _KvFacade(request.param())


@pytest.fixture(params=IMPLEMENTATIONS)
def kv_values(request):
    return _KvFacade(request.param())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_state_object_subclass_is_in_the_suite():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    shipped = {cls for cls in _subclasses(StateObject)
               if cls.__module__.startswith("repro.")}
    assert {type(param.values[0]()) for param in VERSIONED} == shipped


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
    def test_restore_erases_uncommitted(self, kv_values):
        kv_values.put("k", "committed")
        kv_values.obj.commit()
        kv_values.put("k", "uncommitted")
        kv_values.obj.restore(1)
        assert kv_values.get("k") == "committed"

    def test_restore_is_cumulative(self, kv_values):
        for index in range(3):
            kv_values.put(f"k{index}", f"v{index}")
            kv_values.obj.commit()
        kv_values.obj.restore(2)
        assert kv_values.get("k0") == "v0"
        assert kv_values.get("k1") == "v1"
        assert kv_values.get("k2") is None

    def test_restore_resolves_to_covering_checkpoint(self, kv_values):
        kv_values.put("k", "first")
        kv_values.obj.commit()          # checkpoint 1
        kv_values.obj.fast_forward(10)
        kv_values.put("k", "second")
        kv_values.obj.commit()          # checkpoint 10
        for _ in kv_values.obj.drain_sealed():
            pass
        assert kv_values.obj.restore(7) == 1
        assert kv_values.get("k") == "first"

    def test_restore_to_zero_empties(self, kv_values):
        kv_values.put("k", "v")
        kv_values.obj.commit()
        kv_values.obj.restore(0)
        assert kv_values.get("k") is None

    def test_version_strictly_advances_across_restore(self, kv):
        kv.put("k", "v")
        kv.obj.commit()
        before = kv.obj.version
        kv.obj.restore(1)
        assert kv.obj.version > before

    def test_double_restore_idempotent_state(self, kv_values):
        kv_values.put("k", "stable")
        kv_values.obj.commit()
        kv_values.put("k", "junk")
        kv_values.obj.restore(1)
        kv_values.obj.restore(1)
        assert kv_values.get("k") == "stable"


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
