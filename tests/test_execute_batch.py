"""One gated execute per batch: ``StateObject.execute_batch`` against
the per-op loop it replaced.

``DprServer.execute_ops`` used to run the §6 steps op by op: the
world-line gate once, then a full ``Op()`` per operation (the ``Vs``
fast-forward, the deps, the apply, the session watermark).
``per_op_batch`` below keeps that loop, written against the
StateObject's fields, as the reference model.  The property drives two
twin stores through the same random history, one through the reference
and one through ``execute_batch``, and after every step compares what
each returned or raised and everything DPR can observe of the store.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.finder import ApproximateDprFinder
from repro.core.libdpr import DprServer
from repro.core.state_object import InMemoryStateObject, WorldLineMismatch
from repro.core.versioning import Token
from repro.core.worldline import WorldLineDecision
from repro.faster.state_object import FasterStateObject
from repro.redisclone.state_object import RedisStateObject


def per_op_execute(obj, op, session_id, seqno, min_version, deps,
                   apply_override):
    """One ``Op()`` past the world-line gate, as the loop ran it."""
    if min_version > obj._version:
        obj.fast_forward(min_version)
    for dep in deps:
        if dep.object_id != obj.object_id:
            obj._pending_deps.add(dep)
    value = (apply_override(op) if apply_override is not None
             else obj.apply(op))
    obj._dirty = True
    obj.ops_executed += 1
    if session_id:
        prev = obj._session_watermarks.get(session_id, 0)
        if seqno > prev:
            obj._session_watermarks[session_id] = seqno
    return value, obj._version


def per_op_batch(obj, ops, session_id, first_seqno, world_line=None,
                 min_version=0, deps=(), apply_fn=None):
    """The reference: one gate per batch, then one ``Op()`` per op with
    the deps on the first.  Returns ``(versions, results)``."""
    if world_line is not None:
        decision = obj.world_line.gate(world_line)
        if decision is not WorldLineDecision.EXECUTE:
            raise WorldLineMismatch(decision, obj.world_line.current,
                                    world_line)
    versions, results = [], []
    for offset, op in enumerate(ops):
        value, version = per_op_execute(
            obj, op, session_id, first_seqno + offset, min_version, deps,
            apply_fn)
        deps = ()
        versions.append(version)
        results.append(value)
    return versions, results


def _in_memory():
    return InMemoryStateObject("A")


def _faster_fit():
    # Four buckets over eight keys: chains hold collisions.
    return FasterStateObject("A", bucket_count=4)


def _faster_spill():
    # Two records in memory: checkpoints flush the log, the head moves,
    # and cold reads come back as PendingMarkers.
    return FasterStateObject("A", bucket_count=4, memory_budget_records=2)


FASTER_OPS = (
    lambda k, v: ("upsert", k, v), lambda k, v: ("read", k),
    lambda k, v: ("incr", k, v), lambda k, v: ("delete", k))


def _redis():
    return RedisStateObject("A")


#: Per store: a factory, four op makers (picked by a drawn kind, given a
#: drawn key and value), and an op its apply raises on.
STORES = {
    "in-memory": (_in_memory, (
        lambda k, v: ("set", k, v), lambda k, v: ("get", k),
        lambda k, v: ("incr", k, v), lambda k, v: ("delete", k)),
        ("bogus",)),
    "faster-fit": (_faster_fit, FASTER_OPS, ("bogus",)),
    "faster-spill": (_faster_spill, FASTER_OPS, ("bogus",)),
    "redis": (_redis, (
        lambda k, v: ("SET", f"k{k}", str(v)), lambda k, v: ("GET", f"k{k}"),
        lambda k, v: ("RPUSH", "list", str(v)), lambda k, v: ("LPOP", "list")),
        ("NOPE",)),
}


def _routed(obj, op):
    """An ``apply_fn``: what a libDPR wrapper forwarding to an
    unmodified store looks like."""
    return ("routed", obj.apply(op))


def observe(obj):
    """Everything the DPR layer can see of a store."""
    view = {
        "version": obj.version,
        "dirty": obj.dirty,
        "ops_executed": obj.ops_executed,
        "commits": obj.commits,
        "world_line": obj.world_line.current,
        "watermarks": dict(obj._session_watermarks),
        "pending_deps": sorted(obj._pending_deps),
        "sealed": obj.sealed_descriptors(),
        "autosealed": list(obj._autosealed),
        "persisted": obj.persisted_versions(),
    }
    if isinstance(obj, FasterStateObject):
        kv = obj.kv
        view["faster"] = (kv.in_place_updates, kv.rcu_appends,
                          kv.reads_pending, kv.log.tail_address,
                          kv.log.head_address, kv.current_version)
    return view


def outcome(call):
    try:
        return "ok", call()
    except WorldLineMismatch as mismatch:
        return "refused", mismatch.decision
    except Exception as error:  # the raising op
        return "raised", (type(error), str(error))


batch = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                       st.integers(1, 9)), max_size=8),   # ops
    st.integers(-1, 2),                       # min_version - version
    st.lists(st.sampled_from(["A", "B", "C"]), max_size=3),  # dep owners
    st.sampled_from([None, None, 0, 0, 0, -1, 1]),  # world line - current
    st.one_of(st.none(), st.integers(0, 5)),  # raising op's position
    st.booleans(),                            # route through apply_fn
    st.sampled_from(["s1", "s2", ""]),        # session
    st.integers(0, 40),                       # first seqno
)
#: A step: a batch, or 1 Commit(), 2 seal without flushing, 3 flush
#: what fast-forwards sealed, 4 Restore() ``pick`` versions back.
steps = st.lists(st.one_of(
    batch.map(lambda drawn: (0, drawn)),
    st.tuples(st.integers(1, 4), st.integers(0, 3))), min_size=1, max_size=30)


class TestBatchMatchesPerOpLoop:
    @pytest.mark.parametrize("store", sorted(STORES))
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(history=steps)
    def test_same_results_and_state(self, store, history):
        factory, makers, raising = STORES[store]
        reference, batched = factory(), factory()
        for action, drawn in history:
            if action == 0:
                self._batch(reference, batched, makers, raising, *drawn)
            else:
                for obj in (reference, batched):
                    self._control(obj, action, drawn)
            assert observe(batched) == observe(reference)

    @staticmethod
    def _batch(reference, batched, makers, raising, op_draws, lag, owners,
               world_offset, raise_at, route, session_id, first_seqno):
        ops = [makers[kind](key, value) for kind, key, value in op_draws]
        if raise_at is not None and raise_at < len(ops):
            ops[raise_at] = raising
        min_version = reference.version + lag
        deps = tuple(Token(owner, max(1, min_version - index))
                     for index, owner in enumerate(owners))
        world_line = (None if world_offset is None
                      else reference.world_line.current + world_offset)

        def run(obj, execute):
            apply_fn = functools.partial(_routed, obj) if route else None
            return outcome(lambda: execute(
                obj, ops, session_id, first_seqno, world_line, min_version,
                deps, apply_fn))

        expected = run(reference, per_op_batch)
        got = run(batched, lambda obj, *args: obj.execute_batch(*args))
        if expected[0] != "ok":
            assert got == expected
            return
        versions, results = expected[1]
        version, batch_results = got[1]
        assert got[0] == "ok"
        assert versions == [version] * len(ops)
        assert batch_results == results

    @staticmethod
    def _control(obj, action, pick):
        if action == 1:
            obj.commit()
        elif action == 2:
            obj.seal_version()
        elif action == 3:
            for descriptor in obj.drain_sealed():
                obj.mark_persisted(descriptor.token.version)
        else:
            obj.restore(max(0, obj.version - pick))


class TestServerUsesOneBatch:
    def test_execute_ops_versions_are_equal(self):
        server = DprServer(InMemoryStateObject("A"), ApproximateDprFinder())
        server.state_object.execute(("set", "k", 1))
        status, versions, results = server.execute_ops(
            [("get", "k"), ("incr", "k", 2), ("get", "k")], "s", 1,
            world_line=0, min_version=3)
        assert status == "ok"
        assert versions == (3, 3, 3)
        assert results == (1, 3, 3)
        assert server.state_object.ops_executed == 4

    def test_refused_empty_batch_is_counted_and_changes_nothing(self):
        obj = InMemoryStateObject("A")
        server = DprServer(obj, ApproximateDprFinder())
        obj.execute(("set", "k", 1))
        obj.restore(0)  # world-line 1
        before = observe(obj)
        assert server.execute_ops([], "s", 1, world_line=0,
                                  min_version=9) == ("rolled_back", (), ())
        assert server.execute_ops([], "s", 1, world_line=2,
                                  min_version=9) == ("retry", (), ())
        assert (server.rejected_batches, server.delayed_batches) == (1, 1)
        assert server.execute_ops([], "s", 1, world_line=1,
                                  min_version=9) == ("ok", (), ())
        assert observe(obj) == before  # no fast-forward for no ops

