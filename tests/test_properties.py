"""Property-based tests of the DPR correctness invariants (DESIGN.md §6).

Random multi-session traces with interleaved commits, crashes and
recoveries, checked against the §4.3 properties:

- *monotonicity* — no version depends on a larger version;
- *cut closure* — every published cut is transitively closed over
  persisted tokens;
- *prefix recoverability* — after a crash, exactly the operations the
  guarantee covers survive: all of them, and none after;
- *progress* — once the system quiesces, everything commits;
- *world-line isolation* — post-recovery operations never execute in a
  pre-recovery world-line.
"""

import random as pyrandom

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InMemoryStateObject
from repro.core.finder import (
    ApproximateDprFinder,
    ExactDprFinder,
    HybridDprFinder,
)
from repro.core.libdpr import DprClientSession, DprServer
from repro.core.recovery import RecoveryController
from repro.core.session import RollbackError
from repro.core.versioning import Token
from repro.faster.checkpoint import materialize
from repro.faster.store import FasterKV

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: A trace step: (session index, object index, action)
#: action: 0..7 = op, 8 = commit the target object, 9 = crash+recover.
trace_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 9)),
    min_size=5, max_size=60,
)


class Harness:
    """A 3-object, 3-session DPR deployment driven step by step."""

    def __init__(self, finder, seed=0):
        self.finder = finder
        self.objects = {
            f"o{i}": InMemoryStateObject(f"o{i}") for i in range(3)
        }
        self.servers = {
            name: DprServer(obj, self.finder)
            for name, obj in self.objects.items()
        }
        self.sessions = [DprClientSession(f"s{i}") for i in range(3)]
        self.controller = RecoveryController(self.finder)
        #: Ground truth: (session_id, seqno) -> (object, key, value,
        #: executed version) for every write no rollback has reported
        #: lost.  The harness keeps its own ledger: the session forgets
        #: a span the moment it commits.
        self.writes = {}
        self._counter = 0

    def step(self, session_index, object_index, action):
        session = self.sessions[session_index]
        object_id = f"o{object_index}"
        if action == 8:
            self.servers[object_id].commit()
            return
        if action == 9:
            self.crash_and_recover()
            return
        if session.session.status.value == "broken":
            session.acknowledge_rollback()
        self._counter += 1
        key = (session.session_id, self._counter)
        header = session.prepare_batch(object_id, 1)
        response = self.servers[object_id].process_batch(
            header, [("set", key, self._counter)])
        try:
            session.absorb_response(response)
        except RollbackError as error:
            self._forget_lost(session, error)
            return
        self.writes[(session.session_id, header.first_seqno)] = (
            object_id, key, self._counter, response.versions[0],
        )

    def _forget_lost(self, session, error):
        for seqno in error.lost:
            self.writes.pop((session.session_id, seqno), None)
        session.acknowledge_rollback()

    def crash_and_recover(self):
        self.finder.tick()
        self.controller.recover(self.objects)
        cut = self.finder.current_cut()
        for session in self.sessions:
            if session.world_line < self.controller.world_line:
                self._forget_lost(session, session.observe_failure(
                    self.controller.world_line, cut))

    def quiesce(self):
        """Drain: align versions, commit everything, publish."""
        top = max(obj.version for obj in self.objects.values())
        for name, server in self.servers.items():
            server.commit(top)
        return self.finder.tick()


@pytest.mark.parametrize("finder_cls", [
    ExactDprFinder, ApproximateDprFinder, HybridDprFinder,
])
class TestProtocolProperties:
    @SETTINGS
    @given(trace=trace_strategy)
    def test_monotonicity(self, finder_cls, trace):
        harness = Harness(finder_cls())
        for step in trace:
            harness.step(*step)
        # Every sealed descriptor on every object satisfies the rule.
        for obj in harness.objects.values():
            for version, descriptor in obj._sealed.items():
                for dep in descriptor.deps:
                    assert dep.version <= version

    @SETTINGS
    @given(trace=trace_strategy)
    def test_cut_is_closed_and_durable(self, finder_cls, trace):
        harness = Harness(finder_cls())
        for step in trace:
            harness.step(*step)
        cut = harness.finder.tick()
        for name, obj in harness.objects.items():
            position = cut.version_of(name)
            if position == 0:
                continue
            # Durability: the position resolves to a durable checkpoint
            # covering it under the dirty-seal invariant.
            for version, descriptor in obj._sealed.items():
                if version > position:
                    continue
                # Closure: all deps of covered versions are covered.
                for dep in descriptor.deps:
                    assert cut.version_of(dep.object_id) >= dep.version, (
                        f"cut {cut} not closed: {name}-{version} "
                        f"depends on {dep}"
                    )

    @SETTINGS
    @given(trace=trace_strategy)
    def test_prefix_recoverability(self, finder_cls, trace):
        harness = Harness(finder_cls())
        for step in trace:
            harness.step(*step)
        # Final crash: whatever the guarantee covered must survive,
        # and nothing after may.
        harness.finder.tick()
        cut_before = harness.finder.current_cut()
        harness.controller.recover(harness.objects)
        # "All of them": every op the cut covers is present — and
        # "none after": nothing it does not cover is.
        for (session_id, seqno), (object_id, key, value, version) in \
                harness.writes.items():
            covered = version <= cut_before.version_of(object_id)
            stored = harness.objects[object_id].get(key)
            if covered:
                assert stored == value, (
                    f"covered op {seqno} of {session_id} lost")
            else:
                assert stored is None, (
                    f"uncovered op {seqno} of {session_id} survived")
        # The sessions agree: folding the same cut leaves exactly the
        # uncovered ops in their windows.
        for session in harness.sessions:
            session.refresh_commit(cut_before)
            uncovered = sorted(
                seqno for (session_id, seqno), (object_id, _, _, version)
                in harness.writes.items()
                if session_id == session.session_id
                and version > cut_before.version_of(object_id))
            assert sorted(session.session.window) == uncovered

    @SETTINGS
    @given(trace=trace_strategy)
    def test_progress_after_quiesce(self, finder_cls, trace):
        harness = Harness(finder_cls())
        for step in trace:
            harness.step(*step)
        cut = harness.quiesce()
        for session in harness.sessions:
            session.refresh_commit(cut)
            live = [seqno for session_id, seqno in harness.writes
                    if session_id == session.session_id]
            if live:
                assert session.committed_seqno >= max(live)
            assert not session.session.window

    @SETTINGS
    @given(trace=trace_strategy)
    def test_runtime_audit_holds_throughout(self, finder_cls, trace):
        from repro.core.audit import audit_deployment
        harness = Harness(finder_cls())
        for index, step in enumerate(trace):
            harness.step(*step)
            if index % 7 == 0:
                harness.finder.tick()
                audit_deployment(harness.finder, harness.objects)
        harness.finder.tick()
        audit_deployment(harness.finder, harness.objects)

    @SETTINGS
    @given(trace=trace_strategy)
    def test_worldline_isolation(self, finder_cls, trace):
        harness = Harness(finder_cls())
        versions_at_recovery = {}
        for step in trace:
            if step[2] == 9:
                versions_at_recovery = {
                    name: obj.version
                    for name, obj in harness.objects.items()
                }
            harness.step(*step)
        for name, obj in harness.objects.items():
            assert obj.world_line.current == harness.controller.world_line
            if versions_at_recovery:
                # Post-recovery versions strictly exceed the shard's own
                # pre-failure in-progress version, so rolled-back token
                # numbers are never reused (§4.2 / §5.5).
                assert obj.version > versions_at_recovery[name]


class TestFasterProperties:
    @SETTINGS
    @given(
        commands=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 7),
                      st.integers(0, 100)),
            min_size=1, max_size=60,
        )
    )
    def test_rollback_equals_checkpoint_state(self, commands):
        """After rolling back to any checkpoint, the visible state is
        exactly the model state captured at that checkpoint."""
        kv = FasterKV(bucket_count=8)
        model = {}
        snapshots = {}
        for kind, key, value in commands:
            if kind == 0:
                kv.upsert(key, value)
                model[key] = value
            elif kind == 1:
                kv.delete(key)
                model.pop(key, None)
            elif kind == 2:
                outcome = kv.read(key)
                expected = model.get(key)
                if expected is None:
                    assert outcome.status != "ok" or outcome.value is None
                else:
                    assert outcome.value == expected
            else:
                info = kv.run_checkpoint_synchronously()
                snapshots[info.version] = dict(model)
        if snapshots:
            target = pyrandom.Random(len(commands)).choice(
                sorted(snapshots))
            kv.run_rollback_synchronously(target)
            assert materialize(kv) == snapshots[target]

    @SETTINGS
    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 100)),
            min_size=1, max_size=50,
        )
    )
    def test_read_your_writes_with_checkpoints(self, operations):
        kv = FasterKV(bucket_count=4)
        model = {}
        for index, (key, value) in enumerate(operations):
            kv.upsert(key, value)
            model[key] = value
            if index % 7 == 3:
                kv.run_checkpoint_synchronously()
            assert kv.read(key).value == value
        for key, value in model.items():
            assert kv.read(key).value == value
