"""Tests for the libDPR client and server wrappers (§6)."""

import pytest

from repro.core import InMemoryStateObject
from repro.core.finder import ApproximateDprFinder, ExactDprFinder
from repro.core.libdpr import (
    BatchStatus,
    DprBatchHeader,
    DprClientSession,
    DprServer,
)
from repro.core.session import RollbackError
from repro.core.versioning import Token


@pytest.fixture
def stack():
    finder = ExactDprFinder()
    objects = {name: InMemoryStateObject(name) for name in "AB"}
    servers = {name: DprServer(obj, finder) for name, obj in objects.items()}
    return finder, objects, servers


def roundtrip(session, servers, object_id, *ops):
    header = session.prepare_batch(object_id, len(ops))
    response = servers[object_id].process_batch(header, list(ops))
    return session.absorb_response(response)


class TestBatchFlow:
    def test_results_returned_in_order(self, stack):
        _, _, servers = stack
        session = DprClientSession("c")
        values = roundtrip(session, servers, "A",
                           ("set", "x", 1), ("incr", "n"), ("get", "x"))
        assert values == [None, 1, 1]

    def test_header_carries_session_metadata(self, stack):
        _, _, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1))
        header = session.prepare_batch("B", 2)
        assert header.session_id == "c"
        assert header.first_seqno == 2
        assert header.count == 2
        assert header.deps == (Token("A", 1),)

    def test_batch_size_mismatch_rejected(self, stack):
        _, _, servers = stack
        session = DprClientSession("c")
        header = session.prepare_batch("A", 2)
        with pytest.raises(ValueError):
            servers["A"].process_batch(header, [("get", "x")])

    def test_empty_batch_rejected(self):
        session = DprClientSession("c")
        with pytest.raises(ValueError):
            session.prepare_batch("A", 0)

    def test_apply_fn_override(self, stack):
        _, objects, servers = stack
        session = DprClientSession("c")
        log = []
        header = session.prepare_batch("A", 1)
        response = servers["A"].process_batch(
            header, ["RAW COMMAND"],
            apply_fn=lambda op: log.append(op) or "custom",
        )
        assert session.absorb_response(response) == ["custom"]
        assert log == ["RAW COMMAND"]
        # DPR bookkeeping still ran on the StateObject.
        assert objects["A"].ops_executed == 1

    def test_version_fast_forward_via_header(self, stack):
        _, objects, servers = stack
        session = DprClientSession("c")
        # Seed the session with a high version from A.
        roundtrip(session, servers, "A", ("set", "x", 1))
        servers["A"].commit()
        servers["A"].commit()
        roundtrip(session, servers, "A", ("set", "x", 2))  # version 3
        roundtrip(session, servers, "B", ("set", "y", 1))
        assert objects["B"].version >= 3


class TestCommitTracking:
    def test_commit_and_refresh(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1), ("set", "y", 2))
        servers["A"].commit()
        session.refresh_commit(finder.tick())
        assert session.committed_seqno == 2
        assert session.committed(1)
        assert not session.committed(3)

    def test_cross_shard_dependency_gates_commit(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1))
        roundtrip(session, servers, "B", ("set", "y", 2))
        servers["B"].commit()  # B committed, but B-1 depends on A-1
        session.refresh_commit(finder.tick())
        assert session.committed_seqno == 0
        servers["A"].commit()
        session.refresh_commit(finder.tick())
        assert session.committed_seqno == 2


class TestWorldLineHandling:
    def test_stale_batch_rolled_back(self, stack):
        finder, objects, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1))
        servers["A"].commit()
        cut = finder.tick()
        session.refresh_commit(cut)
        servers["A"].restore(cut.version_of("A"), world_line=1)
        header = session.prepare_batch("A", 1)
        response = servers["A"].process_batch(header, [("get", "x")])
        assert response.status is BatchStatus.ROLLED_BACK
        with pytest.raises(RollbackError) as info:
            session.absorb_response(response)
        assert info.value.survived_seqno == 1
        session.acknowledge_rollback()
        assert session.world_line == 1

    def test_future_batch_delayed(self, stack):
        _, _, servers = stack
        session = DprClientSession("c")
        session.session.world_line.advance_to(2)
        header = session.prepare_batch("A", 1)
        response = servers["A"].process_batch(header, [("get", "x")])
        assert response.status is BatchStatus.RETRY
        # RETRY leaves ops pending for re-issue; no exception raised.
        assert session.absorb_response(response) == []
        assert servers["A"].delayed_batches == 1

    def test_rejected_batch_counts(self, stack):
        _, objects, servers = stack
        objects["A"].execute(("set", "k", 1))
        objects["A"].commit()
        objects["A"].restore(1)
        session = DprClientSession("c")
        header = session.prepare_batch("A", 1)
        servers["A"].process_batch(header, [("get", "k")])
        assert servers["A"].rejected_batches == 1


class TestServerCommit:
    def test_commit_reports_to_finder(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1))
        descriptor = servers["A"].commit()
        assert finder.graph.is_persisted(descriptor.token)

    def test_async_flush_fn(self):
        finder = ApproximateDprFinder()
        obj = InMemoryStateObject("A")
        flushed = []
        server = DprServer(obj, finder, flush_fn=flushed.append)
        obj.execute(("set", "x", 1))
        descriptor = server.commit()
        # Not durable until the injected flush completes it.
        assert obj.max_persisted_version == 0
        assert flushed == [descriptor]
        assert server.persisted(descriptor.token.version)
        assert obj.max_persisted_version == 1

    def test_fast_forward_to_vmax(self):
        finder = ApproximateDprFinder()
        fast = DprServer(InMemoryStateObject("A"), finder)
        slow = DprServer(InMemoryStateObject("B"), finder)
        for _ in range(4):
            fast.state_object.execute(("incr", "n"))
            fast.commit()
        slow.commit(finder.max_version())  # the §3.4 laggard rule
        assert slow.state_object.version >= 4

    def test_strict_session_through_libdpr(self, stack):
        _, _, servers = stack
        session = DprClientSession("c", strict=True)
        header = session.prepare_batch("A", 1)
        with pytest.raises(RuntimeError):
            session.prepare_batch("A", 1)  # in-flight batch blocks
        response = servers["A"].process_batch(header, [("get", "x")])
        session.absorb_response(response)
        session.prepare_batch("A", 1)  # fine now


class TestAtLeastOnceDelivery:
    """The network may duplicate or delay any response
    (docs/PROTOCOL.md §8); the client must fold each one once."""

    def test_duplicated_ok_response_is_folded_once(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        header = session.prepare_batch("A", 2)
        response = servers["A"].process_batch(
            header, [("set", "x", 1), ("get", "x")])
        assert session.absorb_response(response) == [None, 1]
        assert session.absorb_response(response) == [None, 1]
        # One completion: the next batch depends on A-1 exactly once,
        # and nothing is left in flight.
        assert session.session.outstanding_ops == 0
        assert session.prepare_batch("B", 1).deps == (Token("A", 1),)

    def test_response_arriving_after_the_commit_is_ignored(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        header = session.prepare_batch("A", 1)
        response = servers["A"].process_batch(header, [("set", "x", 1)])
        session.absorb_response(response)
        servers["A"].commit()
        session.refresh_commit(finder.tick())
        assert session.committed_seqno == 1
        session.absorb_response(response)  # the late copy
        assert session.committed_seqno == 1
        assert not session.session.window

    def test_duplicated_rollback_notice_raises_once(self, stack):
        finder, _, servers = stack
        session = DprClientSession("c")
        roundtrip(session, servers, "A", ("set", "x", 1))
        servers["A"].commit()
        cut = finder.tick()
        session.refresh_commit(cut)
        servers["A"].restore(cut.version_of("A"), world_line=1)
        header = session.prepare_batch("A", 1)
        response = servers["A"].process_batch(header, [("get", "x")])
        with pytest.raises(RollbackError):
            session.absorb_response(response)
        session.acknowledge_rollback()
        assert session.absorb_response(response) == []
        session.prepare_batch("A", 1)  # still usable: not re-broken
