"""One DPR client session, several drivers.

Two checks that the protocol is stated once:

- a property test holding :class:`repro.core.session.Session`'s
  committed prefix — watermark plus §5.4 exception list — against the
  reference spec :func:`repro.core.cuts.guarantee_from_cut` over random
  issue / complete / drop / cut / rollback histories, with the oracle's
  ledger check (:func:`repro.core.audit.audit_sessions`) after every
  step;
- a conformance test pushing one scripted reply sequence (ok, duplicate
  ok, retry, not_owner, straggler after abandon, rolled_back with a
  cut) through the closed-loop client, the open-loop driver and the
  libDPR client, and requiring the session underneath each to end up in
  the same state.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.client import ClientMachine
from repro.cluster.elastic import PartitionedClient
from repro.cluster.messages import BatchReply
from repro.cluster.stats import ClusterStats
from repro.core.audit import audit_sessions
from repro.core.cuts import DprCut, guarantee_from_cut
from repro.core.libdpr import BatchStatus, DprBatchResponse, DprClientSession
from repro.core.session import RollbackError, Session
from repro.core.versioning import Token
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.workloads import YCSB_A
from repro.workloads.openloop import OpenLoopDriver

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

OBJECTS = ("A", "B", "C")
#: Stands in for "no version yet" in the reference's input: larger
#: than any cut, so a PENDING op is never covered.
UNRESOLVED = 10 ** 9

#: One step: (action, a, b).  0-3 issue, 4-6 complete, 7 drop,
#: 8 advance the cut and fold it, 9 roll back to the cut.
history_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 7), st.integers(0, 7)),
    min_size=1, max_size=80,
)


class ReferenceModel:
    """The unbounded history the session no longer keeps, fed to
    ``guarantee_from_cut`` after every fold."""

    def __init__(self):
        #: first seqno -> [object, op count, version or None]
        self.spans = {}
        self.cut = {name: 0 for name in OBJECTS}
        #: Seqnos the prefix passed over while they were PENDING: an
        #: op once carved out as an exception stays out of the prefix's
        #: way until a cut covers it (§5.4), resolved or not.
        self.relaxed = set()

    def pending(self):
        return [seqno for seqno, span in self.spans.items()
                if span[2] is None]

    def covered(self, span):
        return span[2] is not None and span[2] <= self.cut[span[0]]

    def forget(self, seqno):
        _, count, _ = self.spans.pop(seqno)
        self.relaxed -= set(range(seqno, seqno + count))

    def guarantee(self):
        ops, unresolved = [], set(self.relaxed)
        for first, (object_id, count, version) in self.spans.items():
            for seqno in range(first, first + count):
                if version is None:
                    unresolved.add(seqno)
                ops.append((seqno, object_id,
                            UNRESOLVED if version is None else version))
        guarantee = guarantee_from_cut(
            DprCut(self.cut), {"s": ops}, {"s": unresolved})
        self.relaxed |= set(guarantee.exceptions.get("s", ()))
        return guarantee.watermark("s"), guarantee.exceptions.get("s", ())

    def committed_ops(self):
        return sum(span[1] for span in self.spans.values()
                   if self.covered(span))


class TestPrefixMatchesReferenceSpec:
    @SETTINGS
    @given(history=history_strategy)
    def test_watermark_and_exceptions_equal_guarantee_from_cut(self, history):
        session = Session("s")
        model = ReferenceModel()
        world_line = 0
        for action, a, b in history:
            if action <= 3:
                span = session.issue(OBJECTS[a % 3], count=1 + b % 3)
                model.spans[span.seqno] = [span.object_id, span.op_count,
                                           None]
                continue
            if action <= 7:
                pending = model.pending()
                if not pending:
                    continue
                seqno = pending[a % len(pending)]
                if action == 7:
                    session.drop(seqno)
                    model.forget(seqno)
                else:
                    session.complete(seqno, version=1 + b)
                    model.spans[seqno][2] = 1 + b
                continue
            if action == 8:
                model.cut[OBJECTS[a % 3]] += 1 + b % 2
                session.refresh_commit(DprCut(dict(model.cut)))
            else:
                world_line += 1
                error = session.observe_failure(
                    world_line, DprCut(dict(model.cut)))
                session.acknowledge_rollback()
                lost = [seqno for seqno, span in model.spans.items()
                        if not model.covered(span)]
                expected_lost = sorted(
                    op for seqno in lost
                    for op in range(seqno, seqno + model.spans[seqno][1]))
                assert list(error.lost) == expected_lost
                for seqno in lost:
                    model.forget(seqno)
                assert not session.window
            watermark, exceptions = model.guarantee()
            assert session.committed_seqno == watermark
            assert session.committed_exceptions == exceptions
            if action == 9:
                assert error.survived_seqno == watermark
            # The per-span view of the same scan: what the figures count.
            assert session.committed_ops == model.committed_ops()
            audit_sessions([session])
            # Bounded: only what no cut covers yet is still tracked.
            assert sorted(session.window) == sorted(
                seqno for seqno, span in model.spans.items()
                if not model.covered(span))


# ---------------------------------------------------------------------------
# conformance: one reply script, three drivers
# ---------------------------------------------------------------------------

OPS = 32  # ops per batch in every rig


class ClosedLoopRig:
    """``ClientMachine`` + ``BatchSession`` (also what the co-located
    driver runs), replies injected at the inbox handler."""

    def __init__(self):
        self.env = Environment()
        net = Network(self.env)
        net.register("worker-0")
        self.machine = ClientMachine(
            self.env, net, "client-0", ["worker-0"], YCSB_A,
            ClusterStats(), batch_size=OPS, n_threads=1, rng=1)
        [self.batch_session] = self.machine.sessions.values()
        self.core = self.batch_session.session

    def send(self):
        request = self.batch_session.new_batch(
            "worker-0", OPS, OPS // 2, self.env.now, "client-0")
        header = (request.world_line, request.min_version, request.deps)
        return request.batch_id, header

    def reply(self, handle, status, object_id="worker-0", version=0,
              world_line=0, cut=None):
        self.machine._on_reply(SimpleNamespace(payload=BatchReply(
            handle, self.core.session_id, object_id, status, world_line,
            version, OPS, cut)))

    def abandon(self, handle):
        self.batch_session.abandon(self.batch_session.records[handle],
                                   self.env.now)


class OpenLoopRig:
    """``OpenLoopDriver`` with its arrival pump stopped: batches are
    dispatched from hand-admitted sessions, replies injected at the
    inbox handler."""

    SESSIONS = OPS // OpenLoopDriver.OPS

    def __init__(self):
        self.env = Environment()
        net = Network(self.env)
        net.register("worker-0")
        self.driver = OpenLoopDriver(
            self.env, net, "openloop-0", ["worker-0"],
            scenario={"session": {"coalesce": self.SESSIONS}},
            rng=1)
        self.driver.stop()
        self.core = self.driver.session
        self._written_off = set()

    def send(self):
        driver = self.driver
        fresh = self.SESSIONS - len(driver.admit)  # a retry re-admits
        driver.table.arrive(
            fresh, driver.admit.offer(((self.env.now, fresh),)))
        driver._dispatch()
        span = list(self.core.window.values())[-1]
        return span.key, (span.world_line, span.min_version, span.deps)

    def reply(self, handle, status, object_id="worker-0", version=0,
              world_line=0, cut=None):
        if handle in self._written_off and status == "ok":
            self._written_off.remove(handle)
            self.core.absorb(handle, version, self.env.now, object_id, cut)
            return
        self.driver._on_reply(SimpleNamespace(payload=BatchReply(
            handle, "openloop-0", object_id, status, world_line, version,
            OPS, cut)))

    def abandon(self, handle):
        # The open-loop driver has no timeout sweeper; writing a batch
        # off (and the straggler that follows) exists only one level
        # down, on its session.
        self.core.abandon(handle)
        self._written_off.add(handle)


class LibDprRig:
    """``DprClientSession``: responses carry no cut (the application
    polls the finder), refusals are re-sent rather than re-issued, and
    nothing paces it — so a RETRY only leaves the batch pending."""

    def __init__(self):
        self.client = DprClientSession("libdpr")
        self.core = self.client.session
        self._resend = None

    def send(self):
        header = self._resend or self.client.prepare_batch("worker-0", OPS)
        self._resend = None
        return header, (header.world_line, header.min_version, header.deps)

    def reply(self, handle, status, object_id="worker-0", version=0,
              world_line=0, cut=None):
        if status in ("retry", "not_owner"):
            assert self.client.absorb_response(DprBatchResponse(
                "libdpr", BatchStatus.RETRY, world_line,
                handle.first_seqno)) == []
            self._resend = handle
            return
        if status == "rolled_back":
            try:
                self.client.absorb_response(DprBatchResponse(
                    "libdpr", BatchStatus.ROLLED_BACK, world_line,
                    handle.first_seqno))
            except RollbackError:
                self.client.acknowledge_rollback()
            return
        self.client.absorb_response(DprBatchResponse(
            "libdpr", BatchStatus.OK, world_line, handle.first_seqno,
            versions=(version,) * OPS, results=(None,) * OPS,
            object_id=object_id))
        if cut is not None:
            self.client.refresh_commit(cut)

    def abandon(self, handle):
        self.core.abandon(handle.first_seqno)


def snapshot(core):
    """What the script compares across drivers.  Not the seqnos, nor
    ops in flight while a refusal is being retried: the fleet drivers
    drop a refused batch and re-issue it under fresh seqnos, libDPR
    keeps it pending and re-sends it."""
    return {
        "Vs": core.version_vector,
        "world_line": core.world_line.current,
        "committed_ops": core.committed_ops,
        "aborted_ops": core.aborted_ops,
        "reconciled_ops": core.reconciled_ops,
    }


class TestDriversConform:
    def test_every_driver_holds_the_core_session(self):
        env = Environment()
        net = Network(env)
        partitioned = PartitionedClient(env, net, "pclient", None, None)
        for rig in (ClosedLoopRig(), OpenLoopRig(), LibDprRig()):
            assert type(rig.core) is Session
        assert type(partitioned.session) is Session

    def test_same_reply_script_same_session_state(self):
        rigs = [ClosedLoopRig(), OpenLoopRig(), LibDprRig()]

        def each(step):
            results = [step(rig) for rig in rigs]
            assert results[0] == results[1] == results[2], results
            return results

        def send_all(resend=None):
            sent = [rig.send() for rig in rigs]
            headers = [header for _handle, header in sent]
            assert headers[0] == headers[1], headers
            # After a refusal libDPR re-sends the refused header as is.
            assert headers[2] == (resend or headers[0]), headers
            return [handle for handle, _header in sent], headers[0]

        def reply_all(handles, status, **fields):
            for rig, handle in zip(rigs, handles):
                rig.reply(handle, status, **fields)
            return each(lambda rig: snapshot(rig.core))[0]

        cut1 = DprCut({"shard-A": 1})
        cut2 = DprCut({"shard-A": 2, "shard-B": 2})

        # 1. ok, served by a different shard than addressed (§5.3).
        first, header = send_all()
        assert header == (0, 0, ())
        state = reply_all(first, "ok", object_id="shard-A", version=1)
        assert state["Vs"] == 1
        assert each(lambda rig: rig.core.outstanding_ops) == [0, 0, 0]

        # 2. the same reply again: nothing moves.
        assert reply_all(first, "ok", object_id="shard-A", version=1) == state

        # 3. the next batch carries the dep and Vs; the server refuses
        #    it (RETRY): the ops never ran.
        second, refused = send_all()
        assert refused == (0, 1, (Token("shard-A", 1),))
        reply_all(second, "retry")
        assert [rig.core.outstanding_ops for rig in rigs] == [0, 0, OPS]
        for rig in rigs[:2]:
            assert rig.core.paused_until > rig.env.now
            assert rig.core.retry_attempts == 1
            rig.core.paused_until = 0.0

        # 4. re-issued (fleet) or re-sent (libDPR), bounced off a stale
        #    owner map this time, then served by shard-B with a cut that
        #    commits batch 1.
        third, header = send_all(resend=refused)
        # (The fleet's re-issue has spent its deps on the refused
        # batch; Vs still orders it after shard-A's version 1.)
        assert header == (0, 1, ())
        reply_all(third, "not_owner")
        for rig in rigs[:2]:
            rig.core.paused_until = 0.0
        fourth, _ = send_all(resend=refused)
        state = reply_all(fourth, "ok", object_id="shard-B", version=2,
                          cut=cut1)
        assert state == {"Vs": 2, "world_line": 0, "committed_ops": OPS,
                         "aborted_ops": 0, "reconciled_ops": 0}
        assert each(lambda rig: rig.core.outstanding_ops) == [0, 0, 0]
        assert each(lambda rig: rig.core.retry_attempts) == [0, 0, 0]

        # 5. a batch the client gives up on, whose reply straggles in.
        fifth, header = send_all()
        assert header == (0, 2, (Token("shard-B", 2),))
        for rig, handle in zip(rigs, fifth):
            rig.abandon(handle)
        assert each(lambda rig: snapshot(rig.core))[0]["aborted_ops"] == OPS
        state = reply_all(fifth, "ok", object_id="shard-A", version=2)
        assert (state["aborted_ops"], state["reconciled_ops"]) == (0, OPS)
        assert state["Vs"] == 2  # a straggler teaches the session nothing

        # 6. three more: one the recovery cut will cover, one it will
        #    not, one still in flight — then the world-line bumps.
        sixth, _ = send_all()
        reply_all(sixth, "ok", object_id="shard-A", version=2)
        seventh, _ = send_all()
        reply_all(seventh, "ok", object_id="shard-B", version=3, cut=cut2)
        eighth, header = send_all()
        assert header == (0, 3, (Token("shard-B", 3),))
        state = reply_all(eighth, "rolled_back", world_line=1, cut=cut2)
        assert state == {"Vs": 3, "world_line": 1,
                         "committed_ops": 3 * OPS, "aborted_ops": 2 * OPS,
                         "reconciled_ops": OPS}
        for rig in rigs:
            assert not rig.core.window and not rig.core.outstanding_ops

        # 7. a second copy of the notice, and a straggler from the old
        #    world-line: both ignored.
        assert reply_all(eighth, "rolled_back", world_line=1,
                         cut=cut2) == state
        assert reply_all(eighth, "ok", object_id="shard-A",
                         version=3) == state

        # 8. life goes on, on the new world-line, with no stale deps.
        for rig in rigs[:2]:
            rig.core.paused_until = 0.0
        _, header = send_all()
        assert header == (1, 3, ())
