"""Tests for client sessions and SessionOrders."""

import pytest

from repro.core.cuts import DprCut
from repro.core.session import RollbackError, Session, SessionStatus
from repro.core.versioning import Token


@pytest.fixture
def session():
    return Session("s1")


class TestIssueComplete:
    def test_seqnos_monotonic(self, session):
        first = session.issue("A")
        second = session.issue("B")
        assert (first.seqno, second.seqno) == (1, 2)

    def test_header_carries_vs(self, session):
        header = session.issue("A")
        session.complete(header.seqno, version=5)
        assert session.version_vector == 5
        assert session.issue("B").min_version == 5

    def test_vs_never_decreases(self, session):
        session.complete(session.issue("A").seqno, version=5)
        session.complete(session.issue("A").seqno, version=3)
        assert session.version_vector == 5

    def test_deps_are_recent_completions(self, session):
        session.complete(session.issue("A").seqno, version=2)
        header = session.issue("B")
        assert header.deps == (Token("A", 2),)
        # Cleared after attachment.
        assert session.issue("C").deps == ()

    def test_deps_merge_max_version(self, session):
        session.complete(session.issue("A").seqno, version=1)
        session.complete(session.issue("A").seqno, version=2)
        assert session.issue("B").deps == (Token("A", 2),)

    def test_double_complete_rejected(self, session):
        header = session.issue("A")
        session.complete(header.seqno, version=1)
        with pytest.raises(ValueError):
            session.complete(header.seqno, version=1)

    def test_pending_tracking(self, session):
        session.issue("A")
        header = session.issue("B")
        def pending():
            return [s.seqno for s in session.window.values()
                    if s.version is None]
        assert pending() == [1, 2]
        assert session.outstanding_ops == 2
        session.complete(header.seqno, version=1)
        assert pending() == [1]
        assert session.outstanding_ops == 1


class TestSpanIssue:
    """Batch issue: one record spanning ``count`` consecutive seqnos."""

    def test_span_allocates_contiguous_seqnos(self, session):
        header = session.issue("A", count=4)
        assert header.seqno == 1
        assert session.issue("B").seqno == 5
        assert session.window[1].op_count == 4
        assert session.window[1].last_seqno == 4

    def test_count_must_be_positive(self, session):
        with pytest.raises(ValueError):
            session.issue("A", count=0)

    def test_span_commits_whole(self, session):
        header = session.issue("A", count=3)
        session.complete(header.seqno, version=2)
        session.refresh_commit(DprCut.of(Token("A", 2)))
        assert session.committed_seqno == 3

    def test_span_lost_whole_on_failure(self, session):
        session.issue("A", count=3)
        error = session.observe_failure(1, DprCut())
        assert error.lost == (1, 2, 3)

    def test_complete_rebinds_executing_object(self, session):
        # §5.3 live rebalancing: issued against A, executed on B after
        # an ownership transfer — commit tracking must follow B's cut.
        header = session.issue("A", count=2)
        session.complete(header.seqno, version=3, object_id="B")
        assert session.window[header.seqno].object_id == "B"
        session.refresh_commit(DprCut.of(Token("A", 9)))
        assert session.committed_seqno == 0  # A's entry is irrelevant
        session.refresh_commit(DprCut.of(Token("B", 3)))
        assert session.committed_seqno == 2


class TestStrictMode:
    def test_strict_blocks_second_inflight(self):
        session = Session("s", strict=True)
        session.issue("A")
        with pytest.raises(RuntimeError):
            session.issue("B")

    def test_strict_allows_after_completion(self):
        session = Session("s", strict=True)
        header = session.issue("A")
        session.complete(header.seqno, version=1)
        session.issue("B")  # fine


class TestCommitTracking:
    def test_watermark_advances_with_cut(self, session):
        for obj, version in [("A", 1), ("B", 1), ("B", 2)]:
            header = session.issue(obj)
            session.complete(header.seqno, version=version)
        session.refresh_commit(DprCut.of(Token("A", 1), Token("B", 1)))
        assert session.committed_seqno == 2
        session.refresh_commit(DprCut.of(Token("A", 1), Token("B", 2)))
        assert session.committed_seqno == 3

    def test_watermark_monotonic(self, session):
        header = session.issue("A")
        session.complete(header.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        # A weaker cut never regresses the watermark.
        session.refresh_commit(DprCut())
        assert session.committed_seqno == 1

    def test_relaxed_pending_becomes_exception(self, session):
        session.issue("A")  # seqno 1 stays pending
        header = session.issue("A")
        session.complete(header.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_seqno == 2
        assert session.committed_exceptions == (1,)

    def test_exception_clears_when_resolved_and_covered(self, session):
        pending = session.issue("A")
        done = session.issue("A")
        session.complete(done.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_exceptions == (1,)
        session.complete(pending.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_exceptions == ()

    def test_fold_hands_back_the_spans_it_commits(self, session):
        # The driver's statistics hook: the fold that commits a span
        # returns it (once), with its issue time for latency math.
        header = session.issue("A", now=1.0, count=3)
        session.complete(header.seqno, version=1, now=2.0)
        assert session.refresh_commit(DprCut(), now=4.0) == []
        [span] = session.refresh_commit(DprCut.of(Token("A", 1)), now=5.0)
        assert span is header
        assert (span.issued_at, span.op_count, span.version) == (1.0, 3, 1)
        assert session.committed_ops == 3
        assert session.refresh_commit(DprCut.of(Token("A", 1)), now=6.0) == []

    def test_late_completion_below_watermark_stays_an_exception(self, session):
        # §5.4: the prefix passed seqno 1 while it was PENDING.  When it
        # resolves in a version no cut covers yet it is still excluded
        # from the guarantee — resolving is not committing.
        slow = session.issue("A")
        fast = session.issue("A")
        session.complete(fast.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        session.complete(slow.seqno, version=2)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_seqno == 2
        assert session.committed_exceptions == (1,)
        session.refresh_commit(DprCut.of(Token("A", 2)))
        assert session.committed_exceptions == ()

    def test_pending_span_excepts_every_seqno_it_covers(self, session):
        session.issue("A", count=3)  # seqnos 1..3 stay pending
        done = session.issue("A")
        session.complete(done.seqno, version=1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_seqno == 4
        assert session.committed_exceptions == (1, 2, 3)

    def test_commit_past_an_uncovered_span_joins_the_prefix_later(self, session):
        # Two views of one scan: span 2 retires as soon as its cut
        # lands (what throughput figures count) while the prefix waits
        # for span 1 — then jumps over both.
        first = session.issue("A")
        second = session.issue("B")
        session.complete(first.seqno, version=2)
        session.complete(second.seqno, version=1)
        assert session.refresh_commit(DprCut.of(Token("B", 1))) == [second]
        assert (session.committed_ops, session.committed_seqno) == (1, 0)
        assert session.refresh_commit(
            DprCut.of(Token("A", 2), Token("B", 1))) == [first]
        assert (session.committed_ops, session.committed_seqno) == (2, 2)


class TestBoundedWindow:
    """The session forgets what it no longer needs: memory and fold
    cost track the uncommitted window, not the run length."""

    def test_window_holds_only_uncommitted_spans(self, session):
        for round_ in range(1, 201):
            for _ in range(5):
                header = session.issue("A", count=8)
                session.complete(header.seqno, version=round_)
            if round_ % 2 == 0:
                session.refresh_commit(DprCut.of(Token("A", round_)))
                assert not session.window
            assert len(session.window) <= 10
        assert session.committed_seqno == 200 * 5 * 8
        assert session.committed_ops == 200 * 5 * 8
        pending = session.issue("A")
        assert list(session.window) == [pending.seqno]

    def test_fold_cost_tracks_the_window_not_the_history(self, session):
        # Count the spans a fold touches: after 1,000 committed spans a
        # fold over a 3-span window must look at 3, not 1,003.
        for index in range(1000):
            header = session.issue("A")
            session.complete(header.seqno, version=1)
            if index % 10 == 9:
                session.refresh_commit(DprCut.of(Token("A", 1)))
        for _ in range(3):
            session.complete(session.issue("A").seqno, version=2)

        class CountingWindow(dict):
            touched = 0

            def values(self):
                for span in super().values():
                    CountingWindow.touched += 1
                    yield span

        session.window = CountingWindow(session.window)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert CountingWindow.touched == 3

    def test_dropped_and_abandoned_spans_leave_the_window(self, session):
        refused = session.issue("A", count=4)
        stuck = session.issue("A", count=4)
        session.drop(refused.seqno)
        assert session.abandon(stuck.seqno) == 4
        assert not session.window
        assert (session.outstanding_ops, session.aborted_ops) == (0, 4)


class TestAtLeastOnce:
    """Duplicated and late responses (docs/PROTOCOL.md §8)."""

    def test_absorb_ignores_a_second_copy(self, session):
        header = session.issue("A", count=2)
        assert session.absorb(header.seqno, 3) == ()
        assert session.absorb(header.seqno, 3) is None
        assert (session.version_vector, session.outstanding_ops) == (3, 0)

    def test_absorb_ignores_a_reply_for_a_committed_span(self, session):
        header = session.issue("A")
        session.absorb(header.seqno, 1)
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.absorb(header.seqno, 1) is None

    def test_piggybacked_cut_is_folded_once_per_value(self, session):
        cut = DprCut.of(Token("A", 1))
        first = session.issue("A")
        second = session.issue("A")
        third = session.issue("A")
        assert session.absorb(first.seqno, 1, cut=cut) == [first]
        # The same cut again (by value) is not rescanned...
        assert session.absorb(second.seqno, 1, cut=DprCut({"A": 1})) == ()
        assert second.seqno in session.window
        # ...the next different one picks everything up.
        assert session.absorb(third.seqno, 2,
                              cut=DprCut.of(Token("A", 2))) == [second, third]

    def test_straggler_after_abandon_is_reconciled(self, session):
        header = session.issue("A", count=8)
        session.retry_attempts = 5
        session.abandon(header.seqno)
        assert session.aborted_ops == 8
        assert session.absorb(header.seqno, 1) == ()
        assert (session.aborted_ops, session.reconciled_ops) == (0, 8)
        assert session.retry_attempts == 0
        assert session.absorb(header.seqno, 1) is None  # and only once

    def test_rollback_forgets_abandoned_spans(self, session):
        header = session.issue("A", count=8)
        session.abandon(header.seqno)
        session.observe_failure(1, DprCut())
        assert session.absorb(header.seqno, 1) is None
        assert (session.aborted_ops, session.reconciled_ops) == (8, 0)

    def test_backoff_grows_resets_and_caps(self, session):
        session.backoff(now=1.0, base=2e-3, cap=0.1, jitter=1.0)
        assert session.paused_until == pytest.approx(1.0 + 2e-3)
        session.backoff(now=1.0, base=2e-3, cap=0.1, jitter=0.0)
        assert session.paused_until == pytest.approx(1.0 + 2e-3)  # 4ms / 2
        for _ in range(10):
            session.backoff(now=1.0, base=2e-3, cap=0.1, jitter=1.0)
        assert session.paused_until == pytest.approx(1.1)
        session.absorb(session.issue("A").seqno, 1)
        assert session.retry_attempts == 0

    def test_driver_chosen_keys_address_spans(self, session):
        span = session.issue("A", count=4, key="batch-7", tag=("payload",))
        assert span.seqno == 1 and span.tag == ("payload",)
        assert session.absorb(1, 1) is None  # not addressed by seqno
        assert session.absorb("batch-7", 1) == ()
        session.refresh_commit(DprCut.of(Token("A", 1)))
        assert session.committed_seqno == 4


class TestFailureHandling:
    def _filled(self, session):
        for obj, version in [("A", 1), ("B", 1), ("A", 2), ("B", 2)]:
            header = session.issue(obj)
            session.complete(header.seqno, version=version)

    def test_observe_failure_computes_survivors(self, session):
        self._filled(session)
        error = session.observe_failure(1, DprCut.of(Token("A", 1), Token("B", 1)))
        assert error.survived_seqno == 2
        assert error.lost == (3, 4)
        assert session.status is SessionStatus.BROKEN

    def test_broken_session_rejects_issue(self, session):
        self._filled(session)
        session.observe_failure(1, DprCut())
        with pytest.raises(RollbackError):
            session.issue("A")

    def test_acknowledge_resumes(self, session):
        self._filled(session)
        session.observe_failure(1, DprCut.of(Token("A", 1), Token("B", 1)))
        session.acknowledge_rollback()
        header = session.issue("A")
        assert header.world_line == 1
        assert header.seqno == 5  # seqnos keep increasing

    def test_pending_ops_lost_on_failure(self, session):
        session.issue("A")  # pending
        error = session.observe_failure(1, DprCut())
        assert error.lost == (1,)

    def test_duplicate_failure_notification_idempotent(self, session):
        self._filled(session)
        session.observe_failure(2, DprCut.of(Token("A", 1), Token("B", 1)))
        session.acknowledge_rollback()
        # A stale world-line does not move the session backwards.
        session.world_line.advance_to(1)
        assert session.world_line.current == 2

    def test_completion_after_loss_ignored(self, session):
        header = session.issue("A")
        session.observe_failure(1, DprCut())
        session.acknowledge_rollback()
        session.complete(header.seqno, version=9)  # op was lost: no-op
        assert session.version_vector == 0

    def test_duplicate_notification_returns_none(self, session):
        self._filled(session)
        assert session.observe_failure(1, DprCut()) is not None
        session.acknowledge_rollback()
        assert session.observe_failure(1, DprCut()) is None
        assert session.status is SessionStatus.ACTIVE

    def test_lost_is_exactly_what_the_cut_does_not_cover(self, session):
        # Span 2 (on B) is covered although span 1 (on A) is not: it
        # survives and the error says so — lost names seqno 1 only.
        first = session.issue("A")
        second = session.issue("B")
        session.complete(first.seqno, version=2)
        session.complete(second.seqno, version=1)
        error = session.observe_failure(1, DprCut.of(Token("B", 1)))
        assert error.lost == (1,)
        assert error.survived_seqno == 2
        assert error.committed == [second] and error.aborted == [first]
        assert (session.committed_ops, session.aborted_ops) == (1, 1)

    def test_rollback_clears_deps_and_window(self, session):
        self._filled(session)
        session.observe_failure(1, DprCut.of(Token("A", 1), Token("B", 1)))
        session.acknowledge_rollback()
        assert not session.window
        assert session.issue("A").deps == ()

    def test_notification_without_a_cut_uses_the_last_one_folded(self, session):
        self._filled(session)
        session.complete(session.issue("A").seqno, version=1)  # after the fold
        session.refresh_commit(DprCut.of(Token("A", 1), Token("B", 1)))
        error = session.observe_failure(1)
        assert error.survived_seqno == 5
        assert error.lost == (3, 4)
