"""The DPR client session (§2, §3.2, §3.3, §4.2, §5.4).

A session is a sequential logical thread of operations against the
sharded cache-store.  :class:`Session` is the *one* client half of the
DPR protocol in the repo: a sans-IO state machine at batch (span)
granularity — the granularity libDPR itself works at.  It never sends,
sleeps or draws randomness; drivers tell it what happened and when:

- assigns SessionOrder sequence numbers, a contiguous *span* per batch;
- carries the ``Vs`` scalar (largest version seen) on every request so
  StateObjects fast-forward and monotonicity holds (§3.2);
- attaches dependency tokens for the exact finder (§3.3);
- keeps a *bounded* window of uncommitted spans and folds DPR-cuts
  into it: spans the cut covers are retired (and handed to the driver
  for its statistics) and the committed prefix — watermark plus the
  §5.4 exception list — advances over them, in one scan;
- detects world-line bumps and computes what survived (§4.2);
- tolerates at-least-once delivery: duplicate and late responses are
  ignored, an abandoned batch whose reply straggles in is reconciled,
  and consecutive refusals back off exponentially.

Its drivers own only scheduling and routing:
:class:`repro.cluster.client.BatchSession` (closed-loop and co-located
clients), :class:`repro.workloads.openloop.OpenLoopDriver`,
:class:`repro.cluster.elastic.PartitionedClient` and
:class:`repro.core.libdpr.DprClientSession`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cuts import DprCut
from repro.core.versioning import Token
from repro.core.worldline import WorldLine

#: The client timings every driver of a :class:`Session` shares, in
#: seconds: the base RETRY backoff and its cap (:meth:`Session.backoff`),
#: and the pause after a world-line rollback before issuing again
#: (§7.4: "clients paused operations").
RETRY_DELAY = 2e-3
RETRY_BACKOFF_CAP = 0.1
RECOVERY_PAUSE = 20e-3


class SessionStatus(enum.Enum):
    ACTIVE = "active"
    #: A failure was observed; the application must acknowledge the
    #: surviving prefix (via :meth:`Session.acknowledge_rollback`)
    #: before issuing more operations.
    BROKEN = "broken"


#: ``issue`` tests the status once per batch; a module global is several
#: attribute reads cheaper than the member lookup through the enum class.
_BROKEN = SessionStatus.BROKEN


class Span:
    """One SessionOrder entry: ``op_count`` consecutive seqnos issued,
    executed, committed or lost as a unit.

    Doubles as the request header — ``seqno``, ``world_line``,
    ``min_version`` (``Vs`` at issue) and ``deps`` go on the wire — so
    the hot path allocates one object per batch.  ``key`` names the
    span in later calls (see :meth:`Session.issue`); ``tag`` is the
    driver's payload, never read here.
    """

    __slots__ = ("seqno", "object_id", "op_count", "issued_at", "world_line",
                 "min_version", "deps", "key", "tag", "version")

    def __init__(self, seqno: int, object_id: str, op_count: int,
                 issued_at: float, world_line: int, min_version: int,
                 deps: Tuple[Token, ...], key: Any, tag: Any = None):
        self.seqno = seqno
        self.object_id = object_id
        self.op_count = op_count
        self.issued_at = issued_at
        self.world_line = world_line
        self.min_version = min_version
        self.deps = deps
        self.key = key
        self.tag = tag
        #: Version the span executed in; None while PENDING.
        self.version: Optional[int] = None

    @property
    def last_seqno(self) -> int:
        return self.seqno + self.op_count - 1


class RollbackError(RuntimeError):
    """Raised when a failure cut operations from this session.

    Carries exactly what survived, as the paper promises ("the next
    call to DPR will return an error with the exact prefix that
    survived the failure"): every seqno up to ``survived_seqno`` not in
    ``lost``.  ``committed`` / ``aborted`` are the same split as spans
    (newly covered by the recovery cut / cut off) for drivers' stats.
    ``lost`` is derived from ``aborted`` on first read unless given, so
    a rollback costs its spans, not its ops.
    """

    def __init__(self, session_id: str, survived_seqno: int,
                 lost: Optional[Tuple[int, ...]], new_world_line: int,
                 committed: Sequence[Span] = (),
                 aborted: Sequence[Span] = ()):
        lost_ops = (len(lost) if lost is not None
                    else sum(span.op_count for span in aborted))
        super().__init__(
            f"session {session_id}: rolled back to seqno {survived_seqno}; "
            f"lost {lost_ops} operation(s); now on world-line {new_world_line}"
        )
        self.session_id = session_id
        self.survived_seqno = survived_seqno
        self._lost = lost
        self.new_world_line = new_world_line
        self.committed = committed
        self.aborted = aborted

    @property
    def lost(self) -> Tuple[int, ...]:
        """Every seqno the failure cut off, in span order."""
        if self._lost is None:
            self._lost = tuple(
                seqno for span in self.aborted
                for seqno in range(span.seqno, span.seqno + span.op_count))
        return self._lost


class Session:
    """A client session with DPR bookkeeping.

    ``strict=True`` enforces the original CPR ordering: at most one
    span in flight.  The default is relaxed DPR (§5.4), where many may
    be PENDING concurrently and the prefix guarantee carries an
    exception list.
    """

    def __init__(self, session_id: str, strict: bool = False):
        self.session_id = session_id
        self.strict = strict
        self.world_line = WorldLine()
        self.status = SessionStatus.ACTIVE
        #: Largest version number seen (the Lamport-style scalar Vs).
        self.version_vector = 0
        self._next_seqno = 1
        #: Uncommitted spans (in flight, or completed but uncovered) by
        #: key, in issue order.  Committed, dropped, abandoned and lost
        #: spans leave it: bounded by in-flight work plus commit lag.
        self.window: Dict[Any, Span] = {}
        #: Completions since the last issue: the next request's deps.
        self._recent: Dict[str, int] = {}
        #: Ops issued and not yet answered (what a send window bounds).
        self.outstanding_ops = 0
        #: Per-span ledgers: what the figures count.
        self.committed_ops = 0
        self.aborted_ops = 0
        #: Ops :meth:`abandon` wrote off whose reply straggled in.
        self.reconciled_ops = 0
        #: Largest seqno of the committed prefix (monotonic).
        self.committed_seqno = 0
        #: Sorted last seqnos committed *beyond* the prefix (an earlier
        #: span is still uncovered); absorbed once that span resolves.
        self._ahead: List[int] = []
        #: Versions of the last cut folded in.  Servers piggyback their
        #: cached cut on every reply; comparing by value (delivery may
        #: duplicate messages) avoids rescanning for every copy.
        self._last_cut: Optional[Dict[str, int]] = None
        #: Abandoned spans, kept so a straggling reply can reconcile.
        self._abandoned: Dict[Any, Span] = {}
        #: Consecutive refusals; drives :meth:`backoff`.
        self.retry_attempts = 0
        #: Drivers hold off issuing until then (RETRY backoff, §7.4
        #: recovery pause).
        self.paused_until = 0.0
        self._rollback: Optional[RollbackError] = None

    # -- issuing ------------------------------------------------------------

    def issue(self, object_id: str, now: float = 0.0, count: int = 1,
              key: Any = None, tag: Any = None) -> Span:
        """Start a batch of ``count`` operations against ``object_id``.

        Allocates seqnos ``[seqno, seqno+count-1]`` and returns the
        span, whose header fields go on the wire.  ``key`` is what
        :meth:`absorb`, :meth:`drop` and :meth:`abandon` will name the
        span by: its first seqno unless the driver's wire format echoes
        something else (cluster replies carry batch ids, not seqnos).
        """
        if self.status is _BROKEN:
            raise self._rollback
        if self.strict and self.outstanding_ops:
            raise RuntimeError(
                f"session {self.session_id} is strict: complete the "
                "in-flight operation before issuing another"
            )
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        recent = self._recent
        if recent:
            deps = tuple(Token(obj, ver) for obj, ver in recent.items())
            recent.clear()
        else:
            deps = ()
        seqno = self._next_seqno
        self._next_seqno = seqno + count
        if key is None:
            key = seqno
        span = self.window[key] = Span(
            seqno, object_id, count, now, self.world_line.current,
            self.version_vector, deps, key, tag)
        self.outstanding_ops += count
        return span

    @property
    def last_issued_seqno(self) -> int:
        return self._next_seqno - 1

    # -- responses ----------------------------------------------------------

    def absorb(self, key: Any, version: int, now: float = 0.0,
               object_id: Optional[str] = None,
               cut: Optional[DprCut] = None) -> Optional[Sequence[Span]]:
        """Fold one OK response; the path every driver shares.

        Idempotent, because the network is at-least-once: None means
        the response changed nothing (a duplicate, or the span was
        dropped or lost since).  Otherwise the span is now complete —
        or, if abandoned, reconciled — and the result is the spans the
        piggybacked ``cut`` committed (usually none).

        ``object_id`` rebinds the span to the shard that *actually*
        served it: under live rebalancing (§5.3) a batch can execute on
        another owner than it was issued against, and its version must
        be tested against the executing object's cut entry.
        """
        span = self.window.get(key)
        if span is None:
            return () if self.reconcile(key) else None
        if span.version is not None:
            return None
        self.retry_attempts = 0
        if object_id is not None:
            span.object_id = object_id
        span.version = version
        self.outstanding_ops -= span.op_count
        if version > self.version_vector:
            self.version_vector = version
        recent = self._recent
        if version > recent.get(span.object_id, 0):
            recent[span.object_id] = version
        if cut is not None and cut.versions != self._last_cut:
            return self.refresh_commit(cut, now)
        return ()

    def complete(self, key: Any, version: int, now: float = 0.0,
                 object_id: Optional[str] = None) -> None:
        """Record that span ``key`` executed in ``version``.

        The strict form of :meth:`absorb` for callers that own their
        transport: completing a span twice is their bug and raises.
        """
        span = self.window.get(key)
        if span is not None and span.version is not None:
            raise ValueError(f"op {key} already completed")
        self.absorb(key, version, now, object_id)

    def drop(self, key: Any) -> None:
        """Forget a span the server refused (RETRY / not_owner): its
        ops never ran."""
        span = self.window.pop(key, None)
        if span is not None and span.version is None:
            self.outstanding_ops -= span.op_count

    def abandon(self, key: Any) -> int:
        """Write a stuck in-flight span off as aborted (the broken-pipe
        analog); a straggling reply can still :meth:`reconcile` it.
        Returns the op count written off."""
        span = self.window.get(key)
        if span is None or span.version is not None:
            return 0
        del self.window[key]
        self.outstanding_ops -= span.op_count
        self.aborted_ops += span.op_count
        self._abandoned[key] = span
        return span.op_count

    def reconcile(self, key: Any) -> int:
        """A reply straggled in for an abandoned span: the ops *did*
        run, so move them from aborted to reconciled.  Returns how many
        (0 if ``key`` names no abandoned span)."""
        span = self._abandoned.pop(key, None)
        if span is None:
            return 0
        # It also proves the server is serving again; without the reset
        # one recovery window would permanently inflate the backoff.
        self.retry_attempts = 0
        self.aborted_ops -= span.op_count
        self.reconciled_ops += span.op_count
        return span.op_count

    def backoff(self, now: float, jitter: float) -> None:
        """Pause after a refusal: :data:`RETRY_DELAY` exponential in
        consecutive refusals, capped at :data:`RETRY_BACKOFF_CAP`,
        scaled into [1/2, 1] by the driver's ``jitter`` draw so a fleet
        of sessions does not hammer a recovering server in lockstep."""
        exponent = min(self.retry_attempts, 6)
        self.retry_attempts += 1
        delay = min(RETRY_DELAY * (2 ** exponent), RETRY_BACKOFF_CAP)
        delay *= 0.5 + 0.5 * jitter
        self.paused_until = max(self.paused_until, now + delay)

    # -- commit tracking ----------------------------------------------------

    def refresh_commit(self, cut: DprCut, now: float = 0.0) -> List[Span]:
        """Fold a DPR-cut into the window; returns the spans it commits.

        One scan, two views.  Per span: every completed span the cut
        covers is retired, whatever precedes it (relaxed DPR, §5.4).
        As a prefix: ``committed_seqno`` advances over retired spans up
        to the first completed-but-uncovered one; PENDING spans do not
        gate it and show up in :attr:`committed_exceptions` instead.
        """
        versions = cut.versions
        self._last_cut = dict(versions)
        covered = versions.get
        window = self.window
        watermark = self.committed_seqno
        retired: List[Span] = []
        # First completed-but-uncovered seqno beyond the prefix (what
        # the prefix already passed over is an exception, not a gate).
        blocker = 0
        prefix = 0  # how many of ``retired`` precede the blocker
        for span in window.values():
            version = span.version
            if version is None:
                continue
            if version <= covered(span.object_id, 0):
                retired.append(span)
            elif not blocker and span.seqno > watermark:
                blocker = span.seqno
                prefix = len(retired)
        ahead = self._ahead
        if retired:
            ops = 0
            for span in retired:
                del window[span.key]
                ops += span.op_count
            self.committed_ops += ops
            if not blocker:
                prefix = len(retired)
            if prefix:
                watermark = max(watermark, retired[prefix - 1].last_seqno)
            if prefix < len(retired):
                for span in retired[prefix:]:
                    insort(ahead, span.seqno + span.op_count - 1)
        if ahead:
            below = bisect_left(ahead, blocker or self._next_seqno)
            if below:
                watermark = max(watermark, ahead[below - 1])
                del ahead[:below]
        self.committed_seqno = watermark
        return retired

    @property
    def committed_exceptions(self) -> Tuple[int, ...]:
        """Seqnos below the watermark excluded from the guarantee (§5.4):
        passed over while PENDING and not covered by a cut since."""
        watermark = self.committed_seqno
        holes: List[int] = []
        for span in self.window.values():
            if span.seqno > watermark:
                break
            holes.extend(range(span.seqno, span.seqno + span.op_count))
        return tuple(holes)

    # -- failure handling ---------------------------------------------------

    def observe_failure(self, new_world_line: int,
                        cut: Optional[DprCut] = None,
                        now: float = 0.0) -> Optional[RollbackError]:
        """Handle a world-line bump: compute what survived.

        Everything ``cut`` covers survives (default: the last cut
        folded in); every other span, PENDING ones included, is lost.
        Returns None for a stale or duplicate notification.  Otherwise
        the session moves to the new world-line and BROKEN status, and
        :meth:`issue` raises the returned error until
        :meth:`acknowledge_rollback`.
        """
        if not self.world_line.advance_to(new_world_line):
            return None
        if cut is None:
            cut = DprCut(self._last_cut or {})
        committed = self.refresh_commit(cut, now)
        aborted = list(self.window.values())
        for span in aborted:
            self.aborted_ops += span.op_count
        self.window.clear()
        self.outstanding_ops = 0
        # With the lost spans gone nothing gates the prefix any more.
        if self._ahead:
            self.committed_seqno = max(self.committed_seqno, self._ahead[-1])
            self._ahead.clear()
        self._recent.clear()
        # Cached commit state dies with the old world-line: the next
        # piggybacked cut must be rescanned, and stragglers describe
        # rolled-back effects — they stay aborted, not reconciled.
        self._last_cut = None
        self._abandoned.clear()
        self.retry_attempts = 0
        self.status = SessionStatus.BROKEN
        self._rollback = RollbackError(
            self.session_id, self.committed_seqno, None,
            self.world_line.current, committed, aborted)
        return self._rollback

    def acknowledge_rollback(self) -> None:
        """Application acknowledges the surviving prefix; resume issuing."""
        self.status = SessionStatus.ACTIVE
