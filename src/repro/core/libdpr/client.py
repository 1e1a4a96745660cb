"""Client half of libDPR (§6).

A thin driver over :class:`repro.core.session.Session` with the
batch-oriented interface the D-Redis client wrapper uses: it stamps
each batch with a :class:`DprBatchHeader` (one seqno span per batch),
folds responses back into the session, tracks the committed prefix
against published cuts, and turns world-line bumps into
:class:`~repro.core.session.RollbackError` with the exact surviving
prefix.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.cuts import DprCut
from repro.core.libdpr.messages import BatchStatus, DprBatchHeader, DprBatchResponse
from repro.core.session import RollbackError, Session


class DprClientSession:
    """Session-based client interface with batching (Figure 9, left)."""

    def __init__(self, session_id: str, strict: bool = False):
        self.session = Session(session_id, strict=strict)

    @property
    def session_id(self) -> str:
        return self.session.session_id

    @property
    def committed_seqno(self) -> int:
        return self.session.committed_seqno

    @property
    def world_line(self) -> int:
        return self.session.world_line.current

    # -- outgoing ----------------------------------------------------------

    def prepare_batch(self, object_id: str, count: int,
                      now: float = 0.0) -> DprBatchHeader:
        """Assign seqnos to ``count`` operations and build the header."""
        if count < 1:
            raise ValueError("a batch contains at least one operation")
        span = self.session.issue(object_id, now=now, count=count)
        return DprBatchHeader(
            session_id=self.session.session_id,
            world_line=span.world_line,
            min_version=span.min_version,
            first_seqno=span.seqno,
            count=count,
            deps=span.deps,
        )

    # -- incoming -----------------------------------------------------------

    def absorb_response(self, response: DprBatchResponse,
                        now: float = 0.0) -> List[Any]:
        """Fold a server response into the session.

        Returns the per-operation results on success.  Raises
        :class:`RollbackError` when the server reports a world-line the
        session has not seen (the §4.2 REJECT path) — the error carries
        the surviving prefix computed against the last known cut.  The
        network is at-least-once: a second copy of any response changes
        nothing.
        """
        if response.status is BatchStatus.ROLLED_BACK:
            error = self.session.observe_failure(response.world_line, now=now)
            if error is None:
                return []  # a copy of a rollback already handled
            raise error
        if response.status is BatchStatus.RETRY:
            # Leave the ops pending; the caller re-sends the same batch.
            return []
        # Versions never decrease within a batch, so the last one is the
        # version the whole span is committed by.
        self.session.absorb(response.first_seqno, response.versions[-1],
                            now, response.object_id or None)
        return list(response.results)

    # -- commit tracking -------------------------------------------------------

    def refresh_commit(self, cut: DprCut, now: float = 0.0) -> int:
        """Fold a freshly published DPR-cut into the committed prefix."""
        self.session.refresh_commit(cut, now)
        return self.session.committed_seqno

    def committed(self, seqno: int) -> bool:
        """Whether operation ``seqno`` is covered by the guarantee."""
        if seqno > self.session.committed_seqno:
            return False
        return seqno not in self.session.committed_exceptions

    # -- failure handling ---------------------------------------------------------

    def observe_failure(self, new_world_line: int,
                        cut: Optional[DprCut] = None
                        ) -> Optional[RollbackError]:
        """Handle a world-line bump; returns the rollback error to raise
        (None if the session already is on that world-line)."""
        return self.session.observe_failure(new_world_line, cut)

    def acknowledge_rollback(self) -> None:
        self.session.acknowledge_rollback()
