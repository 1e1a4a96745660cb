"""The DPR server gate: server half of libDPR (§6, Figure 9 right).

``DprServer`` wraps *any* StateObject — for D-Redis the StateObject is
an unmodified Redis instance behind a thin adapter — and is the one
implementation of the server side of the protocol.  It is sans-IO: it
never sends, sleeps or spawns; a host calls it and performs the I/O.

- **admit**: a bounded ``(session_id, batch_id)`` reply memo makes the
  server idempotent under at-least-once delivery — a duplicate of a
  served batch is answered from the memo, a duplicate of a batch still
  in service is dropped;
- **execute**: the world-line gate (§4.2: reject batches from a stale
  world-line, delay batches from the future), the ``Vs`` fast-forward
  (§3.2), dependency recording (§3.1), then the cache-store — always in
  that order, at the moment of execution.  Versions a fast-forward
  seals implicitly are reported and flushed (FIFO) before the call
  returns;
- **commit / persisted**: ``Commit()`` with the §3.4 laggard rule, and
  the completion of its flush — dropped when a rollback erased the
  version while the flush was in flight;
- **restore**: ``Restore()`` to a cut on a new world-line.

Seals and flush completions go to ``finder`` through the two-method
report interface (``report_seal`` / ``report_persisted``); the
constructor also announces the shard with ``register_object`` (every
in-process caller relies on that).  In-process deployments pass a
:class:`~repro.core.finder.base.DprFinder`; the simulated cluster's
hosts (D-FASTER worker, D-Redis proxy, replica, co-located driver) pass
themselves and turn the reports into network messages — their
membership is the finder service's, so their ``register_object`` does
nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Sequence, Tuple

from repro.core.libdpr.messages import BatchStatus, DprBatchHeader, DprBatchResponse
from repro.core.state_object import StateObject, WorldLineMismatch
from repro.core.versioning import CommitDescriptor
from repro.core.worldline import WorldLineDecision

#: Batch dispositions as they travel in reply headers.
OK = BatchStatus.OK.value
ROLLED_BACK = BatchStatus.ROLLED_BACK.value
RETRY = BatchStatus.RETRY.value

#: Replies memoized per gate for duplicate suppression.  Far larger
#: than any plausible in-flight window (clients keep ~2 batches per
#: server outstanding), so a duplicate essentially always finds its
#: original's reply still cached.
REPLY_MEMO = 4096

#: :meth:`DprServer.admit` result for a duplicate whose original is
#: still in service (its reply will answer both copies).
IN_SERVICE = object()


class DprServer:
    """The DPR server gate around one StateObject."""

    def __init__(
        self,
        state_object: StateObject,
        finder,
        flush_fn: Optional[Callable[[CommitDescriptor], None]] = None,
    ):
        self.state_object = state_object
        #: Receives ``report_seal(descriptor)`` / ``report_persisted(token)``
        #: (and one ``register_object`` call, below).
        self.finder = finder
        #: Makes a sealed version durable and (eventually) calls
        #: :meth:`persisted`.  The default flushes synchronously; the
        #: simulated cluster injects an async storage write instead.
        self._flush_fn = flush_fn or self._flush_synchronously
        finder.register_object(state_object.object_id)
        #: Batches delayed because the client is on a future world-line.
        self.delayed_batches = 0
        self.rejected_batches = 0
        #: Duplicate batches suppressed by :meth:`admit`.
        self.duplicate_batches = 0
        #: (session_id, batch_id) -> the host's reply, insertion order.
        self._replies: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Batches admitted but not yet remembered or released.
        self._in_service: set = set()

    def _flush_synchronously(self, descriptor: CommitDescriptor) -> None:
        self.persisted(descriptor.token.version)

    @property
    def object_id(self) -> str:
        return self.state_object.object_id

    @property
    def world_line(self) -> int:
        return self.state_object.world_line.current

    # -- the reply memo (at-least-once delivery) ---------------------------

    def admit(self, key: Hashable) -> Any:
        """Admit a batch for service unless it is a duplicate.

        Returns None for a new batch (now in service), the remembered
        reply for a duplicate of a served batch — re-executing would
        double-apply its ops — or :data:`IN_SERVICE` for a duplicate of
        a batch whose original has not replied yet.
        """
        cached = self._replies.get(key)
        if cached is not None:
            self.duplicate_batches += 1
            return cached
        if key in self._in_service:
            self.duplicate_batches += 1
            return IN_SERVICE
        self._in_service.add(key)
        return None

    def remember(self, key: Hashable, reply: Any) -> None:
        """The batch was served: memoize its reply (bounded, FIFO)."""
        self._in_service.discard(key)
        self._replies[key] = reply
        while len(self._replies) > REPLY_MEMO:
            self._replies.popitem(last=False)

    def release(self, key: Hashable) -> None:
        """The batch left service with a reply that must not be cached
        (an ownership bounce: the same id may legitimately return)."""
        self._in_service.discard(key)

    def forget(self) -> None:
        """A crash: the memo is volatile.  Post-restart duplicates of
        pre-crash batches are world-line-gated instead."""
        self._replies.clear()
        self._in_service.clear()

    # -- the per-batch path ------------------------------------------------

    def check(self, world_line: int) -> str:
        """The §4.2 world-line gate alone: would a batch run right now?"""
        decision = self.state_object.world_line.gate(world_line)
        if decision is WorldLineDecision.EXECUTE:
            return OK
        return self._refuse(decision)

    def _refuse(self, decision: WorldLineDecision) -> str:
        if decision is WorldLineDecision.REJECT:
            self.rejected_batches += 1
            return ROLLED_BACK
        self.delayed_batches += 1
        return RETRY

    def execute(self, op: Any, session_id: str, seqno: int,
                world_line: Optional[int] = None, min_version: int = 0,
                deps: Sequence = ()) -> Tuple[str, int]:
        """Batch-granular gated ``Op()``: ``op`` stands for a whole
        batch executed under one shared latch, ``seqno`` is its last
        sequence number.  Returns ``(status, version)``.

        ``world_line=None`` skips the gate (a replication stream is its
        own ordering authority; so is a deployment with DPR off).
        """
        try:
            outcome = self.state_object.execute(
                op, session_id=session_id, seqno=seqno,
                min_version=min_version, deps=deps, world_line=world_line)
        except WorldLineMismatch as mismatch:
            return self._refuse(mismatch.decision), 0
        sealed = self.state_object.drain_sealed()
        if sealed:  # rare: keep the per-batch path one frame deep
            self._report_autosealed(sealed)
        return OK, outcome.version

    def execute_ops(
        self, ops: Sequence[Any], session_id: str, first_seqno: int,
        world_line: Optional[int] = None, min_version: int = 0,
        deps: Sequence = (), apply_fn: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[str, Tuple[int, ...], Tuple]:
        """Op-granular gated execute.  Returns ``(status, versions,
        results)`` with one entry per operation in batch order.

        ``apply_fn`` overrides the StateObject's own ``apply`` — the
        D-Redis wrapper passes the function that forwards a command to
        the real Redis instance.
        """
        if world_line is not None:
            status = self.check(world_line)
            if status != OK:
                return status, (), ()
        versions = []
        results = []
        for offset, op in enumerate(ops):
            outcome = self.state_object.execute(
                op, session_id=session_id, seqno=first_seqno + offset,
                min_version=min_version, deps=deps, apply_override=apply_fn)
            deps = ()  # deps attach once per batch
            versions.append(outcome.version)
            results.append(outcome.value)
        self._report_autosealed(self.state_object.drain_sealed())
        return OK, tuple(versions), tuple(results)

    def process_batch(
        self,
        header: DprBatchHeader,
        ops: Sequence[Any],
        apply_fn: Optional[Callable[[Any], Any]] = None,
    ) -> DprBatchResponse:
        """libDPR framing of :meth:`execute_ops`: header in, header out."""
        if len(ops) != header.count:
            raise ValueError(
                f"header says {header.count} ops, batch has {len(ops)}"
            )
        status, versions, results = self.execute_ops(
            ops, header.session_id, header.first_seqno, header.world_line,
            header.min_version, header.deps, apply_fn)
        return DprBatchResponse(
            session_id=header.session_id,
            status=BatchStatus(status),
            world_line=self.world_line,
            first_seqno=header.first_seqno,
            versions=versions,
            results=results,
            object_id=self.object_id,
        )

    # -- commit / restore ownership ------------------------------------------

    def commit(self, vmax: int = 0) -> CommitDescriptor:
        """``Commit()``: seal the in-progress version, report it, and
        hand the descriptor to the flush function.

        ``vmax`` applies the §3.4 laggard rule first: a shard whose
        version trails the cluster maximum jumps its next checkpoint
        there, so one slow shard cannot hold the cut back.
        """
        if vmax > self.state_object.version:
            self.state_object.fast_forward(vmax)
        self._report_autosealed(self.state_object.drain_sealed())
        descriptor = self.state_object.seal_version()
        self.finder.report_seal(descriptor)
        self._flush_fn(descriptor)
        return descriptor

    def persisted(self, version: int) -> bool:
        """The flush of sealed ``version`` finished: mark and report it.

        Returns False — and reports nothing — when a rollback dropped
        the version while the flush was in flight: persisting it would
        resurrect rolled-back state.
        """
        if not self.state_object.is_sealed(version):
            return False
        self.state_object.mark_persisted(version)
        self.finder.report_persisted(self.state_object.token_for(version))
        return True

    def restore(self, version: int, world_line: int,
                resume_version: int = 0) -> int:
        """``Restore()`` to the cut position ``version``, on the new
        world-line.  Returns the checkpoint version actually restored."""
        return self.state_object.restore(
            version, world_line=world_line, resume_version=resume_version)

    def _report_autosealed(self, sealed) -> None:
        """Report and flush versions sealed implicitly by fast-forwards."""
        for descriptor in sealed:
            self.finder.report_seal(descriptor)
            self._flush_fn(descriptor)
