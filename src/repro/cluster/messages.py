"""Message payloads exchanged on the simulated cluster network.

These are plain ``__slots__`` classes rather than frozen dataclasses:
hundreds of thousands are allocated per bench run (one BatchRequest and
one BatchReply per client batch), and frozen-dataclass construction
pays an ``object.__setattr__`` call per field.  The keyword signatures
and defaults are unchanged, so call sites read exactly as before; the
classes are frozen by convention — nothing mutates a message after it
is put on the wire.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.cuts import DprCut
from repro.core.versioning import CommitDescriptor, Token


class BatchRequest:
    """A client batch: DPR header fields plus aggregate op composition.

    The simulation works at batch granularity (as libDPR itself does):
    ``op_count``/``write_count`` describe the batch body without
    materializing individual operations.
    """

    __slots__ = ("batch_id", "session_id", "reply_to", "world_line",
                 "min_version", "first_seqno", "op_count", "write_count",
                 "deps", "created_at", "ops", "partition")

    def __init__(self, batch_id: int, session_id: str, reply_to: str,
                 world_line: int, min_version: int, first_seqno: int,
                 op_count: int, write_count: int,
                 deps: Tuple[Token, ...] = (), created_at: float = 0.0,
                 ops: Optional[Tuple] = None,
                 partition: Optional[int] = None):
        self.batch_id = batch_id
        self.session_id = session_id
        self.reply_to = reply_to
        self.world_line = world_line
        self.min_version = min_version
        self.first_seqno = first_seqno
        self.op_count = op_count
        self.write_count = write_count
        self.deps = deps
        self.created_at = created_at
        #: Functional mode: explicit operations to run on a real engine
        #: (len == op_count).  None in modeled performance runs.
        self.ops = ops
        #: Virtual partition the batch's keys belong to (§5.3); workers
        #: with an ownership view validate it and reject mis-routed
        #: batches with status "not_owner".  None skips validation.
        self.partition = partition

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchRequest(batch_id={self.batch_id}, "
                f"session_id={self.session_id!r}, op_count={self.op_count})")


class BatchIds:
    """Monotonic batch-id allocator, scoped to one client endpoint.

    Batch ids only need to be unique within the (session, worker)
    conversations of a single endpoint; a process-global counter would
    leak allocation state across independently seeded cluster
    instances and break run-to-run determinism.
    """

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        self._next += 1
        return self._next


def batch_request(session_id: str, span, batch_id: int, reply_to: str,
                  write_count: int, ops: Optional[Tuple] = None,
                  partition: Optional[int] = None) -> BatchRequest:
    """Frame one issued :class:`~repro.core.session.Span` as a request.

    Every cluster driver puts the session's header on the wire through
    here, so the DPR fields of a request (world-line, ``Vs``, seqno
    span, deps) are copied from the span in exactly one place.
    Positional construction: this runs once per batch sent, and keyword
    calls measurably lag positional ones.
    """
    return BatchRequest(
        batch_id, session_id, reply_to, span.world_line, span.min_version,
        span.seqno, span.op_count, write_count, span.deps, span.issued_at,
        ops, partition)


class BatchReply:
    """Server response; carries the worker's cached DPR cut so clients
    learn commits by piggyback, with no extra round trips (§2)."""

    __slots__ = ("batch_id", "session_id", "object_id", "status",
                 "world_line", "version", "op_count", "cut", "served_at",
                 "results", "partition")

    def __init__(self, batch_id: int, session_id: str, object_id: str,
                 status: str, world_line: int, version: int = 0,
                 op_count: int = 0, cut: Optional[DprCut] = None,
                 served_at: float = 0.0, results: Optional[Tuple] = None,
                 partition: Optional[int] = None):
        self.batch_id = batch_id
        self.session_id = session_id
        self.object_id = object_id
        self.status = status  # "ok" | "rolled_back" | "retry" | "not_owner"
        self.world_line = world_line
        self.version = version
        self.op_count = op_count
        self.cut = cut
        self.served_at = served_at
        #: Functional mode: per-op results (None in modeled runs).
        self.results = results
        #: Echoed on "not_owner" bounces (§5.3) so clients know which
        #: cached partition mapping to invalidate.  None otherwise.
        self.partition = partition

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BatchReply(batch_id={self.batch_id}, "
                f"session_id={self.session_id!r}, status={self.status!r})")


class SealReport:
    """Worker -> DPR finder: a version was sealed (deps attached)."""

    __slots__ = ("descriptor",)

    def __init__(self, descriptor: CommitDescriptor):
        self.descriptor = descriptor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SealReport(descriptor={self.descriptor!r})"


class PersistReport:
    """Worker -> DPR finder: a sealed version finished flushing."""

    __slots__ = ("object_id", "version")

    def __init__(self, object_id: str, version: int):
        self.object_id = object_id
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistReport(object_id={self.object_id!r}, version={self.version})"


class CutBroadcast:
    """DPR finder -> workers: a freshly published cut, plus ``Vmax``
    for the §3.4 laggard fast-forward rule."""

    __slots__ = ("cut", "world_line", "max_version")

    def __init__(self, cut: DprCut, world_line: int, max_version: int = 0):
        self.cut = cut
        self.world_line = world_line
        self.max_version = max_version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CutBroadcast(world_line={self.world_line}, "
                f"max_version={self.max_version})")


class RollbackCommand:
    """Cluster manager -> worker: roll back to the cut, new world-line."""

    __slots__ = ("world_line", "cut")

    def __init__(self, world_line: int, cut: DprCut):
        self.world_line = world_line
        self.cut = cut

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RollbackCommand(world_line={self.world_line}, cut={self.cut!r})"


class RollbackDone:
    """Worker -> cluster manager: rollback completed."""

    __slots__ = ("worker_id", "world_line")

    def __init__(self, worker_id: str, world_line: int):
        self.worker_id = worker_id
        self.world_line = world_line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RollbackDone(worker_id={self.worker_id!r}, world_line={self.world_line})"


class Heartbeat:
    """Worker -> cluster manager: liveness signal (§4.1)."""

    __slots__ = ("worker_id",)

    def __init__(self, worker_id: str):
        self.worker_id = worker_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heartbeat(worker_id={self.worker_id!r})"


class ReplicaAppend:
    """Primary -> replica: one replication-log entry.

    ``entries`` is a tuple of log records, each a tuple whose first
    element names the kind: ``("batch", request, version)`` carries an
    executed client batch, ``("seal", version)`` mirrors a sealed
    checkpoint boundary, ``("rollback", world_line, version)`` mirrors a
    §4.1 restore, and ``("reset", world_line, cut, resume_version)``
    announces a primary restart (new stream epoch).  ``(epoch, seq)``
    orders entries within a stream epoch so the at-least-once network
    can be deduplicated with a per-epoch floor.
    """

    __slots__ = ("primary", "epoch", "seq", "entries")

    def __init__(self, primary: str, epoch: int, seq: int, entries: Tuple):
        self.primary = primary
        self.epoch = epoch
        self.seq = seq
        self.entries = entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaAppend(primary={self.primary!r}, epoch={self.epoch}, "
                f"seq={self.seq}, entries={len(self.entries)})")


class ReplicaAck:
    """Replica -> primary: cumulative ack for a stream epoch.

    ``seq`` is the highest contiguously applied sequence number; the
    primary releases held client replies once every replica's ack
    covers the entry that produced them.
    """

    __slots__ = ("replica_id", "primary", "epoch", "seq")

    def __init__(self, replica_id: str, primary: str, epoch: int, seq: int):
        self.replica_id = replica_id
        self.primary = primary
        self.epoch = epoch
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaAck(replica_id={self.replica_id!r}, "
                f"epoch={self.epoch}, seq={self.seq})")


class ReplicaDurable:
    """Primary -> replica: the primary's persisted watermark advanced.

    Replicas fold this into their ``durable_version`` record so the
    recoverable-prefix read gate (and promotion qualification) reflects
    what the primary has actually made durable.
    """

    __slots__ = ("primary", "version")

    def __init__(self, primary: str, version: int):
        self.primary = primary
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicaDurable(primary={self.primary!r}, version={self.version})"


class ReplicaReadRequest:
    """Read client -> replica: a recoverable-prefix GET batch.

    ``min_version`` is the guaranteed-cut version for the partition's
    primary at issue time; the replica refuses (status "behind") unless
    its ``durable_version`` has reached it, so a served read can never
    observe state that a later §4.1 rollback would erase.
    """

    __slots__ = ("read_id", "reply_to", "keys", "min_version", "created_at")

    def __init__(self, read_id: int, reply_to: str, keys: Tuple,
                 min_version: int, created_at: float = 0.0):
        self.read_id = read_id
        self.reply_to = reply_to
        self.keys = keys
        self.min_version = min_version
        self.created_at = created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaReadRequest(read_id={self.read_id}, "
                f"keys={len(self.keys)}, min_version={self.min_version})")


class ReplicaReadReply:
    """Replica -> read client: values (or a "behind" bounce)."""

    __slots__ = ("read_id", "replica_id", "status", "durable_version",
                 "values", "served_at")

    def __init__(self, read_id: int, replica_id: str, status: str,
                 durable_version: int = 0, values: Optional[Tuple] = None,
                 served_at: float = 0.0):
        self.read_id = read_id
        self.replica_id = replica_id
        self.status = status  # "ok" | "behind"
        self.durable_version = durable_version
        self.values = values
        self.served_at = served_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaReadReply(read_id={self.read_id}, "
                f"status={self.status!r}, durable_version={self.durable_version})")
