"""FasterKV: the single-node key-value store (§5.1).

Brings together the hash index, the HybridLog and the epoch state
machine.  Operations are linearizable per session; records carry CPR
version stamps; checkpoints and rollbacks are non-blocking (threads
keep executing while the state machines run).

Operation semantics:

- ``read`` — walks the key's hash chain; skips invalid records and, in
  THROW/PURGE, records of rolled-back versions (§5.5); goes PENDING if
  the newest visible record lives below the in-memory head address.
- ``upsert`` — in-place when the target record is mutable *and* stamped
  with the executing thread's current version; otherwise appends a new
  record (read-copy-update across version boundaries).
- ``rmw`` — read-modify-write with the same in-place rule.
- ``delete`` — appends a tombstone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faster.hash_index import HashIndex
from repro.faster.hybrid_log import HybridLog
from repro.faster.record import NULL_ADDRESS, Record
from repro.faster.statemachine import EpochStateMachine, Phase, StateMachineBusy


class OpStatus:
    """Operation completion statuses (mirrors FASTER's Status enum)."""

    OK = "ok"
    NOT_FOUND = "not_found"
    #: The operation needs storage I/O; the session parks it and the
    #: caller resolves it later via ``complete_pending`` (§5.4).
    PENDING = "pending"


@dataclass
class OpOutcome:
    """Result of a FasterKV operation."""

    status: str
    value: Any = None
    #: CPR version the operation executed in (stamps the session op).
    version: int = 0
    #: Address needing I/O when status is PENDING.
    pending_address: int = NULL_ADDRESS


@dataclass
class CheckpointInfo:
    """Durable metadata of one fold-over checkpoint."""

    version: int
    #: Log prefix captured by this checkpoint.
    until_address: int
    #: Flush size (drives the storage-latency model).
    flush_bytes: int


class FasterKV:
    """The store. One instance per D-FASTER worker shard."""

    DEFAULT_THREAD = "t0"

    def __init__(self, bucket_count: int = 1 << 16,
                 memory_budget_records: Optional[int] = None,
                 start_version: int = 1):
        self.index = HashIndex(bucket_count)
        self.log = HybridLog(memory_budget_records)
        self.epoch = EpochStateMachine(start_version=start_version)
        self.epoch.register_thread(self.DEFAULT_THREAD)
        #: version -> CheckpointInfo for every captured checkpoint.
        self.checkpoints: Dict[int, CheckpointInfo] = {}
        self._capture_pending: Optional[int] = None
        #: Invoked with CheckpointInfo when a capture's flush span is
        #: determined; the embedder starts the storage write and calls
        #: :meth:`complete_flush` when durable.
        self.on_capture: Optional[Callable[[CheckpointInfo], None]] = None
        #: Invoked when THROW is established and purge work is known.
        self.on_purge_ready: Optional[Callable[[int, int], None]] = None
        self.epoch.on_established[Phase.IN_PROGRESS].append(self._capture)
        self.epoch.on_established[Phase.PURGE].append(self._purge_ready)
        #: Counters.
        self.in_place_updates = 0
        self.rcu_appends = 0
        self.reads_pending = 0

    # -- versions & phases ------------------------------------------------

    @property
    def current_version(self) -> int:
        return self.epoch.global_state.version

    @property
    def phase(self) -> Phase:
        return self.epoch.global_state.phase

    def register_thread(self, thread_id: str) -> None:
        self.epoch.register_thread(thread_id)

    def fast_forward_version(self, version: int) -> None:
        """Jump the version without a checkpoint (clean fast-forward).

        Only legal in REST; threads adopt the new version on their next
        refresh (here immediately, since the caller is the one driving
        the machine synchronously).
        """
        state = self.epoch.global_state
        if state.phase is not Phase.REST:
            raise StateMachineBusy(
                f"cannot fast-forward during {state.phase}"
            )
        if version > state.version:
            state.version = version
            for thread_id in list(self.epoch._threads):
                self.epoch.refresh(thread_id)

    def refresh(self, thread_id: str = DEFAULT_THREAD):
        return self.epoch.refresh(thread_id)

    def _thread_version(self, thread_id: str) -> int:
        return self.epoch.thread(thread_id).version

    # -- visibility rules -----------------------------------------------------

    def _hidden(self, record: Record) -> bool:
        """Whether rollback filtering hides this record (§5.5).

        During THROW/PURGE, readers ignore all entries in
        ``(safe_version, rolled_back_version]`` even before the
        background invalidation marks them.
        """
        if record.invalid:
            return True
        state = self.epoch.global_state
        if state.phase in (Phase.THROW, Phase.PURGE):
            return state.safe_version < record.version <= state.boundary_version
        return False

    def _find(self, key: Any) -> Tuple[int, Optional[Record]]:
        """Newest visible record for ``key`` (address, record)."""
        for address, record in self.log.walk_chain(self.index.head_address(key)):
            if record.key == key and not self._hidden(record):
                return address, record
        return NULL_ADDRESS, None

    # -- operations ---------------------------------------------------------------

    def read(self, key: Any, thread_id: str = DEFAULT_THREAD) -> OpOutcome:
        version = self._thread_version(thread_id)
        address, record = self._find(key)
        if record is None:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        if not self.log.in_memory(address):
            self.reads_pending += 1
            return OpOutcome(OpStatus.PENDING, version=version,
                             pending_address=address)
        if record.tombstone:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        return OpOutcome(OpStatus.OK, value=record.value, version=version)

    def resolve_pending_read(self, key: Any, address: int,
                             thread_id: str = DEFAULT_THREAD) -> OpOutcome:
        """Finish a PENDING read once the simulated I/O returned."""
        record = self.log.get(address)
        version = self._thread_version(thread_id)
        if record.tombstone or self._hidden(record) or record.key != key:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        return OpOutcome(OpStatus.OK, value=record.value, version=version)

    def upsert(self, key: Any, value: Any,
               thread_id: str = DEFAULT_THREAD) -> OpOutcome:
        version = self._thread_version(thread_id)
        address, record = self._find(key)
        if (
            record is not None
            and self.log.mutable(address)
            and record.version == version
            and not record.tombstone
        ):
            record.value = value
            self.in_place_updates += 1
            return OpOutcome(OpStatus.OK, version=version)
        self._append(key, value, version, tombstone=False)
        if record is not None:
            self.rcu_appends += 1
        return OpOutcome(OpStatus.OK, version=version)

    def rmw(self, key: Any, update: Callable[[Any], Any],
            initial: Any = None,
            thread_id: str = DEFAULT_THREAD) -> OpOutcome:
        """Read-modify-write; ``update`` maps old value to new value."""
        version = self._thread_version(thread_id)
        address, record = self._find(key)
        if record is None or record.tombstone:
            value = update(initial)
            self._append(key, value, version, tombstone=False)
            return OpOutcome(OpStatus.OK, value=value, version=version)
        if not self.log.in_memory(address):
            self.reads_pending += 1
            return OpOutcome(OpStatus.PENDING, version=version,
                             pending_address=address)
        if self.log.mutable(address) and record.version == version:
            record.value = update(record.value)
            self.in_place_updates += 1
            return OpOutcome(OpStatus.OK, value=record.value, version=version)
        value = update(record.value)
        self._append(key, value, version, tombstone=False)
        self.rcu_appends += 1
        return OpOutcome(OpStatus.OK, value=value, version=version)

    def delete(self, key: Any, thread_id: str = DEFAULT_THREAD) -> OpOutcome:
        version = self._thread_version(thread_id)
        _, record = self._find(key)
        if record is None or record.tombstone:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        self._append(key, None, version, tombstone=True)
        return OpOutcome(OpStatus.OK, version=version)

    def _append(self, key: Any, value: Any, version: int,
                tombstone: bool) -> int:
        record = Record(key=key, value=value, version=version,
                        tombstone=tombstone)
        address = self.log.append(record)
        record.previous_address = self.index.publish(key, address)
        return address

    # -- checkpointing (Commit) -----------------------------------------------------

    def begin_checkpoint(self, target_version: Optional[int] = None) -> int:
        """Start a non-blocking fold-over checkpoint of version ``v``.

        The capture happens once every thread has entered the new
        version (the fuzzy boundary becomes sharp); ``on_capture`` then
        reports the flush span.  Call :meth:`complete_flush` when the
        storage write is durable.
        """
        captured = self.epoch.begin_checkpoint(target_version)
        self._capture_pending = captured
        return captured

    def _capture(self) -> None:
        if self._capture_pending is None:
            return
        version = self._capture_pending
        self._capture_pending = None
        from_address, until_address = self.log.mark_read_only()
        flush_bytes = max(
            Record.SERIALIZED_BYTES,
            (until_address - from_address) * Record.SERIALIZED_BYTES,
        )
        info = CheckpointInfo(version=version, until_address=until_address,
                              flush_bytes=flush_bytes)
        self.checkpoints[version] = info
        if self.on_capture is not None:
            self.on_capture(info)

    def complete_flush(self) -> None:
        """Storage acknowledged the checkpoint flush; back to REST."""
        self.log.flush_complete(self.log.read_only_address)
        self.epoch.complete_flush()

    def run_checkpoint_synchronously(
        self, target_version: Optional[int] = None
    ) -> CheckpointInfo:
        """Checkpoint with inline refreshes (single-threaded callers)."""
        captured = self.begin_checkpoint(target_version)
        self.drive_to_phase(Phase.WAIT_FLUSH)
        self.complete_flush()
        return self.checkpoints[captured]

    def drive_to_phase(self, phase: Phase, max_refreshes: int = 16) -> None:
        """Refresh all threads until the machine reaches ``phase``."""
        for _ in range(max_refreshes):
            if self.epoch.global_state.phase is phase:
                return
            for thread_id in list(self.epoch._threads):
                self.epoch.refresh(thread_id)
        if self.epoch.global_state.phase is not phase:
            raise RuntimeError(
                f"state machine stuck in {self.epoch.global_state.phase}, "
                f"wanted {phase}"
            )

    # -- rollback (Restore) ------------------------------------------------------------

    def begin_rollback(self, safe_version: int) -> int:
        """Start the non-blocking THROW/PURGE rollback (§5.5, Figure 8).

        Operations keep executing throughout; readers immediately stop
        seeing entries in ``(safe_version, v]``.  When THROW is
        established the machine moves to PURGE and ``on_purge_ready``
        fires with the purge range; call :meth:`complete_purge` when the
        background invalidation is done (or use
        :meth:`run_rollback_synchronously`).
        """
        return self.epoch.begin_rollback(safe_version)

    def _purge_ready(self) -> None:
        state = self.epoch.global_state
        if self.on_purge_ready is not None:
            self.on_purge_ready(state.safe_version, state.boundary_version)

    def purge_invalid(self) -> int:
        """Mark rolled-back entries invalid in the log (PURGE work)."""
        state = self.epoch.global_state
        return self.log.invalidate_versions(state.safe_version,
                                            state.boundary_version)

    def complete_purge(self) -> None:
        self.epoch.complete_purge()

    def run_rollback_synchronously(self, safe_version: int) -> int:
        """Rollback with inline refreshes (single-threaded callers)."""
        self.begin_rollback(safe_version)
        self.drive_to_phase(Phase.PURGE)
        invalidated = self.purge_invalid()
        self.complete_purge()
        # Rolled-back checkpoints are gone.
        for version in [v for v in self.checkpoints if v > safe_version]:
            del self.checkpoints[version]
        return invalidated

    # -- introspection ------------------------------------------------------------------

    def size_estimate_bytes(self) -> int:
        return len(self.log) * Record.SERIALIZED_BYTES
