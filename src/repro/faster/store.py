"""FasterKV: the single-node key-value store (§5.1).

Brings together the hash index, the HybridLog and the epoch state
machine.  Operations are linearizable per session; records carry CPR
version stamps; checkpoints and rollbacks are non-blocking (threads
keep executing while the state machines run).

Operation semantics:

- ``read`` — walks the key's hash chain; skips invalid records and, in
  THROW/PURGE, records of rolled-back versions (§5.5); returns the
  value, or a :class:`PendingMarker` if the newest visible record lives
  below the in-memory head address.
- ``upsert`` — in-place when the target record is mutable *and* stamped
  with the executing thread's current version; otherwise appends a new
  record (read-copy-update across version boundaries).
- ``rmw`` — read-modify-write with the same in-place rule; returns the
  new value.
- ``delete`` — appends a tombstone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple
from zlib import crc32

from repro.faster.hash_index import _STR_SEED, HashIndex, _stable_hash
from repro.faster.hybrid_log import HybridLog
from repro.faster.record import NULL_ADDRESS, Record
from repro.faster.statemachine import EpochStateMachine, Phase, StateMachineBusy


@dataclass(frozen=True)
class PendingMarker:
    """A read whose newest visible record lives below the in-memory
    head: the caller finishes it with :meth:`FasterKV.resolve_pending_read`
    once the simulated storage I/O returned (FASTER's PENDING status)."""

    key: Any
    address: int


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
        self.epoch.on_established[Phase.IN_PROGRESS].append(self._capture)
        #: Counters.
        self.in_place_updates = 0
        self.rcu_appends = 0
        self.reads_pending = 0

    # -- versions & phases ------------------------------------------------

    @property
    def current_version(self) -> int:
        return self.epoch.global_state.version

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

    # -- visibility rules -----------------------------------------------------

    def _hidden_versions(self) -> Tuple[int, int]:
        """``(low, high]``: the versions rollback filtering hides (§5.5).

        During THROW/PURGE, readers ignore all entries in
        ``(safe_version, rolled_back_version]`` even before the
        background invalidation marks them; otherwise the range is empty.
        """
        state = self.epoch.global_state
        if state.phase is Phase.THROW or state.phase is Phase.PURGE:
            return state.safe_version, state.boundary_version
        return 0, 0

    def _find(self, key: Any) -> Tuple[int, int, Optional[Record]]:
        """``key``'s bucket and its newest visible record: ``(bucket,
        address, record)``, skipping invalid and hidden records.  One
        frame: it reads the index's, the log's and the epoch's fields."""
        index = self.index
        if type(key) is str:
            bucket = crc32(key.encode(), _STR_SEED) % index.bucket_count
        else:
            bucket = _stable_hash(key) % index.bucket_count
        address = index._buckets.get(bucket, NULL_ADDRESS)
        state = self.epoch.global_state
        phase = state.phase
        if phase is Phase.THROW or phase is Phase.PURGE:
            low, high = state.safe_version, state.boundary_version
        else:
            low = high = 0
        records = self.log._records
        while address >= 0:
            record = records[address]
            if (record.key == key and not record.invalid
                    and not low < record.version <= high):
                return bucket, address, record
            address = record.previous_address
        if address != NULL_ADDRESS:
            raise IndexError(f"address {address} out of range")
        return bucket, NULL_ADDRESS, None

    # -- operations ---------------------------------------------------------------

    def read(self, key: Any) -> Any:
        """The key's value; None when absent or deleted; a
        :class:`PendingMarker` when the record is below the head."""
        _, address, record = self._find(key)
        if record is None:
            return None
        if address < self.log.head_address:
            self.reads_pending += 1
            return PendingMarker(key, address)
        if record.tombstone:
            return None
        return record.value

    def resolve_pending_read(self, key: Any, address: int) -> Any:
        """Finish a PENDING read once the simulated I/O returned."""
        record = self.log.get(address)
        low, high = self._hidden_versions()
        if (record.tombstone or record.invalid
                or low < record.version <= high or record.key != key):
            return None
        return record.value

    def upsert(self, key: Any, value: Any,
               thread_id: str = DEFAULT_THREAD) -> None:
        """Blind write; ``thread_id`` names the CPR thread executing it
        (its version stamps the record)."""
        version = self.epoch._threads[thread_id].version
        bucket, address, record = self._find(key)
        if (
            record is not None
            and address >= self.log.read_only_address
            and record.version == version
            and not record.tombstone
        ):
            record.value = value
            self.in_place_updates += 1
            return
        self._append(bucket, key, value, version, tombstone=False)
        if record is not None:
            self.rcu_appends += 1

    def rmw(self, key: Any, update: Callable[[Any], Any],
            initial: Any = None) -> Any:
        """Read-modify-write; ``update`` maps old value to new value.
        Returns the new value.

        A record below the head is read through the simulated I/O
        (counted in ``reads_pending``) and the update is appended at
        once, in the executing version, so a batch stays in one version
        (§6's shared latch).  FASTER would instead park the RMW as
        PENDING and finish it asynchronously, possibly in a later
        version.
        """
        version = self.epoch._threads[self.DEFAULT_THREAD].version
        bucket, address, record = self._find(key)
        if record is None or record.tombstone:
            value = update(initial)
            self._append(bucket, key, value, version, tombstone=False)
            return value
        if address < self.log.head_address:
            self.reads_pending += 1
        elif (address >= self.log.read_only_address
              and record.version == version):
            value = record.value = update(record.value)
            self.in_place_updates += 1
            return value
        value = update(record.value)
        self._append(bucket, key, value, version, tombstone=False)
        self.rcu_appends += 1
        return value

    def delete(self, key: Any) -> bool:
        """Append a tombstone; returns whether a live record was
        deleted."""
        version = self.epoch._threads[self.DEFAULT_THREAD].version
        bucket, _, record = self._find(key)
        if record is None or record.tombstone:
            return False
        self._append(bucket, key, None, version, tombstone=True)
        return True

    def _append(self, bucket: int, key: Any, value: Any, version: int,
                tombstone: bool) -> None:
        """Append at the tail and chain it into ``bucket`` (the key's,
        as :meth:`_find` hashed it) -- FASTER's compare-and-swap on the
        bucket entry, with the previous head as the back-pointer."""
        buckets = self.index._buckets
        log = self.log
        records = log._records
        records.append(Record(key, value, version,
                              buckets.get(bucket, NULL_ADDRESS), tombstone))
        buckets[bucket] = len(records) - 1
        if log._memory_budget is not None:
            log._maybe_shift_head()

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
        established the machine moves to PURGE; run
        :meth:`purge_invalid`, then call :meth:`complete_purge` (or use
        :meth:`run_rollback_synchronously`).
        """
        return self.epoch.begin_rollback(safe_version)

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
