"""FasterKV as a DPR StateObject — the heart of D-FASTER (§5).

The adapter keeps the DPR version counter and the store's CPR version
in lock-step:

- ``Commit()`` (a DPR seal) drives the CPR checkpoint state machine, so
  the sealed token's content is exactly a fold-over checkpoint;
- the §3.2/§3.4 fast-forward rule maps onto FASTER's version jump
  (sealing first when the version is dirty);
- ``Restore()`` runs the non-blocking THROW/PURGE rollback — the log is
  *not* truncated; rolled-back entries are skipped via hash chains and
  invalidated in the background, so surviving operations continue
  throughout.

Operations are tuples: ``("read", key)``, ``("upsert", key, value)``,
``("rmw", key, update_fn)``, ``("incr", key, amount)``,
``("delete", key)``.  A read whose record lives below the in-memory
head returns a :class:`PendingMarker`, which the caller finishes with
:meth:`FasterStateObject.resolve_pending`.  Only a shard with a memory
budget has cold records, and the cluster's ``engine="faster"`` shards
have none, so the callers that meet a marker are libDPR drivers (the
ledger's ``libdpr_stores`` resolves each one right after its batch) and
tests.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core.state_object import StateObject
from repro.faster.store import FasterKV, PendingMarker


class FasterStateObject(StateObject):
    """One D-FASTER shard: a FasterKV behind the StateObject API."""

    def __init__(self, object_id: str, bucket_count: int = 1 << 16,
                 memory_budget_records: Optional[int] = None, **kwargs):
        super().__init__(object_id, **kwargs)
        self.kv = FasterKV(
            bucket_count=bucket_count,
            memory_budget_records=memory_budget_records,
            start_version=self.version,
        )

    # -- operation dispatch ------------------------------------------------

    def apply(self, op: Tuple) -> Any:
        kind = op[0]
        if kind == "read" or kind == "get":
            return self.kv.read(op[1])
        if kind == "upsert" or kind == "set":
            return self.kv.upsert(op[1], op[2])
        if kind == "rmw":
            return self.kv.rmw(op[1], op[2])
        if kind == "incr":
            amount = op[2] if len(op) > 2 else 1
            return self.kv.rmw(op[1], lambda v, a=amount: (v or 0) + a,
                               initial=0)
        if kind == "delete":
            self.kv.delete(op[1])
            return None
        raise ValueError(f"unknown op {kind!r}")

    def resolve_pending(self, marker: PendingMarker) -> Any:
        """Finish a PENDING read after the simulated I/O delay."""
        return self.kv.resolve_pending_read(marker.key, marker.address)

    # -- DPR <-> CPR bridging -------------------------------------------------

    def snapshot(self, version: int) -> None:
        """Seal = a CPR fold-over checkpoint of exactly ``version``."""
        if self.kv.current_version != version:
            raise AssertionError(
                f"{self.object_id}: DPR sealing {version} but CPR machine "
                f"is at {self.kv.current_version}"
            )
        self.kv.run_checkpoint_synchronously()

    def checkpoint_bytes(self, version: int) -> int:
        return self.kv.checkpoints[version].flush_bytes

    def fast_forward(self, version: int) -> None:
        """§3.2/§3.4 fast-forward, keeping the CPR version in step."""
        super().fast_forward(version)  # seals (checkpoints) if dirty
        self.kv.fast_forward_version(self._version)

    def rollback_to(self, version: int) -> None:
        """Non-blocking rollback via THROW/PURGE (no log truncation)."""
        self.kv.run_rollback_synchronously(version)
        # The store resumed at (pre-failure v) + 1, matching the DPR
        # version bump the base class applies right after this call.

    def restore(self, version: int, *, world_line: Optional[int] = None,
                resume_version: int = 0) -> int:
        target = super().restore(version, world_line=world_line,
                                 resume_version=resume_version)
        # A resume hint may have pushed the DPR version past v+1.
        self.kv.fast_forward_version(self._version)
        return target

    # -- convenience ---------------------------------------------------------------

    def get(self, key: Any) -> Any:
        """Direct read helper for tests and examples."""
        value = self.apply(("read", key))
        if isinstance(value, PendingMarker):
            return self.resolve_pending(value)
        return value
