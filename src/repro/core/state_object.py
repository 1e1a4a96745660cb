"""The StateObject abstraction (§3) and a reference implementation.

A StateObject is one shard of the cache-store: fast volatile operations
plus asynchronous group commits.  The paper's API is::

    Op()              -> executes an operation, returns *uncommitted*
    Commit()          -> (token, committed)  — seals a version
    Restore(token)    -> rolls back to a committed state

:class:`StateObject` implements all DPR-side bookkeeping — version
numbers, the §3.2 fast-forward rule, dependency accumulation, world-line
gating — on top of three storage hooks subclasses provide (``apply``,
``snapshot``/``checkpoint_bytes``, ``rollback_to``).
:class:`InMemoryStateObject` is the reference subclass used throughout
the tests; :mod:`repro.faster` and :mod:`repro.redisclone` provide the
production-grade ones.

Correctness note (the *dirty-seal invariant*): an operation executing
while the in-progress version is ``u`` is captured by this object's
checkpoint of version ``u`` itself, never silently folded into a later
version.  Fast-forwarding over a dirty version therefore seals it
first.  This is what makes the approximate min-version finder (§3.4)
sound: every version at which operations ran has (eventually) a durable
checkpoint with exactly that number, so restoring all objects to the
global minimum persisted version loses nothing the guarantee claimed.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple)

from repro.core.versioning import (
    NEVER_COMMITTED,
    CommitDescriptor,
    Token,
    merge_dependencies,
)
from repro.core.worldline import WorldLine, WorldLineDecision


class WorldLineMismatch(RuntimeError):
    """A request was gated by the world-line rule (§4.2).

    ``decision`` says which side is behind: ``REJECT`` means the client
    must handle a failure it has not seen; ``DELAY`` means the object is
    still recovering.
    """

    def __init__(self, decision: WorldLineDecision, object_world_line: int,
                 request_world_line: int):
        super().__init__(
            f"world-line mismatch: object at {object_world_line}, "
            f"request at {request_world_line} ({decision.value})"
        )
        self.decision = decision
        self.object_world_line = object_world_line
        self.request_world_line = request_world_line


@dataclass(frozen=True)
class OpResult:
    """Outcome of ``Op()``: the value plus DPR metadata for the client."""

    value: Any
    version: int
    world_line: int


class StateObject(abc.ABC):
    """Base class implementing the DPR protocol obligations of a shard.

    Subclasses implement the storage behaviour:

    - :meth:`apply` — execute one operation against the volatile cache.
    - :meth:`snapshot` — called synchronously at seal time; capture a
      consistent image of the state as of the sealed version (real
      systems use copy-on-write; the reference implementation copies).
    - :meth:`checkpoint_bytes` — estimated flush size of a sealed
      version, which drives the storage-latency model.
    - :meth:`rollback_to` — restore the durable prefix at or below a
      version, discarding every later effect.
    """

    def __init__(self, object_id: str, start_version: int = 1):
        if start_version < 1:
            raise ValueError("versions are 1-based")
        self.object_id = object_id
        self.world_line = WorldLine()
        #: The in-progress version; the next seal produces this token.
        self._version = start_version
        self._dirty = False
        #: Cross-shard dependencies accumulated for the in-progress version.
        self._pending_deps: set = set()
        #: Per-session largest seqno executed here (monotonic, cumulative).
        self._session_watermarks: Dict[str, int] = {}
        #: Versions sealed by a fast-forward whose flush the owner still
        #: needs to run (drained via :meth:`drain_sealed`).
        self._autosealed: List[CommitDescriptor] = []
        self._sealed: Dict[int, CommitDescriptor] = {}
        self._persisted_versions: List[int] = []  # sorted
        #: Counters for observability / benches.
        self.ops_executed = 0
        self.commits = 0
        self.restores = 0

    # -- storage hooks ---------------------------------------------------

    @abc.abstractmethod
    def apply(self, op: Any) -> Any:
        """Execute one operation on the volatile cache, return its value."""

    @abc.abstractmethod
    def snapshot(self, version: int) -> None:
        """Capture a consistent image of state as of sealed ``version``."""

    @abc.abstractmethod
    def checkpoint_bytes(self, version: int) -> int:
        """Estimated durable size of the ``version`` checkpoint."""

    @abc.abstractmethod
    def rollback_to(self, version: int) -> None:
        """Restore the durable prefix ``<= version`` (resolving to the
        largest captured checkpoint at or below it)."""

    # -- protocol state ----------------------------------------------------

    @property
    def version(self) -> int:
        """The current in-progress version number."""
        return self._version

    @property
    def dirty(self) -> bool:
        """Whether the in-progress version has executed any operation."""
        return self._dirty

    @property
    def max_persisted_version(self) -> int:
        return self._persisted_versions[-1] if self._persisted_versions else NEVER_COMMITTED

    def persisted_versions(self) -> List[int]:
        return list(self._persisted_versions)

    def latest_persisted_at_or_below(self, version: int) -> int:
        """Largest durable checkpoint version ``<= version`` (0 if none)."""
        index = bisect.bisect_right(self._persisted_versions, version)
        if index == 0:
            return NEVER_COMMITTED
        return self._persisted_versions[index - 1]

    def token_for(self, version: int) -> Token:
        return Token(self.object_id, version)

    # -- Op() ---------------------------------------------------------------

    def execute(
        self,
        op: Any,
        *,
        session_id: str = "",
        seqno: int = 0,
        min_version: int = 0,
        deps: Iterable[Token] = (),
        world_line: Optional[int] = None,
        apply_override: Optional[Any] = None,
    ) -> OpResult:
        """``Op()``: :meth:`execute_batch` for one operation.  Returns
        the result with the version it executed in, which the caller
        folds into its ``Vs`` scalar."""
        version, (value,) = self.execute_batch(
            (op,), session_id, seqno, world_line, min_version, deps,
            apply_override)
        return OpResult(value, version, self.world_line.current)

    def execute_batch(self, ops: Sequence[Any], session_id: str,
                      first_seqno: int, world_line: Optional[int] = None,
                      min_version: int = 0, deps: Iterable[Token] = (),
                      apply_fn: Optional[Callable[[Any], Any]] = None,
                      ) -> Tuple[int, List[Any]]:
        """Execute a batch under one shared latch, so every op lands in
        the same version.  Returns ``(version, results)``.

        Once per batch and in this order: the world-line gate (§4.2;
        raises :class:`WorldLineMismatch` before touching any state),
        the ``Vs`` fast-forward (§3.2), dependency recording (§3.1),
        then each op through ``apply`` — or ``apply_fn``, with which
        libDPR wrappers reach the unmodified cache-store (§6).  The
        session's watermark ends at the last op's seqno.  An empty batch
        only passes the gate; an op that raises leaves the ops before
        it executed and counted.
        """
        if world_line is not None:
            decision = self.world_line.gate(world_line)
            if decision is not WorldLineDecision.EXECUTE:
                raise WorldLineMismatch(decision, self.world_line.current,
                                        world_line)
        if not ops:
            return self._version, []
        if min_version > self._version:
            self.fast_forward(min_version)
        for dep in deps:
            if dep.object_id != self.object_id:
                self._pending_deps.add(dep)
        apply = self.apply if apply_fn is None else apply_fn
        results: List[Any] = []
        try:
            for op in ops:
                results.append(apply(op))
        finally:
            done = len(results)
            if done:
                self._dirty = True
                self.ops_executed += done
                last = first_seqno + done - 1
                if session_id and last > self._session_watermarks.get(
                        session_id, 0):
                    self._session_watermarks[session_id] = last
        return self._version, results

    def fast_forward(self, version: int) -> None:
        """Jump the in-progress version ahead (§3.2 / §3.4 ``Vmax`` rule).

        If the current version is dirty it is sealed first (the
        dirty-seal invariant); the resulting descriptor is queued for
        the owner to flush — see :meth:`drain_sealed`.
        """
        if version <= self._version:
            return
        if self._dirty:
            descriptor = self.seal_version()
            self._autosealed.append(descriptor)
        self._version = version

    # -- Commit() ------------------------------------------------------------

    def seal_version(self) -> CommitDescriptor:
        """End the in-progress version and start the next one.

        Snapshots the sealed state synchronously (cheap copy-on-write in
        real systems) and returns the descriptor; the caller is
        responsible for flushing it (``checkpoint_bytes`` worth of I/O)
        and then calling :meth:`mark_persisted` and reporting the token
        to the DPR finder.
        """
        sealed_version = self._version
        descriptor = CommitDescriptor(
            token=self.token_for(sealed_version),
            deps=merge_dependencies(frozenset(self._pending_deps)),
            session_watermarks=dict(self._session_watermarks),
        )
        self._pending_deps.clear()
        self._sealed[sealed_version] = descriptor
        self.snapshot(sealed_version)
        self._version = sealed_version + 1
        self._dirty = False
        self.commits += 1
        return descriptor

    def drain_sealed(self) -> List[CommitDescriptor]:
        """Collect descriptors sealed implicitly by fast-forwards."""
        drained, self._autosealed = self._autosealed, []
        return drained

    def commit(self) -> CommitDescriptor:
        """Synchronous ``Commit()``: seal and mark durable immediately.

        The reference path for simple StateObjects and unit tests;
        distributed deployments use :meth:`seal_version` plus an
        asynchronous flush instead.  Any fast-forward-sealed versions
        still awaiting a flush become durable first (flushes are FIFO).
        """
        for earlier in self.drain_sealed():
            self.mark_persisted(earlier.token.version)
        descriptor = self.seal_version()
        self.mark_persisted(descriptor.token.version)
        return descriptor

    def mark_persisted(self, version: int) -> None:
        """Record that the flush for sealed ``version`` finished.

        Flushes must complete in seal order (owners flush FIFO), which
        keeps :meth:`persisted_versions` sorted.
        """
        if version not in self._sealed:
            raise KeyError(f"{self.object_id}: version {version} was never sealed")
        if self._persisted_versions and version <= self._persisted_versions[-1]:
            return  # duplicate notification
        self._persisted_versions.append(version)

    def sealed_descriptors(self) -> Dict[int, CommitDescriptor]:
        """Snapshot of every sealed version's descriptor, by version.

        The public read surface for auditors and owners — external code
        must not reach into ``_sealed`` (enforced by dprlint DPR-P02).
        """
        return dict(self._sealed)

    def is_sealed(self, version: int) -> bool:
        """Whether ``version`` was sealed and not dropped by a restore."""
        return version in self._sealed

    # -- Restore() -------------------------------------------------------------

    def restore(self, version: int, *, world_line: Optional[int] = None,
                resume_version: int = 0) -> int:
        """``Restore()``: roll back to the committed prefix ``<= version``.

        ``version`` is resolved to the largest durable checkpoint at or
        below it (the dirty-seal invariant guarantees this loses nothing
        the DPR guarantee claimed).  The in-progress version strictly
        advances past the pre-failure one — the paper's rollback machine
        resumes in ``v + 1`` (§5.5) — so post-recovery tokens never
        collide with rolled-back ones.  ``resume_version`` lets the
        cluster manager push a restarted node even further forward.
        The world-line advances per §4.2.

        Returns the checkpoint version actually restored.
        """
        target = self.latest_persisted_at_or_below(version)
        self.rollback_to(target)
        self._pending_deps.clear()
        self._dirty = False
        self._autosealed.clear()
        for sealed in [v for v in self._sealed if v > target]:
            del self._sealed[sealed]
        self._persisted_versions = [
            v for v in self._persisted_versions if v <= target
        ]
        self._version = max(self._version + 1, version + 1, resume_version)
        if world_line is not None:
            self.world_line.advance_to(world_line)
        else:
            self.world_line.advance_to(self.world_line.current + 1)
        self.restores += 1
        return target


class InMemoryStateObject(StateObject):
    """Reference StateObject: a dict KV with per-version snapshots.

    Operations are tuples: ``("get", key)``, ``("set", key, value)``,
    ``("delete", key)``, ``("incr", key, amount)``.  Snapshots are full
    copies — fine for tests, not for production (that is what the
    FASTER integration is for).
    """

    #: Rough per-record size estimate for storage-latency modelling.
    RECORD_BYTES = 64

    def __init__(self, object_id: str, **kwargs):
        super().__init__(object_id, **kwargs)
        self._data: Dict[Any, Any] = {}
        self._checkpoints: Dict[int, Dict[Any, Any]] = {}

    def apply(self, op: Tuple) -> Any:
        kind = op[0]
        if kind == "get":
            return self._data.get(op[1])
        if kind == "set":
            self._data[op[1]] = op[2]
            return None
        if kind == "delete":
            return self._data.pop(op[1], None)
        if kind == "incr":
            amount = op[2] if len(op) > 2 else 1
            value = self._data.get(op[1], 0) + amount
            self._data[op[1]] = value
            return value
        raise ValueError(f"unknown op {kind!r}")

    def snapshot(self, version: int) -> None:
        self._checkpoints[version] = dict(self._data)

    def checkpoint_bytes(self, version: int) -> int:
        return max(1, len(self._checkpoints.get(version, ()))) * self.RECORD_BYTES

    def rollback_to(self, version: int) -> None:
        candidates = [v for v in self._checkpoints if v <= version]
        if candidates:
            self._data = dict(self._checkpoints[max(candidates)])
        else:
            self._data = {}
        for stale in [v for v in self._checkpoints if v > version]:
            del self._checkpoints[stale]

    # Convenience accessor used by tests.

    def get(self, key: Any) -> Any:
        return self._data.get(key)
