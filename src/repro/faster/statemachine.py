"""The CPR checkpoint and rollback state machines (§5.5, Figure 8).

FASTER coordinates threads *loosely*: a global state (phase, version)
advances only after every registered thread has refreshed and observed
it.  Threads catch up at their own pace; between refreshes they operate
purely thread-locally.  This file implements that abstraction plus the
two state machines that run on it:

**Checkpoint** (CPR): ``REST -> PREPARE -> IN_PROGRESS -> WAIT_FLUSH ->
REST``.  Threads entering IN_PROGRESS move to the new version and stop
in-place-updating records of the old version (read-copy-update instead),
so when the last thread crosses, the old version's state is immutable
and can be captured fuzzily without blocking anyone.

**Rollback** (D-FASTER's novel non-blocking restore): ``REST -> THROW ->
PURGE -> REST``.  Threads entering THROW move to the post-recovery
version; after all threads cross, no more entries from rolled-back
versions can appear in the log, and PURGE marks the range
``(v_safe, v]`` invalid in the background while readers skip it via the
hash chains.

Only one state machine may run at a time — which is also how D-FASTER
prevents a checkpoint racing a rollback (§5.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set


class Phase(enum.Enum):
    REST = "rest"
    # Checkpoint phases.
    PREPARE = "prepare"
    IN_PROGRESS = "in_progress"
    WAIT_FLUSH = "wait_flush"
    # Rollback phases.
    THROW = "throw"
    PURGE = "purge"


class StateMachineBusy(RuntimeError):
    """A checkpoint/rollback was requested while another is running."""


@dataclass
class GlobalState:
    """The (phase, version) pair threads synchronize on."""

    phase: Phase = Phase.REST
    version: int = 1
    #: Version being captured (checkpoint) or the ceiling of the purge
    #: range (rollback); meaningful outside REST.
    boundary_version: int = field(default=0, init=False)
    #: Floor of the purge range during THROW/PURGE.
    safe_version: int = field(default=0, init=False)


@dataclass
class ThreadContext:
    """A thread's local view of the global state."""

    thread_id: str
    phase: Phase = Phase.REST
    version: int = 1


class EpochStateMachine:
    """Loose thread coordination over a shared (phase, version).

    ``on_enter[phase]`` hooks fire exactly once, when the *last* thread
    observes ``phase`` (i.e. the phase becomes globally established);
    ``advance_from[phase]`` names the next phase, or None if leaving the
    phase needs an external trigger (e.g. flush completion).
    """

    def __init__(self, start_version: int = 1):
        self.global_state = GlobalState(version=start_version)
        self._threads: Dict[str, ThreadContext] = {}
        self._observed: Set[str] = set()
        #: Fired when every thread has observed the current phase.
        self.on_established: Dict[Phase, List[Callable[[], None]]] = {
            phase: [] for phase in Phase
        }
        self._auto_advance: Dict[Phase, Optional[Phase]] = {
            Phase.PREPARE: Phase.IN_PROGRESS,
            Phase.IN_PROGRESS: Phase.WAIT_FLUSH,
            Phase.WAIT_FLUSH: None,  # waits for flush completion
            Phase.THROW: Phase.PURGE,
            Phase.PURGE: None,  # waits for purge completion
            Phase.REST: None,
        }

    # -- thread management -------------------------------------------------

    def register_thread(self, thread_id: str) -> ThreadContext:
        if thread_id in self._threads:
            return self._threads[thread_id]
        context = ThreadContext(
            thread_id=thread_id,
            phase=self.global_state.phase,
            version=self.global_state.version,
        )
        self._threads[thread_id] = context
        self._observed.add(thread_id)  # joins already-observing
        return context

    # -- refresh protocol -----------------------------------------------------

    def refresh(self, thread_id: str) -> ThreadContext:
        """Bring a thread up to the global (phase, version).

        Mirrors FASTER's ``Refresh()``: cheap when nothing changed,
        otherwise the thread executes catch-up logic (represented here
        by simply adopting the global view — per-phase side effects
        live in the store, keyed off the returned context).
        """
        context = self._threads[thread_id]
        state = self.global_state
        if context.phase is not state.phase or context.version != state.version:
            context.phase = state.phase
            context.version = state.version
        if thread_id not in self._observed:
            self._observed.add(thread_id)
            self._check_established()
        return context

    def _check_established(self) -> None:
        if len(self._observed) < len(self._threads):
            return
        phase = self.global_state.phase
        hooks = self.on_established[phase]
        for hook in list(hooks):
            hook()
        next_phase = self._auto_advance[phase]
        if next_phase is not None:
            self._move_to(next_phase)

    def _move_to(self, phase: Phase, version: Optional[int] = None) -> None:
        self.global_state.phase = phase
        if version is not None:
            self.global_state.version = version
        if phase is Phase.IN_PROGRESS and self._pending_version is not None:
            # Threads entering IN_PROGRESS adopt the new version and stop
            # in-place-updating old-version records.
            self.global_state.version = self._pending_version
            self._pending_version = None
        self._observed = set()
        if not self._threads:
            return
        self._check_established()

    # -- checkpoint machine --------------------------------------------------

    def begin_checkpoint(self, target_version: Optional[int] = None) -> int:
        """Start a CPR checkpoint of the current version.

        ``target_version`` is the post-checkpoint version (the §3.4
        fast-forward rule passes ``Vmax`` here); defaults to ``v + 1``.
        Returns the version being captured.
        """
        state = self.global_state
        if state.phase is not Phase.REST:
            raise StateMachineBusy(f"cannot checkpoint during {state.phase}")
        captured = state.version
        new_version = target_version if target_version is not None else captured + 1
        if new_version <= captured:
            raise ValueError("target version must exceed the current one")
        state.boundary_version = captured
        self._move_to(Phase.PREPARE)
        # PREPARE established -> IN_PROGRESS bumps the version.
        self._pending_version = new_version
        return captured

    _pending_version: Optional[int] = None

    def complete_flush(self) -> None:
        """The checkpoint flush is durable: WAIT_FLUSH -> REST."""
        if self.global_state.phase is not Phase.WAIT_FLUSH:
            raise StateMachineBusy(
                f"no flush outstanding in phase {self.global_state.phase}"
            )
        self.global_state.boundary_version = 0
        self._move_to(Phase.REST)

    # -- rollback machine ---------------------------------------------------------

    def begin_rollback(self, safe_version: int) -> int:
        """Start a non-blocking rollback to ``safe_version``.

        Returns the pre-failure version ``v``; entries in
        ``(safe_version, v]`` will be purged.  Threads observing THROW
        move to ``v + 1`` immediately and keep serving (§5.5).
        """
        state = self.global_state
        if state.phase is not Phase.REST:
            raise StateMachineBusy(f"cannot rollback during {state.phase}")
        rolled = state.version
        state.safe_version = safe_version
        state.boundary_version = rolled
        self._move_to(Phase.THROW, version=rolled + 1)
        return rolled

    def complete_purge(self) -> None:
        """Invalid-marking finished: PURGE -> REST."""
        if self.global_state.phase is not Phase.PURGE:
            raise StateMachineBusy(
                f"no purge outstanding in phase {self.global_state.phase}"
            )
        self.global_state.safe_version = 0
        self.global_state.boundary_version = 0
        self._move_to(Phase.REST)
