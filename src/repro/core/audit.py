"""The DPR oracle: DPR's promise, stated once as runtime checks.

Server side, ``audit_deployment`` inspects a set of StateObjects plus
their finder and verifies the §4.3 correctness obligations hold *right
now*:

- **monotonicity** — no sealed version depends on a larger version;
- **cut soundness** — restoring to the published cut loses nothing it
  covers (the checkpoint a restore to a shard's position returns to
  captures every sealed version at or below the position, and the
  in-progress version has run nothing there), and the cut is
  transitively closed over the reported dependencies;
- **durability ordering** — every shard's persisted-version list is
  strictly increasing (flushes complete in seal order);
- **world-line agreement** — once the recovery that published it has
  finished, every shard is on the durably published world-line.

Client side, ``audit_sessions`` checks each session's ledger (no op is
counted twice or invented) and ``audit_rollback`` checks a
:class:`~repro.core.session.RollbackError` against Definition 3.2: the
prefix it reports as surviving is exactly the DPR-guarantee the
recovery cut gives the ops the session saw execute.

:meth:`repro.cluster.shell.ClusterShell.run` ends with the server and
ledger checks over the whole cluster, and
:class:`repro.cluster.elastic.PartitionedClient` audits every rollback
it raises.  The checks are read-only and cheap.  Violations raise
:class:`InvariantViolation` with a precise description.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple

from repro.core.cuts import DprCut, guarantee_from_cut
from repro.core.finder.base import DprFinder
from repro.core.session import RollbackError, Session
from repro.core.state_object import StateObject
from repro.core.versioning import Token


class InvariantViolation(AssertionError):
    """An audited invariant does not hold."""


def audit_monotonicity(objects: Mapping[str, StateObject]) -> None:
    """No sealed version may depend on a strictly larger version."""
    for name, obj in objects.items():
        for version, descriptor in sorted(obj.sealed_descriptors().items()):
            for dep in sorted(descriptor.deps):
                if dep.version > version:
                    raise InvariantViolation(
                        f"monotonicity: {name}-{version} depends on the "
                        f"larger version {dep}"
                    )


def audit_durability_order(objects: Mapping[str, StateObject]) -> None:
    """Persisted versions must be strictly increasing per shard."""
    for name, obj in objects.items():
        versions = obj.persisted_versions()
        for earlier, later in zip(versions, versions[1:]):
            if later <= earlier:
                raise InvariantViolation(
                    f"durability order: {name} persisted {later} after "
                    f"{earlier}"
                )


def audit_cut(finder: DprFinder,
              objects: Mapping[str, StateObject]) -> None:
    """The published cut must be durable and transitively closed."""
    cut = finder.current_cut()
    for name, obj in objects.items():
        position = cut.version_of(name)
        if position == 0:
            continue
        # Durability: ops run only in sealed versions or the in-progress
        # one (the dirty-seal invariant), and a checkpoint holds every
        # version up to its own, so restoring to the position (which
        # returns to the latest checkpoint at or below it) loses nothing
        # iff that checkpoint is at least every covered sealed version.
        if obj.dirty and obj.version <= position:
            raise InvariantViolation(
                f"cut durability: {name} is still running version "
                f"{obj.version}, which {cut} covers"
            )
        restorable = obj.latest_persisted_at_or_below(position)
        for version, descriptor in sorted(obj.sealed_descriptors().items()):
            if version > position:
                break
            if version > restorable:
                raise InvariantViolation(
                    f"cut durability: {name}-{version} is covered by "
                    f"{cut} but {name}'s checkpoint at or below it is "
                    f"{restorable}"
                )
            for dep in sorted(descriptor.deps):
                if cut.version_of(dep.object_id) < dep.version:
                    raise InvariantViolation(
                        f"cut closure: {name}-{version} is covered by "
                        f"{cut} but depends on uncovered {dep}"
                    )


def audit_world_lines(finder: DprFinder,
                      objects: Mapping[str, StateObject]) -> None:
    """No shard may trail, or run ahead of, the durably published
    world-line once the recovery that published it has completed
    (finder un-halted)."""
    if finder.halted:
        return  # recovery in flight; shards legitimately trail
    published = finder.table.read_world_line()
    for name, obj in objects.items():
        current = obj.world_line.current
        if current != published:
            side = "ahead of" if current > published else "behind"
            raise InvariantViolation(
                f"world-line: {name} is at {current}, {side} the "
                f"published {published}"
            )


def audit_deployment(finder: DprFinder,
                     objects: Mapping[str, StateObject]) -> List[str]:
    """Run every server audit; returns the list of checks that passed."""
    audit_monotonicity(objects)
    audit_durability_order(objects)
    audit_cut(finder, objects)
    audit_world_lines(finder, objects)
    return ["monotonicity", "durability-order", "cut", "world-lines"]


def audit_sessions(sessions: Iterable[Session]) -> None:
    """Every session's ledger balances: each issued op is committed,
    aborted, reconciled or still in the window at most once (a refused
    op is none of them), and the counters agree with the window."""
    for session in sessions:
        name = session.session_id
        issued = session.last_issued_seqno
        in_window = unanswered = 0
        for span in session.window.values():
            in_window += span.op_count
            if span.version is None:
                unanswered += span.op_count
        counted = (session.committed_ops, session.aborted_ops,
                   session.reconciled_ops)
        if min(counted) < 0 or sum(counted) + in_window > issued:
            raise InvariantViolation(
                f"ledger: session {name} counts committed/aborted/"
                f"reconciled {counted} plus {in_window} in its window, "
                f"but issued {issued}"
            )
        if session.outstanding_ops != unanswered:
            raise InvariantViolation(
                f"ledger: session {name} has {session.outstanding_ops} "
                f"outstanding ops, but its window holds {unanswered} "
                "unanswered"
            )
        if session.committed_seqno > issued:
            raise InvariantViolation(
                f"ledger: session {name} committed up to seqno "
                f"{session.committed_seqno}, but issued {issued}"
            )


def audit_rollback(error: RollbackError, cut: DprCut,
                   executed: Iterable[Tuple[int, str, int]],
                   floor: int) -> None:
    """A rollback reports exactly the prefix Definition 3.2 promises.

    ``executed`` holds ``(seqno, object_id, version)`` for every op the
    session saw execute since its previous rollback (which reported
    ``floor`` as surviving; 0 if none), and ``cut`` is the recovery cut.
    The reported watermark must be the guarantee ``cut`` gives those
    ops, no lost op may be one the guarantee keeps, and every executed
    op not reported lost must be covered by ``cut``.  The session must
    have had one batch in flight at a time: no op was PENDING when the
    prefix passed it, so the guarantee has no §5.4 exceptions.
    """
    session_id = error.session_id
    ops = sorted(executed)
    guarantee = guarantee_from_cut(cut, {session_id: ops})
    expected = max(floor, guarantee.watermark(session_id))
    if error.survived_seqno != expected:
        raise InvariantViolation(
            f"rollback: session {session_id} reports seqno "
            f"{error.survived_seqno} survived, but {cut} guarantees "
            f"{expected}"
        )
    lost = error.lost
    for seqno in lost:
        if guarantee.survives(session_id, seqno):
            raise InvariantViolation(
                f"rollback: session {session_id} lost seqno {seqno}, "
                f"which {cut} guarantees"
            )
    dropped = set(lost)
    for seqno, object_id, version in ops:
        if seqno not in dropped and not cut.covers(Token(object_id, version)):
            raise InvariantViolation(
                f"rollback: session {session_id} kept seqno {seqno}, but "
                f"{cut} does not cover {object_id}-{version}"
            )
