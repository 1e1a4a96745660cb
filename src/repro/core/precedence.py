"""The precedence graph (§3.1) and the maximal-closed-cut computation.

Every committed version is a vertex; a directed edge goes from ``B-n``
to ``A-m`` when an operation captured by ``A-m`` is immediately followed
(on some SessionOrder) by an operation captured by ``B-n``.  A set of
tokens forms a DPR-cut iff it is closed under the transitive dependency
relation and every member is durable.

Because the progress protocol guarantees *monotonicity* (no version
depends on a larger version, §3.2) and versions are cumulative, the
maximal cut can be found with a per-object fixpoint over durable
versions rather than the paper's ``BuildDependencySet`` BFS per vertex.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from repro.core.cuts import DprCut
from repro.core.versioning import NEVER_COMMITTED, CommitDescriptor, Token, merge_dependencies


class MonotonicityViolation(RuntimeError):
    """A version was reported depending on a strictly larger version.

    The §3.2 progress protocol makes this impossible; seeing it means a
    StateObject did not fast-forward before executing a request.
    """


class PrecedenceGraph:
    """Tracks committed versions, their dependencies, and durability.

    The graph distinguishes *committed* (version sealed, flush started)
    from *persisted* (flush finished, token durable).  Only persisted
    tokens may enter a cut.
    """

    def __init__(self, enforce_monotonicity: bool = True):
        self._descriptors: Dict[Token, CommitDescriptor] = {}
        #: per-object sorted list of committed versions
        self._versions: Dict[str, List[int]] = defaultdict(list)
        self._enforce = enforce_monotonicity
        # The durability state, maintained on report_persist/prune
        # instead of rescanned per finder tick: per-object
        # persisted-version int sets (no Token churn in the fixpoint
        # inner loop) and the per-object max persisted version (the
        # fixpoint seed, previously an O(versions) scan).
        self._persisted_by_object: Dict[str, Set[int]] = {}
        self._max_persisted: Dict[str, int] = {}
        # Structural revision counter + single-entry cut memo: between
        # graph mutations the maximal closed cut is unchanged, and
        # finder ticks far outnumber mutations on quiet intervals.
        self._revision = 0
        self._cut_key: Optional[tuple] = None
        self._cut_cache: Optional[DprCut] = None

    # -- construction ---------------------------------------------------

    def add_commit(self, descriptor: CommitDescriptor) -> None:
        """Add a newly sealed version (not durable yet)."""
        token = descriptor.token
        if token in self._descriptors:
            raise ValueError(f"duplicate commit for {token}")
        if self._enforce:
            for dep in sorted(descriptor.deps):
                if dep.version > token.version:
                    raise MonotonicityViolation(
                        f"{token} depends on larger version {dep}"
                    )
        deps = merge_dependencies(descriptor.deps)
        descriptor = CommitDescriptor(
            token=token,
            deps=deps,
            session_watermarks=descriptor.session_watermarks,
            exceptions=descriptor.exceptions,
        )
        self._descriptors[token] = descriptor
        versions = self._versions[token.object_id]
        if versions and token.version <= versions[-1]:
            raise ValueError(
                f"non-increasing version {token} after {token.object_id}-{versions[-1]}"
            )
        versions.append(token.version)
        self._revision += 1

    def mark_persisted(self, token: Token) -> None:
        """Mark a previously added commit as durable."""
        if token not in self._descriptors:
            raise KeyError(f"unknown token {token}")
        object_id, version = token.object_id, token.version
        per_object = self._persisted_by_object.get(object_id)
        if per_object is None:
            per_object = self._persisted_by_object[object_id] = set()
        per_object.add(version)
        if version > self._max_persisted.get(object_id, NEVER_COMMITTED):
            self._max_persisted[object_id] = version
        self._revision += 1

    def prune_below(self, cut: DprCut) -> int:
        """Garbage-collect versions at or below the stable cut.

        Once a cut is fault-tolerantly persisted, versions it covers can
        never be rolled back, so their graph state is dead.  Returns the
        number of vertices removed.
        """
        removed = 0
        for object_id, versions in list(self._versions.items()):
            floor = cut.version_of(object_id)
            keep = [v for v in versions if v > floor]
            if len(keep) == len(versions):
                continue
            per_object = self._persisted_by_object.get(object_id)
            for version in versions:
                if version <= floor:
                    token = Token(object_id, version)
                    self._descriptors.pop(token, None)
                    if per_object is not None:
                        per_object.discard(version)
                    removed += 1
            self._versions[object_id] = keep
            # The pruned range may have held the cached max; re-derive it
            # from the surviving persisted versions.
            if self._max_persisted.get(object_id, NEVER_COMMITTED) <= floor:
                if per_object:
                    self._max_persisted[object_id] = max(per_object)
                else:
                    self._max_persisted.pop(object_id, None)
        if removed:
            self._revision += 1
        return removed

    # -- queries ----------------------------------------------------------

    def __contains__(self, token: Token) -> bool:
        return token in self._descriptors

    def __len__(self) -> int:
        return len(self._descriptors)

    def descriptor(self, token: Token) -> CommitDescriptor:
        return self._descriptors[token]

    def max_persisted_version(self, object_id: str) -> int:
        """Largest durable version of an object (cumulative restore point).

        O(1): maintained incrementally by :meth:`mark_persisted` /
        :meth:`prune_below` instead of scanning the version list on
        every call.
        """
        return self._max_persisted.get(object_id, NEVER_COMMITTED)

    def max_closed_cut(self, floor: int = NEVER_COMMITTED) -> DprCut:
        """The maximal DPR-cut over *persisted* tokens.

        Fixpoint: start each object at its max persisted version; while
        any token at or below an object's cut position has a dependency
        the current cut does not satisfy, lower that object's position
        below the offending token.  Monotonicity bounds the iteration.

        ``floor`` marks a version below which everything is externally
        known durable and prefix-consistent (the hybrid algorithm passes
        the approximate finder's ``Vmin`` here after a coordinator crash
        loses part of the graph, §3.4): dependencies at or below the
        floor are treated as satisfied, and no object's position drops
        below it.
        """
        # Memo: the cut is a pure function of the graph state, which the
        # revision counter fingerprints — quiet ticks return the cached
        # (immutable) DprCut without re-running the fixpoint.
        key = (self._revision, floor)
        if key == self._cut_key and self._cut_cache is not None:
            return self._cut_cache
        max_persisted = self._max_persisted
        persisted_by_object = self._persisted_by_object
        empty: Set[int] = set()
        cut: Dict[str, int] = {
            obj: max(max_persisted.get(obj, NEVER_COMMITTED), floor)
            for obj in self._versions
        }
        changed = True
        while changed:
            changed = False
            for object_id, versions in self._versions.items():
                ceiling = cut.get(object_id, NEVER_COMMITTED)
                persisted_here = persisted_by_object.get(object_id, empty)
                for version in versions:
                    if version > ceiling:
                        break
                    if version <= floor:
                        continue
                    descriptor = self._descriptors[Token(object_id, version)]
                    bad = version not in persisted_here or any(
                        dep.version > floor
                        and (
                            cut.get(dep.object_id, NEVER_COMMITTED) < dep.version
                            or max_persisted.get(dep.object_id, NEVER_COMMITTED) < dep.version
                        )
                        for dep in descriptor.deps
                    )
                    if bad:
                        # Retreat to the largest persisted version below
                        # the offending token (never below the floor).
                        new_ceiling = floor
                        for candidate in versions:
                            if candidate >= version:
                                break
                            if candidate > floor and candidate in persisted_here:
                                new_ceiling = candidate
                        cut[object_id] = new_ceiling
                        changed = True
                        break
        result = DprCut({obj: ver for obj, ver in cut.items() if ver > NEVER_COMMITTED})
        self._cut_key = key
        self._cut_cache = result
        return result
