"""The cut-finder interface and its durable-table dependency.

A finder receives two streams of reports from StateObjects — version
*seals* (with dependency sets) and flush *completions* — and maintains
the current fault-tolerant DPR-cut.  How much of that information is
persisted, and where the cut computation runs, is what distinguishes
the exact, approximate and hybrid algorithms.

Durability is abstracted as :class:`VersionTable`, a tiny key-value
table with the semantics the paper assumes of its Azure SQL metadata
store: atomic single-row upserts and consistent reads.  The in-process
implementation here is used by the core tests; the cluster layer wraps
it with simulated round-trip latency and makes coordinator crashes
observable.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Optional

from repro.core.cuts import DprCut
from repro.core.versioning import NEVER_COMMITTED, CommitDescriptor, Token


class VersionTable:
    """The durable ``dpr`` table of Figure 4.

    ``UPDATE dpr SET persistedVersion = v WHERE id = x`` /
    ``SELECT min(persistedVersion) FROM dpr`` — plus a max aggregate for
    the ``Vmax`` fast-forward rule, and a separate durable slot for the
    published cut (so a recovering cluster never reneges on a guarantee
    already reported to clients).
    """

    def __init__(self):
        self._rows: Dict[str, int] = {}
        self._cut: DprCut = DprCut()
        self._world_line: int = 0
        # Cached aggregates: the min/max scans run once per finder tick,
        # which dominated approximate-finder profiles.  ``None`` marks a
        # stale cache; mutations below keep them incrementally fresh
        # where cheap and invalidate otherwise.  ``revision`` bumps on
        # every row mutation so finders can cache derived values.
        self._min_cache: Optional[int] = None
        self._max_cache: Optional[int] = None
        self.revision = 0

    # -- dpr rows -----------------------------------------------------

    def upsert(self, object_id: str, persisted_version: int) -> None:
        """Insert-or-raise-to: creates the row (even at version 0, which
        is how membership registration makes a never-committed shard
        hold the cut back); never lowers an existing row."""
        current = self._rows.get(object_id)
        if current is None:
            self._rows[object_id] = persisted_version
            # A new row can only lower the min / raise the max.
            if self._min_cache is not None and persisted_version < self._min_cache:
                self._min_cache = persisted_version
            if self._max_cache is not None and persisted_version > self._max_cache:
                self._max_cache = persisted_version
            self.revision += 1
        elif persisted_version > current:
            self._rows[object_id] = persisted_version
            if self._max_cache is not None and persisted_version > self._max_cache:
                self._max_cache = persisted_version
            if current == self._min_cache:
                # The raised row may have been the unique minimum.
                self._min_cache = None
            self.revision += 1

    def rows(self) -> Dict[str, int]:
        return dict(self._rows)

    def members(self) -> Iterable[str]:
        return list(self._rows)

    def min_version(self) -> int:
        """``SELECT min(persistedVersion) FROM dpr`` (cached)."""
        if not self._rows:
            return NEVER_COMMITTED
        if self._min_cache is None:
            self._min_cache = min(self._rows.values())
        return self._min_cache

    def max_version(self) -> int:
        """``SELECT max(persistedVersion) FROM dpr`` (cached)."""
        if not self._rows:
            return NEVER_COMMITTED
        if self._max_cache is None:
            self._max_cache = max(self._rows.values())
        return self._max_cache

    # -- published cut (fault-tolerant consensus on the guarantee) -----

    def publish_cut(self, cut: DprCut) -> None:
        """``UpdateCutAtomically``: the cut is never partially read."""
        self._cut = cut

    def read_cut(self) -> DprCut:
        return self._cut

    # -- world-line -----------------------------------------------------

    def publish_world_line(self, world_line: int) -> None:
        if world_line > self._world_line:
            self._world_line = world_line

    def read_world_line(self) -> int:
        return self._world_line


class DprFinder(abc.ABC):
    """Common interface of the three cut-finder algorithms."""

    def __init__(self, table: Optional[VersionTable] = None):
        self.table = table if table is not None else VersionTable()
        #: While True (set by the recovery controller, §4.1) the cut is
        #: frozen: ticks republish the existing guarantee unchanged.
        self.halted = False

    # -- membership ------------------------------------------------------

    def register_object(self, object_id: str) -> None:
        """Add a shard; it joins the cut once it has committed."""
        self.table.upsert(object_id, NEVER_COMMITTED)

    # -- report stream -----------------------------------------------------

    @abc.abstractmethod
    def report_seal(self, descriptor: CommitDescriptor) -> None:
        """A StateObject sealed a version (flush may still be running)."""

    @abc.abstractmethod
    def report_persisted(self, token: Token) -> None:
        """The flush for ``token`` finished; it may now enter cuts."""

    # -- cut computation --------------------------------------------------

    def tick(self) -> DprCut:
        """One coordinator pass: recompute and publish the current cut.

        Frozen (returns the published cut unchanged) while recovery has
        the finder halted.
        """
        if self.halted:
            return self.current_cut()
        return self._compute()

    @abc.abstractmethod
    def _compute(self) -> DprCut:
        """Algorithm-specific cut computation (see subclasses)."""

    def current_cut(self) -> DprCut:
        """The latest fault-tolerantly published cut."""
        return self.table.read_cut()

    def max_version(self) -> int:
        """``Vmax`` — used by laggards to fast-forward (§3.4)."""
        return self.table.max_version()

    def _publish(self, cut: DprCut) -> DprCut:
        """Publish monotonically: cuts never regress (Def 3.1 consensus)."""
        merged = self.table.read_cut().merge_max(cut)
        self.table.publish_cut(merged)
        return merged
