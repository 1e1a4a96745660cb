"""The metadata store: the paper's Azure SQL database (§5.3).

Holds the tables D-FASTER needs — the DPR table (worker -> persisted
version, doubling as the source of truth for cluster membership), the
ownership table (virtual partition -> worker), the published
cut/world-line, and the replication tables (per-primary replica
watermark records plus the promotion election CAS table) — behind a
simulated round-trip latency.

The store itself is fault-tolerant (the paper provisions a managed SQL
instance); it never *loses data* in the simulation.  It can, however,
become slow or temporarily unreachable: an installed
:class:`~repro.sim.faults.FaultPlan` stretches
:meth:`MetadataStore.access` round trips across scheduled outage
windows and latency spikes, which is how
chaos runs force the finder service's coordinator to fail over onto the
hybrid finder's approximate fallback (§3.4).  Accesses *are* timed:
callers yield :meth:`MetadataStore.access` around each logical query,
which is how "off the critical path" stays honest — nothing on the
operation fast path ever touches this store.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.cuts import DprCut
from repro.core.finder.base import VersionTable
from repro.sim.faults import FaultPlan
from repro.sim.kernel import Environment, Event
from repro.sim.rand import make_rng


class MetadataStore:
    """Azure-SQL stand-in: VersionTable + ownership + timed access."""

    #: Round trip to the store, in seconds: mean and jitter stddev.
    RTT_MEAN = 1.2e-3
    RTT_JITTER = 0.2e-3

    def __init__(self, env: Environment,
                 rng: Optional[random.Random] = None,
                 faults: Optional[FaultPlan] = None):
        self.env = env
        self._rng = make_rng(rng)
        #: The durable ``dpr`` table + published cut + world-line.
        self.version_table = VersionTable()
        #: virtual partition id -> owning worker id.
        self.ownership: Dict[int, str] = {}
        #: primary worker id -> {replica id -> (applied, durable)}.
        self.replica_records: Dict[str, Dict[str, Tuple[int, int]]] = {}
        #: (primary id, election epoch) -> elected replica id (CAS table).
        self.elections: Dict[Tuple[str, int], str] = {}
        self.queries = 0
        self.faults = faults

    def access(self) -> float:
        """One timed round trip to the store (yield this, then read).

        Returns the round-trip delay for the caller to ``yield`` (a
        kernel number sleep).  During an injected outage the access
        stalls until the outage lifts; during a latency spike it pays
        the extra delay.  The query itself never fails — the managed
        store is durable — so callers observe slowness, not errors (and
        must survive it).
        """
        self.queries += 1
        delay = self.RTT_MEAN
        if self.RTT_JITTER > 0:
            delay += abs(self._rng.gauss(0.0, self.RTT_JITTER))
        if self.faults is not None:
            delay += self.faults.metadata_delay(self.env.now)
        return delay

    # -- ownership table (§5.3) -------------------------------------------

    def owner_of(self, partition: int) -> Optional[str]:
        return self.ownership.get(partition)

    def set_owner(self, partition: int, worker_id: Optional[str]) -> None:
        """Assign (or, with None, clear) a virtual partition's owner."""
        if worker_id is None:
            self.ownership.pop(partition, None)
        else:
            self.ownership[partition] = worker_id

    def reassign_owner(self, old_owner: str, new_owner: str) -> List[int]:
        """Re-home every partition mapped to ``old_owner``.

        Used by the promotion path: the elected replica inherits the
        dead primary's entire partition set in one metadata write.
        Returns the (sorted) re-homed partition ids.
        """
        moved = sorted(p for p, w in self.ownership.items() if w == old_owner)
        for partition in moved:
            self.ownership[partition] = new_owner
        return moved

    # -- replication records (per-primary replica chains) --------------------

    def register_replica(self, primary: str, replica_id: str) -> None:
        """Enrol ``replica_id`` in ``primary``'s chain (watermarks 0)."""
        chain = self.replica_records.setdefault(primary, {})
        chain.setdefault(replica_id, (0, 0))

    def drop_replica(self, primary: str, replica_id: str) -> None:
        """Remove a replica's record (chain retirement / promotion)."""
        chain = self.replica_records.get(primary)
        if chain is not None:
            chain.pop(replica_id, None)
            if not chain:
                self.replica_records.pop(primary, None)

    def publish_replica(self, primary: str, replica_id: str,
                        applied_version: int, durable_version: int) -> None:
        """Monotonically advance a replica's (applied, durable) record."""
        chain = self.replica_records.setdefault(primary, {})
        applied0, durable0 = chain.get(replica_id, (0, 0))
        chain[replica_id] = (max(applied0, applied_version),
                             max(durable0, durable_version))

    def reset_replica(self, primary: str, replica_id: str,
                      applied_version: int, durable_version: int) -> None:
        """Overwrite a replica's record non-monotonically.

        Used after a primary restart reset lowered the replica's
        watermarks (or marked it permanently stale): the monotone
        :meth:`publish_replica` merge would keep advertising the
        pre-reset high-water marks and mis-qualify the replica for
        promotion or reads.
        """
        chain = self.replica_records.setdefault(primary, {})
        chain[replica_id] = (applied_version, durable_version)

    def replicas_of(self, primary: str) -> List[Tuple[str, int, int]]:
        """Sorted ``(replica_id, applied, durable)`` records for a chain."""
        chain = self.replica_records.get(primary, {})
        return [(rid, chain[rid][0], chain[rid][1]) for rid in sorted(chain)]

    def elect(self, primary: str, epoch: int, candidate: str) -> str:
        """Compare-and-swap election: first writer wins for an epoch.

        Returns the incumbent (the candidate if the CAS installed it) —
        concurrent electors converge on one winner deterministically.
        """
        return self.elections.setdefault((primary, epoch), candidate)

    # -- membership (the DPR table doubles as membership, §5.3) --------------

    def members(self):
        return self.version_table.members()
