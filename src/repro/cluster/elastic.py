"""Elastic key-ownership migration on the running cluster (§5.3).

D-FASTER tracks key ownership at virtual-partition granularity in the
metadata store; workers validate against a lease-guarded local view and
reject mis-routed batches.  A transfer follows the Shadowfax-derived
protocol the paper describes:

1. the old owner renounces locally and the metadata row clears — the
   partition is briefly owner-less and clients retry;
2. the transfer waits for the old owner's next *checkpoint boundary*,
   so ownership is static within every version (the property DPR
   correctness requires).  An idle or checkpoint-less owner is forced
   to seal out of band; a departed or wedged one times the wait out
   onto the *approximate path* (its renounced lease has lapsed, so it
   cannot serve the partition anyway — the finder's approximate
   fallback tolerates the cut imprecision, §3.4);
3. the metadata row flips to the new owner, which grants itself a
   lease and starts serving.

:class:`ElasticCoordinator` drives this on a simulated cluster: it
attaches lease-guarded views to workers (starting their metadata-
validated lease-renewal loops), migrates partitions, and grows/shrinks
the cluster with :meth:`~ElasticCoordinator.scale_out` /
:meth:`~ElasticCoordinator.scale_in`.  Placement changes only when a
caller asks for it.

:class:`PartitionedClient` is a metadata-aware client running a real
DPR :class:`~repro.core.session.Session` at batch granularity: it
carries world-lines and the ``Vs`` scalar across owner changes (the new
owner fast-forwards past every version the session has seen), tracks
commits against piggybacked cuts, matches replies by batch id (stale
or duplicated replies are dropped, not misattributed), retransmits
through loss, and surfaces world-line bumps as
:class:`~repro.core.session.RollbackError` with the exact surviving
prefix — which is what lets tests assert prefix recoverability
*through* a migration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.client import await_reply
from repro.cluster.messages import (
    BatchIds,
    BatchReply,
    BatchRequest,
    batch_request,
)
from repro.cluster.metadata import MetadataStore
from repro.cluster.ownership import HashPartitioner, OwnershipView
from repro.cluster.worker import GateHost
from repro.core.audit import audit_rollback
from repro.core.cuts import DprCut
from repro.core.session import RETRY_DELAY, RollbackError, Session
from repro.sim.kernel import Environment
from repro.sim.network import Network


class ElasticCoordinator:
    """Assigns virtual partitions to workers and migrates them."""

    def __init__(self, env: Environment, metadata: MetadataStore,
                 workers: Sequence[GateHost], partition_count: int = 64,
                 lease_duration: float = 10.0):
        self.env = env
        self.metadata = metadata
        self.partition_count = partition_count
        self.lease_duration = lease_duration
        self.partitioner = HashPartitioner(partition_count)
        self.views: Dict[str, OwnershipView] = {}
        self.workers: Dict[str, GateHost] = {}
        for worker in workers:
            self.attach_worker(worker)
        # Initial round-robin placement.
        addresses = list(self.workers)
        for partition in range(partition_count):
            owner = addresses[partition % len(addresses)]
            self.views[owner].grant(partition)
            metadata.set_owner(partition, owner)
        self.migrations_completed = 0
        #: Transfers that sealed the old owner out of band (step 2).
        self.forced_checkpoints = 0
        #: Transfers that gave up on a checkpoint boundary (departed or
        #: wedged old owner) and took the approximate path.
        self.approximate_transfers = 0

    # -- membership --------------------------------------------------------

    def attach_worker(self, worker: GateHost) -> OwnershipView:
        """Register a worker: build its lease view and start renewal.

        The worker (a :class:`~repro.cluster.worker.GateHost`) gets the
        metadata store too, which activates its metadata-validated
        lease-renewal loop.  Renewal only runs in elastic deployments
        (this method is the only entry), so non-elastic runs never pay
        — or perturb — its metadata traffic.
        """
        address = worker.address
        if address in self.views:
            return self.views[address]
        view = OwnershipView(address, lease_duration=self.lease_duration,
                             clock=lambda: self.env.now)
        worker.attach_ownership(view, self.metadata)
        self.workers[address] = worker
        self.views[address] = view
        return view

    def detach_worker(self, address: str) -> None:
        """Forget a departed worker (its leases die with the view)."""
        view = self.views.pop(address, None)
        if view is not None:
            for partition in sorted(view.owned_partitions()):
                view.renounce(partition)
        self.workers.pop(address, None)

    def owner_of(self, partition: int) -> Optional[str]:
        return self.metadata.owner_of(partition)

    # -- transfer (§5.3) ---------------------------------------------------

    def migrate(self, partition: int, new_owner: str):
        """A generator process performing one §5.3 transfer."""
        if new_owner not in self.views:
            raise KeyError(f"unknown transfer target {new_owner!r}")
        old_owner = self.metadata.owner_of(partition)
        if old_owner == new_owner:
            return
        if old_owner is not None:
            # Step 1: renounce locally *before* touching the metadata
            # store; requests start bouncing immediately.
            view = self.views.get(old_owner)
            if view is not None:
                view.renounce(partition)
            yield self.metadata.access()
            if self.metadata.owner_of(partition) != old_owner:
                # A concurrent migration or recovery re-homed the
                # partition while the metadata access was in flight;
                # abandon this transfer rather than null out someone
                # else's ownership row.
                return
            self.metadata.set_owner(partition, None)
            # Step 2: defer to the old owner's checkpoint boundary so
            # ownership is static within versions.
            yield from self._await_checkpoint_boundary(old_owner)
        # Step 3: install the new owner.
        yield self.metadata.access()
        target_view = self.views.get(new_owner)
        if target_view is None:
            # The target detached (scale-in) while the transfer was in
            # flight: the partition stays owner-less (clients keep
            # retrying) until the caller migrates it somewhere.
            return
        self.metadata.set_owner(partition, new_owner)
        target_view.grant(partition)
        self.migrations_completed += 1

    def _await_checkpoint_boundary(self, old_owner: str):
        """Wait (boundedly) for the old owner to seal a version.

        Liveness over stall: a departed, crashed, or stopped owner will
        never seal, and an idle one with checkpoints disabled seals
        only when asked — so after one patience window the coordinator
        forces an out-of-band checkpoint, and after a second it falls
        through to the approximate path.  The renounced lease makes the
        fall-through safe: by then the old owner bounces every batch
        for this partition, so no post-transfer op can land in one of
        its versions.
        """
        worker = self.workers.get(old_owner)
        if worker is None or worker.crashed or not worker.running:
            self.approximate_transfers += 1
            return
        interval = worker.checkpoint_interval
        boundary = worker.engine.version
        poll = interval / 4
        deadline = self.env.now + 2 * interval
        forced = False
        while worker.engine.version == boundary:
            if self.env.now >= deadline:
                if forced:
                    self.approximate_transfers += 1
                    return
                if worker.request_checkpoint():
                    self.forced_checkpoints += 1
                forced = True
                deadline = self.env.now + 2 * interval
            yield poll

    # -- scale-out / scale-in ----------------------------------------------

    def scale_out(self, worker, partitions: Optional[Sequence[int]] = None):
        """A generator process: add a worker and migrate it a fair share.

        With ``partitions=None`` the share is chosen deterministically:
        ``partition_count // n_workers`` partitions, repeatedly taken
        from whichever current owner holds the most (ties broken by
        address, partitions by highest id).
        """
        self.attach_worker(worker)
        if partitions is None:
            partitions = self._fair_share_for(worker.address)
        for partition in partitions:
            yield from self.migrate(partition, worker.address)

    def _fair_share_for(self, address: str) -> List[int]:
        holdings: Dict[str, List[int]] = {}
        for partition in range(self.partition_count):
            owner = self.metadata.owner_of(partition)
            if owner is not None and owner != address:
                holdings.setdefault(owner, []).append(partition)
        target = self.partition_count // max(1, len(self.views))
        share: List[int] = []
        while len(share) < target and holdings:
            donor = max(sorted(holdings), key=lambda a: len(holdings[a]))
            share.append(holdings[donor].pop())
            if not holdings[donor]:
                del holdings[donor]
        return share

    def scale_in(self, address: str):
        """A generator process: drain every partition off ``address``.

        Partitions spread over the remaining workers (least-loaded
        first, ties by address); once drained the worker is detached
        and can be removed from the cluster.
        """
        survivors = sorted(a for a in self.views if a != address)
        if not survivors:
            raise RuntimeError("cannot scale in the last worker")
        counts = {a: 0 for a in survivors}
        for partition in range(self.partition_count):
            owner = self.metadata.owner_of(partition)
            if owner in counts:
                counts[owner] += 1
        drained = sorted(
            p for p in range(self.partition_count)
            if self.metadata.owner_of(p) == address
        )
        for partition in drained:
            target = min(survivors, key=lambda a: (counts[a], a))
            yield from self.migrate(partition, target)
            counts[target] += 1
        self.detach_worker(address)


class PartitionedClient:
    """A DPR-aware client routing single batches by partition (§5.3).

    Drives one :class:`~repro.core.session.Session` a single batch at
    a time; see the module docstring for the guarantees this carries
    through migrations.  Every :class:`RollbackError` it raises has
    passed :func:`~repro.core.audit.audit_rollback` against the ops it
    saw execute since its previous rollback.  Nothing outside
    ``tests/`` reaches it (no figure, example or ledger workload): it
    is the instrument the migration, replication and chaos tests drive
    prefix recoverability through.  The high-throughput fleet clients
    (:class:`repro.cluster.client.ClientMachine` with a ``router``)
    drive the same session class through
    :class:`~repro.cluster.client.BatchSession`.
    """

    #: Unanswered requests are retransmitted this often (the network is
    #: at-least-once; the worker's dedup absorbs extra copies).
    REQUEST_TIMEOUT = 50e-3
    #: After this many resends the attempt gives up and the owner
    #: mapping is re-resolved — the addressee may be gone for good
    #: (crashed, with a promoted replica now owning the partition).
    MAX_RESENDS = 8

    def __init__(self, env: Environment, net: Network, address: str,
                 metadata: MetadataStore, coordinator: ElasticCoordinator):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.metadata = metadata
        self.coordinator = coordinator
        #: Attempts abandoned after MAX_RESENDS (owner unreachable).
        self.giveups = 0
        #: The DPR session: world-line, Vs, commit watermark.
        self.session = Session(address)
        #: Locally cached partition -> owner mapping (§5.3: clients
        #: cache and only consult the store on changes).
        self._owner_cache: Dict[int, str] = {}
        self._batch_ids = BatchIds()
        self.metadata_refreshes = 0
        self.retries = 0
        self.resends = 0
        #: Inbox messages that did not match the awaited batch id
        #: (stale duplicates under reorder/duplicate fault plans).
        self.mismatched_replies = 0
        self.rollbacks: List[RollbackError] = []
        #: One entry per served batch: batch_id, seqnos, object served
        #: by, executed version, partition — the ledger each rollback
        #: is audited against.
        self.history: List[Dict] = []
        #: Where in ``history`` the previous rollback left off.
        self._audited_upto = 0

    def _owner(self, partition: int, refresh: bool):
        if refresh or partition not in self._owner_cache:
            yield self.metadata.access()
            self.metadata_refreshes += 1
            owner = self.metadata.owner_of(partition)
            if owner is not None:
                self._owner_cache[partition] = owner
            else:
                self._owner_cache.pop(partition, None)
            return owner
        return self._owner_cache[partition]

    def request(self, key, ops, write_count: int = 0):
        """A generator process: route, send, retry until served.

        Returns the successful :class:`BatchReply`.  Raises
        :class:`~repro.core.session.RollbackError` when a world-line
        bump cut this session's operations — the error carries the
        exact surviving prefix; call ``session.acknowledge_rollback()``
        to resume issuing.
        """
        env = self.env
        session = self.session
        ops = tuple(ops)
        partition = self.coordinator.partitioner.partition_of(key)
        header = None
        request = None
        refresh = False
        while True:
            owner = yield from self._owner(partition, refresh)
            refresh = False
            if owner is None:
                # Mid-transfer: the partition is owner-less; retry.
                self.retries += 1
                yield RETRY_DELAY
                refresh = True
                continue
            if header is None:
                # Issue once per logical batch: the seqno span, the
                # world-line, and Vs are fixed at issue time; bounced
                # attempts (which provably did not execute) re-send the
                # same span under a fresh batch id.
                header = session.issue(owner, now=env.now, count=len(ops))
            if request is None:
                request = batch_request(
                    self.address, header, self._batch_ids.allocate(),
                    self.address, write_count, ops, partition)
            self.net.send(self.address, owner, request,
                          size_ops=request.op_count)
            batch_id = request.batch_id
            reply = yield from await_reply(
                self, batch_id,
                lambda payload: (isinstance(payload, BatchReply)
                                 and payload.batch_id == batch_id),
                resend=lambda: self._resend(owner, request),
                max_resends=self.MAX_RESENDS)
            if reply is None:
                self.giveups += 1
                # The addressee never answered (crashed; possibly
                # replaced by a promoted replica).  Re-resolve the
                # owner and re-send the SAME batch id: if the original
                # did execute before the crash, the replicated reply
                # memo on the new owner answers the duplicate instead
                # of re-applying the ops.
                self.retries += 1
                refresh = True
                yield RETRY_DELAY
                continue
            if reply.status == "not_owner":
                # Stale cache: re-read the mapping and retry (§5.3).
                # The batch provably did not execute: fresh id.
                self.retries += 1
                refresh = True
                request = None
                yield RETRY_DELAY
                continue
            if reply.status == "retry":
                # Worker mid-recovery; back off and re-send fresh.
                self.retries += 1
                request = None
                yield RETRY_DELAY
                continue
            if reply.status == "rolled_back":
                cut = reply.cut if reply.cut is not None else DprCut()
                error = session.observe_failure(reply.world_line, cut)
                self._audit(error, cut)
                self.rollbacks.append(error)
                raise error
            session.absorb(header.seqno, reply.version, env.now,
                           reply.object_id, reply.cut)
            self.history.append({
                "batch_id": request.batch_id,
                "first_seqno": header.seqno,
                "last_seqno": header.seqno + len(ops) - 1,
                "object_id": reply.object_id,
                "version": reply.version,
                "partition": partition,
            })
            return reply

    def _audit(self, error: RollbackError, cut: DprCut) -> None:
        """Check ``error`` against the ops served since the previous
        rollback (Definition 3.2, :func:`repro.core.audit.audit_rollback`)."""
        executed = [
            (seqno, entry["object_id"], entry["version"])
            for entry in self.history[self._audited_upto:]
            for seqno in range(entry["first_seqno"], entry["last_seqno"] + 1)]
        floor = self.rollbacks[-1].survived_seqno if self.rollbacks else 0
        audit_rollback(error, cut, executed, floor)
        self._audited_upto = len(self.history)

    def _resend(self, owner: str, request: BatchRequest) -> None:
        self.resends += 1
        self.net.send(self.address, owner, request,
                      size_ops=request.op_count)
