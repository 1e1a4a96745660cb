"""Primary/replica chains with promotion-instead-of-rollback.

Today a partition has exactly one owner, so a single worker crash
forces a cluster-wide world-line bump (§4.1) even when a byte-identical
copy of the shard exists.  This module adds DPR-aware replication on
top of the existing machinery:

- :class:`ReplicationSource` lives on a primary (a
  :class:`~repro.cluster.worker.DFasterWorker` or a D-Redis proxy) and
  streams the primary's batch/seal/rollback log to N replicas over the
  simulated :class:`~repro.sim.network.Network`.  Client "ok" replies
  are *held* until every replica has acked the batch's log entry, so a
  caught-up replica provably holds everything any client was ever told
  succeeded — the precondition for promoting it without a world-line
  bump.
- :class:`ReplicaNode` is a standby worker that applies the streamed
  log to its own engine, tracks the primary's persisted watermark, and
  serves **recoverable-prefix reads**: GET batches answered from a
  snapshot no newer than the guaranteed DPR cut, which a future §4.1
  rollback (which restores *to* the cut) can never erase.  Replicas
  publish
  ``(applied_version, durable_version)`` records to the
  :class:`~repro.cluster.metadata.MetadataStore` so the cluster manager
  can qualify them for promotion and read clients can route around
  laggards.
- :class:`ReplicationDirector` wires chains to a cluster and performs
  the mechanics of a promotion decided by
  :meth:`~repro.cluster.services.ClusterManager._try_promotion`:
  flipping the elected replica to primary duty, re-homing the dead
  owner's partitions in metadata, and swapping the new address into
  the cluster's one membership list so clients and services reach it.

The stream is at-least-once: entries carry ``(epoch, seq)``, replicas
deduplicate with a per-epoch floor and reorder-buffer out-of-order
arrivals, and the source retransmits unacked entries on a timer.  A
primary *restart* (rollback took the fallback path) bumps the epoch and
opens it with a ``reset`` entry so replicas discard the abandoned
world-line's tail.  A replica whose acked prefix falls short of a reset
target has lost operations it can never recover (the primary's log was
cleared); it marks itself ``stale`` and disqualifies itself from both
promotion and reads — resynchronizing a stale replica via state
transfer is out of scope here.  So is evicting an unresponsive
replica from a chain: link faults cannot stall the stream (unacked
entries retransmit forever), so only the explicit ``apply_paused``
chaos knob can hold replies indefinitely, and chaos scenarios resume
or discard such replicas themselves.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster.messages import (
    BatchReply,
    BatchRequest,
    ReplicaAck,
    ReplicaAppend,
    ReplicaDurable,
    ReplicaReadReply,
    ReplicaReadRequest,
    RollbackCommand,
)
from repro.cluster.worker import DFasterWorker, GateHost
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.queues import Queue


class ReplicationSource:
    """Primary-side half of a chain: log shipping plus reply holding.

    The host is any :class:`~repro.cluster.worker.GateHost` (a D-FASTER
    worker or a D-Redis proxy): its gate reports feed :meth:`log_seal`
    / :meth:`log_persist`, its reply path calls :meth:`hold_and_send`.
    All sends go through
    :meth:`Network.send <repro.sim.network.Network.send>` from the
    host's address, so a crashed host's stream stops exactly when its
    endpoint goes down.
    """

    #: The unacked log tail is re-shipped this often, in seconds.
    ACK_INTERVAL = 10e-3

    def __init__(self, env: Environment, net: Network, host: GateHost,
                 replicas: List["ReplicaNode"]):
        self.env = env
        self.net = net
        self.host = host
        self.replicas = [node.address for node in replicas]
        #: Stream epoch; bumped on every primary restart.
        self.epoch = 1
        self._next_seq = 1
        #: seq -> (entry, size_ops): unacked log tail kept for retransmit.
        self._log: Dict[int, Tuple[tuple, int]] = {}
        #: replica address -> highest cumulative ack this epoch.
        self._acks: Dict[str, int] = {a: 0 for a in self.replicas}
        #: seq -> (reply_to, reply, size_ops, dedup key): held "ok"s.
        self._held: "OrderedDict[int, tuple]" = OrderedDict()
        self._held_keys: set = set()
        self._durable = 0
        #: Set at promotion: the chain is gone, hooks become no-ops.
        self.retired = False
        self.appends_sent = 0
        self.retransmissions = 0
        self.replies_held = 0
        self.replies_released = 0
        env.process(self._retransmit_loop(),
                    name=f"repl-retx:{host.address}")

    # -- log shipping ----------------------------------------------------

    def _append(self, entry: tuple, size_ops: int = 1) -> int:
        seq = self._next_seq
        self._next_seq += 1
        self._log[seq] = (entry, size_ops)
        message = ReplicaAppend(self.host.address, self.epoch, seq, (entry,))
        for replica in self.replicas:
            self.net.send(self.host.address, replica, message,
                          size_ops=size_ops)
            self.appends_sent += 1
        return seq

    def hold_and_send(self, request: BatchRequest, reply: BatchReply) -> None:
        """Ship an executed batch; release the client reply on full ack.

        With no replicas (or after retirement) this degenerates to the
        plain direct send, so the worker's reply path is uniform.
        """
        if self.retired or not self.replicas:
            self.net.send(self.host.address, request.reply_to, reply,
                          size_ops=request.op_count)
            return
        seq = self._append(("batch", request, reply.version),
                           size_ops=max(1, request.op_count))
        key = (request.session_id, request.batch_id)
        self._held[seq] = (request.reply_to, reply, request.op_count, key)
        self._held_keys.add(key)
        self.replies_held += 1

    def is_held(self, key: Tuple[str, int]) -> bool:
        """Is the memoized reply for this dedup key still unreleased?

        The worker's duplicate-suppression path must not resend a held
        reply — the whole point of holding is that no client learns of
        the batch before every replica has it.
        """
        return key in self._held_keys

    def handle_ack(self, ack: ReplicaAck) -> None:
        if self.retired or ack.epoch != self.epoch:
            return
        if ack.replica_id not in self._acks:
            return
        if ack.seq > self._acks[ack.replica_id]:
            self._acks[ack.replica_id] = ack.seq
            self._release()

    def _release(self) -> None:
        floor = min(self._acks.values()) if self._acks else 0
        for seq in [s for s in self._log if s <= floor]:
            del self._log[seq]
        while self._held:
            seq = next(iter(self._held))
            if seq > floor:
                break
            reply_to, reply, size_ops, key = self._held.pop(seq)
            self._held_keys.discard(key)
            self.replies_released += 1
            self.net.send(self.host.address, reply_to, reply,
                          size_ops=size_ops)

    # -- primary lifecycle hooks ----------------------------------------

    def log_seal(self, version: int) -> None:
        """The primary sealed ``version`` (checkpoint or autoseal)."""
        if self.retired or not self.replicas:
            return
        self._append(("seal", version))

    def log_persist(self, version: int) -> None:
        """The primary's persisted watermark advanced (flush finished)."""
        if self.retired or not self.replicas:
            return
        if version > self._durable:
            self._durable = version
        message = ReplicaDurable(self.host.address, self._durable)
        for replica in self.replicas:
            self.net.send(self.host.address, replica, message, size_ops=1)

    def log_rollback(self, world_line: int, restored: int) -> None:
        """The primary survived a §4.1 rollback; mirror the restore.

        ``restored`` is the version the primary's engine *actually*
        restored to (its guaranteed checkpoint), not the requested cut
        target — replicas must land on the identical version.
        """
        if self.retired or not self.replicas:
            return
        self._append(("rollback", world_line, restored))

    def on_crash(self) -> None:
        """Held replies are volatile: the acks that would release them
        died with the process.  Clients retransmit, and (after a
        promotion) the elected replica's memoized copy answers them."""
        self._held.clear()
        self._held_keys.clear()

    def on_restart(self, world_line: int, restored: int,
                   resume_version: int) -> None:
        """The primary restarted via the rollback fallback: new epoch.

        The volatile log died with the process, so the new epoch opens
        with a ``reset`` entry; any replica whose applied prefix ran
        ahead of ``restored`` rolls back with it, and any replica that
        lagged *behind* has permanently missed entries and goes stale.
        """
        if self.retired:
            return
        self.epoch += 1
        self._next_seq = 1
        self._log.clear()
        self._held.clear()
        self._held_keys.clear()
        self._acks = {a: 0 for a in self.replicas}
        self._durable = min(self._durable, restored)
        if self.replicas:
            self._append(("reset", world_line, restored, resume_version))

    def retire(self) -> None:
        """Chain dissolved (promotion): drop state, stop streaming."""
        self.retired = True
        self._log.clear()
        self._held.clear()
        self._held_keys.clear()

    # -- retransmit ------------------------------------------------------

    def _retransmit_loop(self):
        """Re-ship the unacked tail until the chain retires."""
        while not self.retired:
            yield self.ACK_INTERVAL
            if self.retired or not self.host.running:
                return
            if self.host.crashed:
                continue
            self._resend_unacked()

    def _resend_unacked(self) -> None:
        for replica in self.replicas:
            acked = self._acks.get(replica, 0)
            for seq in sorted(s for s in self._log if s > acked):
                entry, size_ops = self._log[seq]
                self.net.send(
                    self.host.address, replica,
                    ReplicaAppend(self.host.address, self.epoch, seq,
                                  (entry,)),
                    size_ops=size_ops)
                self.retransmissions += 1
            if self._durable:
                self.net.send(self.host.address, replica,
                              ReplicaDurable(self.host.address,
                                             self._durable),
                              size_ops=1)


class ReplicaNode(DFasterWorker):
    """A standby worker: applies the primary's log, serves prefix reads.

    The replica's engine is constructed with the *primary's* object id,
    so its DPR row, seal reports and session watermarks line up exactly
    with the primary's — promotion changes which network address serves
    the shard, never the shard's identity.  Until promoted it runs with
    no finder or manager attachment and checkpoints disabled: every
    seal/persist transition is driven by the replicated log, keeping
    the replica's version history byte-identical to the primary's.

    Read serving never touches live engine state: each applied seal
    entry snapshots a key/value mirror, and a read is answered from the
    largest snapshot at or below the client's guaranteed-cut version —
    a prefix no §4.1 recovery can erase, since recovery restores *to*
    the cut.  (The durable watermark alone would not do: persisted
    versions above the cut still roll back while their cross-shard
    dependencies are open.)  Snapshots are kept unpruned; simulated
    runs are short and modeled engines carry no payloads, so the
    mirror stays tiny.
    """

    #: How often the replica publishes its (applied, durable) record.
    PUBLISH_INTERVAL = 10e-3

    def __init__(self, env: Environment, net: Network, address: str,
                 primary_address: str, engine, device, cost, stats,
                 metadata, vcpus: int = 4,
                 checkpoint_interval: float = 0.1,
                 rng: Optional[random.Random] = None):
        super().__init__(env, net, address, engine, device, cost, stats,
                         finder_address=None, manager_address=None,
                         vcpus=vcpus,
                         checkpoint_interval=checkpoint_interval,
                         checkpoints_enabled=False, dpr_enabled=True,
                         rng=rng)
        self.primary_address = primary_address
        self.metadata = metadata
        self.promoted = False
        #: Permanently behind (missed entries across a reset): excluded
        #: from promotion and reads until a (not modeled) state transfer.
        self.stale = False
        #: Highest sealed version this replica has fully applied.
        self.applied_version = 0
        #: The primary's persisted watermark, as last announced.
        self.durable_version = 0
        #: Chaos knob: buffer appends without applying or acking.
        self.apply_paused = False
        self._paused_backlog: List[ReplicaAppend] = []
        self._epoch = 1
        #: epoch -> highest contiguously applied seq.
        self._ack_floor: Dict[int, int] = {1: 0}
        #: epoch -> {seq -> entries}: out-of-order arrivals.
        self._reorder: Dict[int, Dict[int, tuple]] = {}
        #: Key/value mirror of applied functional ops (empty for
        #: modeled engines, which carry no payloads).
        self._kv_mirror: Dict = {}
        #: sealed version -> mirror snapshot taken at that seal.
        self._durable_snapshots: Dict[int, Dict] = {0: {}}
        self._promotion_version: Optional[int] = None
        #: Publish loop must overwrite (not max-merge) the metadata
        #: record after a restore lowered the watermarks.
        self._record_reset = False
        self.entries_applied = 0
        self.reads_served = 0
        self.reads_refused = 0
        self.read_work: Queue = Queue(env, name=f"reads:{address}")
        env.process(self._publish_loop(), name=f"repl-pub:{address}")
        for thread_id in range(vcpus):
            env.process(self._read_server(thread_id),
                        name=f"read:{address}/{thread_id}")

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, message):
        """Replica dispatch (sink handler, overriding the worker's):
        replication stream first; worker duty (batches, rollbacks) only
        once promoted — a standby follows its primary's stream, not the
        cluster manager."""
        payload = message.payload
        if isinstance(payload, ReplicaAppend):
            self._handle_append(payload)
        elif isinstance(payload, ReplicaDurable):
            self._handle_durable(payload)
        elif isinstance(payload, ReplicaReadRequest):
            self.read_work.put(payload)
        elif self.promoted:
            super()._dispatch(message)
        elif isinstance(payload, BatchRequest):
            # A write reached a standby (stale client cache): bounce it.
            self.net.send(self.address, payload.reply_to,
                          self._not_owner(payload),
                          size_ops=payload.op_count)
        elif not isinstance(payload, RollbackCommand):
            self._control(payload)  # cuts are cached on standby too

    # -- stream apply ----------------------------------------------------

    def _handle_append(self, append: ReplicaAppend) -> None:
        if self.promoted or self.crashed or not self.running:
            return
        if self.apply_paused:
            self._paused_backlog.append(append)
            return
        self._buffer(append)
        self._maybe_switch_epoch()
        self._drain_epoch()
        self._send_ack(append.primary)

    def resume_apply(self) -> None:
        """Chaos knob: drain the backlog buffered while paused."""
        self.apply_paused = False
        backlog, self._paused_backlog = self._paused_backlog, []
        for append in backlog:
            self._handle_append(append)

    def _buffer(self, append: ReplicaAppend) -> None:
        if append.epoch < self._epoch:
            return
        if append.seq <= self._ack_floor.get(append.epoch, 0):
            return
        bucket = self._reorder.setdefault(append.epoch, {})
        bucket.setdefault(append.seq, append.entries)

    def _maybe_switch_epoch(self) -> None:
        """Adopt the highest buffered epoch that opens with a reset."""
        best = None
        for epoch in sorted(self._reorder):
            if epoch <= self._epoch:
                continue
            first = self._reorder[epoch].get(1)
            if first is not None and first[0][0] == "reset":
                best = epoch
        if best is None:
            return
        for stale_epoch in [e for e in self._reorder if e < best]:
            self._reorder.pop(stale_epoch, None)
        self._epoch = best
        self._ack_floor.setdefault(best, 0)

    def _drain_epoch(self) -> None:
        bucket = self._reorder.get(self._epoch)
        if bucket is None:
            return
        floor = self._ack_floor.get(self._epoch, 0)
        while floor + 1 in bucket:
            entries = bucket.pop(floor + 1)
            floor += 1
            for entry in entries:
                self._apply_entry(entry)
        self._ack_floor[self._epoch] = floor

    def _send_ack(self, primary: str) -> None:
        ack = ReplicaAck(self.address, primary, self._epoch,
                         self._ack_floor.get(self._epoch, 0))
        self.net.send(self.address, primary, ack, size_ops=1)

    def _handle_durable(self, durable: ReplicaDurable) -> None:
        if self.promoted or self.crashed or not self.running:
            return
        if durable.version > self.durable_version:
            self.durable_version = durable.version

    def _apply_entry(self, entry: tuple) -> None:
        self.entries_applied += 1
        kind = entry[0]
        if kind == "batch":
            self._apply_batch(entry[1], entry[2])
        elif kind == "seal":
            self._apply_seal(entry[1])
        elif kind == "rollback":
            self._apply_restore(entry[1], entry[2], 0)
        elif kind == "reset":
            self._apply_restore(entry[1], entry[2], entry[3])

    def _apply_batch(self, request: BatchRequest, version: int) -> None:
        """Re-execute a primary batch, landing on the same ``version``
        (see :meth:`GateHost._gated`), and memoize the reply: after a
        promotion it answers the clients' retransmissions."""
        # Autoseals triggered by the fast-forward snapshot the mirror
        # *before* this batch's ops land (their versions precede it).
        reply = self._gated(request, replayed_at=version)
        if request.ops is not None:
            for real_op in request.ops:
                self._mirror_apply(real_op)
        self.gate.remember((request.session_id, request.batch_id), reply)

    def _apply_seal(self, version: int) -> None:
        if self.engine.version <= version:
            self.gate.commit(version)

    # Standby duty reports nowhere: a seal the stream dictates is
    # durable as applied, and only feeds the read mirror.  Promoted
    # duty is the worker's, plus keeping that mirror fresh.

    def report_seal(self, descriptor) -> None:
        if self.promoted:
            super().report_seal(descriptor)
            # First-hand seals keep the read path alive past the
            # promotion point: snapshot the mirror and advance the
            # applied watermark exactly as replica duty did.
            self._note_sealed(descriptor.token.version)

    def report_persisted(self, token) -> None:
        if self.promoted:
            super().report_persisted(token)
        else:
            self._note_sealed(token.version)

    def _flush(self, descriptor) -> None:
        if self.promoted:
            super()._flush(descriptor)
        else:
            self.gate.persisted(descriptor.token.version)

    def _note_sealed(self, version: int) -> None:
        self._durable_snapshots[version] = dict(self._kv_mirror)
        if version > self.applied_version:
            self.applied_version = version

    def _mirror_apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "set":
            self._kv_mirror[op[1]] = op[2]
        elif kind == "delete":
            self._kv_mirror.pop(op[1], None)
        elif kind == "incr":
            amount = op[2] if len(op) > 2 else 1
            self._kv_mirror[op[1]] = self._kv_mirror.get(op[1], 0) + amount

    def _apply_restore(self, world_line: int, target: int,
                       resume_version: int) -> None:
        if world_line <= self.gate.world_line:
            return
        if target > self.applied_version:
            # The primary restored past this replica's applied prefix:
            # the gap's operations are gone (the primary's volatile log
            # died with it), so this copy can never be proven identical
            # again.  Disqualify it.
            self.stale = True
        restored = self.gate.restore(target, world_line, resume_version)
        self.applied_version = min(self.applied_version, restored)
        self.durable_version = min(self.durable_version, restored)
        self._record_reset = True
        for version in [v for v in self._durable_snapshots if v > restored]:
            del self._durable_snapshots[version]
        base = [v for v in self._durable_snapshots if v <= restored]
        if base:
            self._kv_mirror = dict(self._durable_snapshots[max(base)])
        else:
            self._kv_mirror = {}

    # -- watermark publication ------------------------------------------

    def _publish_loop(self):
        """Periodically publish (applied, durable) to the metadata store.

        Keeps running after a promotion: the record stays keyed by the
        shard's object id (the original primary address), so read
        clients keep finding a durable-prefix server for the shard —
        now with the promoted node's first-hand persists extending the
        watermark.
        """
        while self.running:
            yield self.PUBLISH_INTERVAL
            if not self.running or self.crashed:
                if not self.running:
                    return
                continue
            yield self.metadata.access()
            if not self.running or self.crashed:
                continue
            self._publish_record()

    def _publish_record(self) -> None:
        if self._record_reset:
            self._record_reset = False
            self.metadata.reset_replica(
                self.primary_address, self.address,
                0 if self.stale else self.applied_version,
                0 if self.stale else self.durable_version)
        elif not self.stale:
            self.metadata.publish_replica(
                self.primary_address, self.address,
                self.applied_version, self._effective_durable())

    # -- recoverable-prefix reads ---------------------------------------

    def _read_server(self, thread_id: int):
        """Serve GET batches from durable snapshots (never live state)."""
        while self.running:
            request = yield self.read_work
            if not self.running or self.crashed:
                continue
            yield self.cost.server_batch_time(
                len(request.keys), 0.0, self._rcu_probability(),
                self._slowdown(), dpr=True)
            if not self.running or self.crashed:
                continue
            reply = self._build_read_reply(request)
            self.net.send(self.address, request.reply_to, reply,
                          size_ops=max(1, len(request.keys)))

    def _effective_durable(self) -> int:
        """The durable watermark including first-hand post-promotion
        persists.  Pre-promotion replica-local marks all sit below the
        promotion point and never inflate the watermark."""
        durable = self.durable_version
        if self.promoted:
            persisted = self.engine.max_persisted_version
            if (self._promotion_version is not None
                    and persisted >= self._promotion_version
                    and persisted > durable):
                durable = persisted
        return durable

    def _build_read_reply(self, request: ReplicaReadRequest):
        """Serve at the guaranteed cut, never past it.

        ``request.min_version`` is the client's view of the shard's
        version in the guaranteed cut.  Persisted-but-above-cut state
        is *not* rollback-proof (a §4.1 recovery restores to the cut,
        which lags persistence while cross-shard dependencies are
        open), so the served snapshot is the largest one at or below
        the cut — and the replica must have applied and heard
        durability up to the cut, else it refuses.
        """
        cut_version = request.min_version
        durable = self._effective_durable()
        if (self.stale or self.applied_version < cut_version
                or durable < cut_version):
            self.reads_refused += 1
            # A stale replica can serve no prefix at all: it reports 0,
            # as its published record does, so the reader's re-route
            # (``ReplicaReadClient._note_behind``) stops choosing it.
            return ReplicaReadReply(request.read_id, self.address, "behind",
                                    durable_version=0 if self.stale
                                    else durable,
                                    served_at=self.env.now)
        best = max((v for v in self._durable_snapshots if v <= cut_version),
                   default=0)
        snapshot = self._durable_snapshots.get(best, {})
        values = tuple(snapshot.get(key) for key in request.keys)
        self.reads_served += 1
        return ReplicaReadReply(request.read_id, self.address, "ok",
                                durable_version=best, values=values,
                                served_at=self.env.now)

    # -- promotion -------------------------------------------------------

    def promote(self, finder_address: str, manager_address: str) -> None:
        """Become the shard's primary: full worker duty from here on.

        The engine keeps its identity (the dead primary's object id),
        so seal/persist reports continue the same DPR table row; the
        only new machinery is the heartbeat and checkpoint loops the
        standby never ran.
        """
        if self.promoted:
            return
        self.promoted = True
        self.finder_address = finder_address
        self.manager_address = manager_address
        self.checkpoints_enabled = True
        self._promotion_version = self.engine.version
        self.apply_paused = False
        self._paused_backlog = []
        self._reorder.clear()
        self.env.process(self._heartbeat_loop(),
                         name=f"heartbeat:{self.address}")
        self.env.process(self._checkpoint_loop(),
                         name=f"checkpoint:{self.address}")

    def _execute(self, request: BatchRequest) -> BatchReply:
        """Promoted duty keeps the read mirror fresh."""
        reply = super()._execute(request)
        if reply.status == "ok" and request.ops is not None:
            for real_op in request.ops:
                self._mirror_apply(real_op)
        return reply


class ReplicationDirector:
    """Builds chains and executes promotions decided by the manager.

    The director owns no protocol decisions — the cluster manager's
    election (metadata CAS, seeded tie-break) picks the winner; the
    director performs the re-homing: flip the node, move ownership
    rows, retire the old source, swap the dead address for the new one
    in the cluster's membership list, and drop client owner caches
    that still name it.
    """

    def __init__(self, env: Environment, net: Network, metadata,
                 members: List[str], finder_address: str,
                 manager_address: str):
        self.env = env
        self.net = net
        self.metadata = metadata
        #: The cluster's membership list, shared with the finder
        #: service, the manager and the fleet clients.
        self.members = members
        self.finder_address = finder_address
        self.manager_address = manager_address
        #: primary address -> its chain's ReplicaNodes.
        self.chains: Dict[str, List[ReplicaNode]] = {}
        #: primary address -> its ReplicationSource.
        self.sources: Dict[str, ReplicationSource] = {}
        #: Clients whose partition owner caches need invalidating.
        self.clients: List = []
        #: Set by the cluster when elasticity is enabled, so promotion
        #: can transfer the dead owner's leases to the elected node.
        self.elastic = None

    def attach_chain(self, host,
                     replicas: List[ReplicaNode]) -> ReplicationSource:
        """Wire a primary to its replicas and start streaming."""
        source = ReplicationSource(self.env, self.net, host, replicas)
        host.replication = source
        self.chains[host.address] = list(replicas)
        self.sources[host.address] = source
        for node in replicas:
            self.metadata.register_replica(host.address, node.address)
        return source

    def register_client(self, client) -> None:
        """Drop ``client``'s cached owners (its ``_owner_cache``) of
        every promoted-away address."""
        if client not in self.clients:
            self.clients.append(client)

    def promote(self, primary_address: str,
                replica_address: str) -> Optional[ReplicaNode]:
        """Flip ``replica_address`` to primary duty for a dead owner.

        Returns the promoted node, or None when the elected replica is
        itself unusable (stale or crashed) — the caller then falls back
        to §4.1 rollback.  The promoted node keeps no chain of its own:
        a second crash of the same shard takes the rollback path.
        """
        node = None
        for candidate in self.chains.get(primary_address, []):
            if candidate.address == replica_address:
                node = candidate
        if node is None or node.stale or node.crashed:
            return None
        node.promote(self.finder_address, self.manager_address)
        source = self.sources.pop(primary_address, None)
        if source is not None:
            source.retire()
        for peer in self.chains.get(primary_address, []):
            self.metadata.drop_replica(primary_address, peer.address)
        self.chains.pop(primary_address, None)
        moved = self.metadata.reassign_owner(primary_address, node.address)
        if self.elastic is not None:
            self.elastic.detach_worker(primary_address)
            view = self.elastic.attach_worker(node)
            for partition in moved:
                view.grant(partition)
        # Index-preserving, so recovery fan-outs keep their order.
        _swap_address(self.members, primary_address, node.address)
        # A ReplicaReadClient routes by the shard's object id (== the
        # original primary address), which promotion preserves, so
        # only owner caches need dropping.
        for client in self.clients:
            cache = client._owner_cache
            for partition in [p for p, owner in cache.items()
                              if owner == primary_address]:
                del cache[partition]
        return node


def _swap_address(addresses: List[str], old: str, new: str) -> None:
    """In-place, index-preserving address substitution."""
    for index, address in enumerate(addresses):
        if address == old:
            addresses[index] = new
