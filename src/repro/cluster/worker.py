"""A D-FASTER worker (Figure 6).

Each worker owns one shard (a StateObject engine — the counters-only
:class:`~repro.cluster.modeled.ModeledStore` for performance runs or a
real :class:`~repro.faster.state_object.FasterStateObject` for
functional runs), a pool of server threads, a checkpoint loop driving
``Commit()`` every interval, a FIFO flusher that performs the storage
writes and reports durability to the DPR finder, and the rollback
handler the cluster manager commands during recovery.

Timing comes from the :class:`~repro.cluster.costmodel.CostModel`:
server threads charge per-batch service time, inflated while the
checkpoint machinery is in its transition window, while a flush is
outstanding (backend-dependent), and when checkpoints queue up faster
than storage drains them (the Figure 14 thrash regime).

Workers are idempotent under at-least-once delivery: duplicated
``BatchRequest``s are answered from a memoized reply cache (or dropped
while the original is in service) rather than re-executed, and
duplicated ``RollbackCommand``s are world-line-gated no-ops that still
re-ack.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.cluster.costmodel import CostModel
from repro.cluster.messages import (
    BatchReply,
    BatchRequest,
    CutBroadcast,
    PersistReport,
    ReplicaAck,
    RollbackCommand,
    RollbackDone,
    SealReport,
)
from repro.cluster.modeled import ModeledStore
from repro.cluster.ownership import LeaseHolder, StaleLeaseError
from repro.cluster.stats import ClusterStats
from repro.core.cuts import DprCut
from repro.core.state_object import StateObject, WorldLineMismatch
from repro.core.worldline import WorldLineDecision
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.queues import Queue
from repro.sim.rand import make_rng
from repro.sim.storage import StorageDevice
from repro.workloads.ycsb import WorkloadSpec

#: Memoized replies kept per worker for duplicate-request suppression.
#: Far larger than any plausible in-flight window (clients keep ~2
#: batches per worker outstanding), so a duplicate essentially always
#: finds its original's reply still cached.
REPLY_CACHE = 4096


class DFasterWorker(LeaseHolder):
    """One worker VM: shard engine + server threads + DPR machinery."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        engine: StateObject,
        device: StorageDevice,
        cost: CostModel,
        stats: ClusterStats,
        finder_address: Optional[str] = None,
        manager_address: Optional[str] = None,
        vcpus: int = 16,
        checkpoint_interval: float = 0.1,
        checkpoints_enabled: bool = True,
        dpr_enabled: bool = True,
        rng: Optional[random.Random] = None,
        external_dispatch: bool = False,
    ):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.engine = engine
        self.device = device
        self.cost = cost
        self.stats = stats
        self.finder_address = finder_address
        self.manager_address = manager_address
        self.vcpus = vcpus
        self.checkpoint_interval = checkpoint_interval
        self.checkpoints_enabled = checkpoints_enabled
        self.dpr_enabled = dpr_enabled
        self._rng = make_rng(rng)

        #: Batches awaiting a server thread.
        self.work = Queue(env, name=f"work:{address}")
        self._flush_queue = Queue(env, name=f"flush:{address}")
        #: Transition-window end time (ops are slower before it).
        self._slow_until = 0.0
        self._flushing = False
        self._machine_busy = False
        #: Checkpoints that came due while the machine was busy.
        self._missed_checkpoints = 0
        #: Worker-cached DPR cut, piggybacked on every reply.
        self.cached_cut: DprCut = DprCut()
        self.cached_max_version = 0
        #: Optional lease-guarded ownership view (§5.3): when set,
        #: batches carrying a partition id are validated against it and
        #: mis-routed ones bounce with status "not_owner".
        self.ownership = None
        self._lease_metadata = None
        self.not_owner_rejections = 0
        self.running = True
        #: Set while the process is down (crash/restart cycle).
        self.crashed = False
        self.batches_served = 0
        self.checkpoints_taken = 0
        #: Duplicate BatchRequests suppressed (answered from cache or
        #: dropped while the original was still in service).  At-least-
        #: once delivery makes duplicates normal, and re-executing one
        #: would double-apply its ops.
        self.duplicate_batches = 0
        #: (session_id, batch_id) -> (reply_to, BatchReply), insertion
        #: order, capped at REPLY_CACHE.
        self._replies: "OrderedDict[Tuple[str, int], Tuple[str, BatchReply]]" \
            = OrderedDict()
        #: Batches accepted but not yet replied to.
        self._inflight: set = set()
        #: Heartbeat period; the cluster manager detects a crash when
        #: heartbeats stop (§4.1's external failure detector).
        self.heartbeat_interval = 20e-3
        #: Optional :class:`~repro.cluster.replication.ReplicationSource`
        #: when this worker heads a primary/replica chain: "ok" replies
        #: are then held until every replica acks the batch's log entry.
        self.replication = None

        if not external_dispatch:
            # Sink mode: _dispatch is a plain function, so routing each
            # inbound message costs one _K_SINK dispatch instead of a
            # parked generator plus a per-message get() Event.  Same
            # sequence-number consumption, so event order is unchanged.
            self.endpoint.inbox.set_handler(self._dispatch)
        env.process(self._flusher(), name=f"flusher:{address}")
        if manager_address:
            env.process(self._heartbeat_loop(), name=f"hb:{address}")
        if checkpoints_enabled:
            env.process(self._checkpoint_loop(), name=f"ckpt:{address}")
        # Under external dispatch (co-location) the client threads pinned
        # to the vCPUs serve remote work themselves; no dedicated pool.
        if not external_dispatch:
            for thread in range(vcpus):
                env.process(self._server_thread(thread),
                            name=f"server:{address}/{thread}")

    # -- message routing --------------------------------------------------

    def _dispatch(self, message):
        """Inbox sink handler: route one inbound message (never yields)."""
        payload = message.payload
        if isinstance(payload, BatchRequest):
            if self.admit(payload):
                self.work.put(payload)
        elif isinstance(payload, CutBroadcast):
            self.cached_cut = payload.cut
            self.cached_max_version = getattr(payload, "max_version", 0)
        elif isinstance(payload, RollbackCommand):
            self.env.process(self._handle_rollback(payload),
                             name=f"rollback:{self.address}")
        elif isinstance(payload, ReplicaAck):
            if self.replication is not None:
                self.replication.handle_ack(payload)
        # RollbackDone / reports are for services, not workers.

    def admit(self, request: BatchRequest) -> bool:
        """Admit a request for service unless it is a duplicate.

        A duplicate of an already-served batch is answered from the
        memoized reply (re-executing would double-apply its ops); a
        duplicate of a batch still in service is dropped — the
        original's reply answers both copies.
        """
        key = (request.session_id, request.batch_id)
        cached = self._replies.get(key)
        if cached is not None:
            self.duplicate_batches += 1
            # A reply still held for replica acks must not leak out
            # through the duplicate path either.
            if self.replication is None or not self.replication.is_held(key):
                reply_to, reply = cached
                self.net.send(self.address, reply_to, reply,
                              size_ops=request.op_count)
            return False
        if key in self._inflight:
            self.duplicate_batches += 1
            return False
        self._inflight.add(key)
        return True

    # -- ownership (§5.3) ----------------------------------------------------
    # attach_ownership() and the lease-renewal loop are LeaseHolder's.

    def request_checkpoint(self) -> bool:
        """Seal a version out of band (transfer step 2, §5.3).

        The elastic coordinator calls this when a migration is waiting
        on an idle old owner that would otherwise never reach a
        checkpoint boundary.  Returns False when the worker cannot
        comply (down, stopped, or a checkpoint already in flight —
        which itself provides the boundary the caller wants).
        """
        if self.crashed or not self.running or self._machine_busy:
            return False
        self.env.process(self._run_checkpoint(),
                         name=f"forced-ckpt:{self.address}")
        return True

    # -- serving -------------------------------------------------------------

    def _slowdown(self) -> float:
        factor = 1.0
        if self.env.now < self._slow_until:
            factor *= self.cost.transition_slowdown
        if self._flushing:
            factor *= self.cost.flush_slowdown.get(self.device.kind, 1.0)
        if self._missed_checkpoints > 0:
            factor *= self.cost.thrash_slowdown
        return factor

    def _server_thread(self, thread_id: int):
        env = self.env
        # Hoists: this loop turns over once per served batch.
        work = self.work
        batch_time = self.cost.server_batch_time
        execute = self._execute
        send_reply = self._send_reply
        address = self.address
        while True:
            # Channel wait — resumed with the next batch, no get() Event.
            request: BatchRequest = yield work
            if self.crashed:
                continue  # request raced the crash; drop it
            write_fraction = (request.write_count / request.op_count
                              if request.op_count else 0.0)
            rcu = self._rcu_probability()
            service = batch_time(
                request.op_count, write_fraction, rcu,
                self._slowdown(), dpr=self.dpr_enabled,
            )
            yield service
            tracer = env.tracer
            if tracer is not None:
                tracer.span("worker.batch_service", env.now, service,
                            worker=address)
            reply = execute(request)
            self.batches_served += 1
            send_reply(request, reply)

    def _send_reply(self, request: BatchRequest, reply: BatchReply) -> None:
        """Release a reply to the client — or hold it for replica acks.

        When this worker heads a replication chain, an "ok" reply is
        handed to the :class:`~repro.cluster.replication.ReplicationSource`,
        which ships the batch to every replica and releases the reply
        only once all of them ack it: no client ever learns of a write
        a promoted replica could be missing.  Bounces and failures
        carry no state and go straight out.
        """
        source = self.replication
        if source is not None and reply.status == "ok":
            source.hold_and_send(request, reply)
        else:
            self.net.send(self.address, request.reply_to, reply,
                          size_ops=request.op_count)

    def _rcu_probability(self) -> float:
        engine = self.engine
        writes = getattr(engine, "writes_since_seal", 0.0)
        keys = getattr(engine, "effective_keys", 0.0)
        return self.cost.rcu_probability(writes, keys,
                                         self.checkpoints_enabled)

    def _execute(self, request: BatchRequest) -> BatchReply:
        """Run the DPR-gated execute, memoize and return the reply.

        "not_owner" bounces are deliberately NOT memoized: a client that
        regains ownership information may re-send the same logical batch
        under the same id once the partition transfers back, and a
        cached bounce would answer it forever.  Bounces are also cheap
        to recompute, so duplicate suppression loses nothing.
        """
        reply = self._execute_uncached(request)
        key = (request.session_id, request.batch_id)
        self._inflight.discard(key)
        if reply.status != "not_owner":
            self._replies[key] = (request.reply_to, reply)
            while len(self._replies) > REPLY_CACHE:
                self._replies.popitem(last=False)
        return reply

    def _execute_uncached(self, request: BatchRequest) -> BatchReply:
        """Run the DPR-gated execute and build the reply."""
        if self.ownership is not None and request.partition is not None:
            try:
                # Ownership validation against the local lease view
                # (§5.3): a stale lease surfaces as a bounced batch,
                # never as a worker crash.
                self.ownership.validate(request.partition)
            except StaleLeaseError:
                self.not_owner_rejections += 1
                return BatchReply(
                    batch_id=request.batch_id,
                    session_id=request.session_id,
                    object_id=self.engine.object_id,
                    status="not_owner",
                    world_line=self.engine.world_line.current,
                    op_count=request.op_count,
                    served_at=self.env.now,
                    partition=request.partition,
                )
            # Renew-on-serve: actively served partitions keep their
            # lease alive without metadata traffic.
            self.ownership.renew(request.partition)
            tracer = self.env.tracer
            if tracer is not None:
                tracer.counter("elastic.partition_ops.%d" % request.partition,
                               request.op_count)
        min_version = request.min_version if self.dpr_enabled else 0
        deps = request.deps if self.dpr_enabled else ()
        world_line = request.world_line if self.dpr_enabled else None
        if request.ops is not None:
            op: Tuple = ("ops", request.ops)
        else:
            op = ("batch", request.op_count, request.write_count)
        try:
            if request.ops is not None:
                results = []
                version = 0
                for index, real_op in enumerate(request.ops):
                    outcome = self.engine.execute(
                        real_op,
                        session_id=request.session_id,
                        seqno=request.first_seqno + index,
                        min_version=min_version,
                        deps=deps if index == 0 else (),
                        world_line=world_line,
                    )
                    results.append(outcome.value)
                    version = outcome.version
                reply_results: Optional[Tuple] = tuple(results)
            else:
                outcome = self.engine.execute(
                    op,
                    session_id=request.session_id,
                    seqno=request.first_seqno + request.op_count - 1,
                    min_version=min_version,
                    deps=deps,
                    world_line=world_line,
                )
                version = outcome.version
                reply_results = None
        except WorldLineMismatch as mismatch:
            status = ("rolled_back"
                      if mismatch.decision is WorldLineDecision.REJECT
                      else "retry")
            return BatchReply(
                batch_id=request.batch_id,
                session_id=request.session_id,
                object_id=self.engine.object_id,
                status=status,
                world_line=self.engine.world_line.current,
                op_count=request.op_count,
                cut=self.cached_cut,
                served_at=self.env.now,
            )
        # Fast-forwards triggered by the client's Vs seal implicitly;
        # their flushes must run (FIFO) like any other checkpoint.
        self._enqueue_autosealed()
        # Positional: this is the per-batch success path.
        return BatchReply(
            request.batch_id, request.session_id, self.engine.object_id,
            "ok", self.engine.world_line.current, version, request.op_count,
            self.cached_cut if self.dpr_enabled else None,
            self.env.now, reply_results)

    def _enqueue_autosealed(self) -> None:
        for descriptor in self.engine.drain_sealed():
            self._report_seal(descriptor)
            self._flush_queue.put((descriptor, None))

    # -- checkpointing (Commit) ----------------------------------------------

    def _checkpoint_loop(self):
        env = self.env
        while self.running:
            yield self.checkpoint_interval
            if not self.running:
                break
            if self.crashed:
                continue
            if self._machine_busy:
                # The previous checkpoint hasn't finished: the Figure 14
                # thrash regime.  Queue exactly one catch-up checkpoint.
                self._missed_checkpoints = min(self._missed_checkpoints + 1, 4)
                continue
            yield from self._run_checkpoint()
            while self._missed_checkpoints > 0 and self.running:
                self._missed_checkpoints -= 1
                yield from self._run_checkpoint()

    def _run_checkpoint(self):
        env = self.env
        self._machine_busy = True
        # §3.4 laggard rule: fast-forward the next checkpoint to Vmax.
        if self.dpr_enabled and self.cached_max_version > self.engine.version:
            self.engine.fast_forward(self.cached_max_version)
            self._enqueue_autosealed()
        descriptor = self.engine.seal_version()
        self._report_seal(descriptor)
        self.checkpoints_taken += 1
        # Transition window: epoch refreshes + post-fold-over RCU churn.
        self._slow_until = env.now + self.cost.transition_window
        flushed = env.event(name=f"flush-done:{self.address}")
        self._flush_queue.put((descriptor, flushed))
        yield self.cost.transition_window
        yield flushed
        self._machine_busy = False

    def _report_seal(self, descriptor) -> None:
        if self.env.tracer is not None:
            self.env.tracer.begin_span(
                "worker.persist_lag",
                (self.engine.object_id, descriptor.token.version),
                self.env.now)
        if self.dpr_enabled and self.finder_address:
            self.net.send(self.address, self.finder_address,
                          SealReport(descriptor), size_ops=1)
        if self.replication is not None:
            self.replication.log_seal(descriptor.token.version)

    def _flusher(self):
        """FIFO checkpoint flushes; durability reports to the finder."""
        env = self.env
        while True:
            descriptor, done = yield self._flush_queue
            version = descriptor.token.version
            span_key = (self.engine.object_id, version)
            if not self.engine.is_sealed(version):
                # A rollback dropped this sealed version before its
                # flush ran; nothing to persist.
                if env.tracer is not None:
                    env.tracer.cancel_span("worker.persist_lag", span_key)
                if done is not None and not done.triggered:
                    done.succeed()
                continue
            self._flushing = True
            flush_started = env.now
            try:
                yield self.device.write(self.engine.checkpoint_bytes(version))
            except IOError:
                # Device crashed mid-flush; the version never persists.
                self._flushing = False
                if env.tracer is not None:
                    env.tracer.cancel_span("worker.persist_lag", span_key)
                if done is not None and not done.triggered:
                    done.succeed()
                continue
            self._flushing = False
            if env.tracer is not None:
                env.tracer.span("worker.flush", env.now,
                                env.now - flush_started,
                                worker=self.address)
            if self.engine.is_sealed(version):
                self.engine.mark_persisted(version)
                if env.tracer is not None:
                    env.tracer.end_span("worker.persist_lag", span_key,
                                        env.now, worker=self.address)
                if self.dpr_enabled and self.finder_address:
                    self.net.send(
                        self.address, self.finder_address,
                        PersistReport(self.engine.object_id, version),
                        size_ops=1,
                    )
                if self.replication is not None:
                    self.replication.log_persist(version)
            elif env.tracer is not None:
                # Rolled back while the flush was in flight.
                env.tracer.cancel_span("worker.persist_lag", span_key)
            if done is not None and not done.triggered:
                done.succeed()

    # -- recovery (Restore) ---------------------------------------------------------

    def _handle_rollback(self, command: RollbackCommand):
        """Roll back to the commanded cut on the new world-line (§4).

        The engine restore is logically immediate (readers stop seeing
        rolled-back versions the moment THROW begins); the rollback
        window models THROW convergence before the worker reports done.
        Operations keep being served throughout — that is the point of
        non-blocking recovery.

        Idempotent under duplication and retransmission: the world-line
        check makes the restore a no-op for stale or repeated commands,
        and every copy (re-)sends ``RollbackDone`` — which is exactly
        the ack the manager's retransmit loop is waiting on.
        """
        env = self.env
        target = command.cut.version_of(self.engine.object_id)
        applied = command.world_line > self.engine.world_line.current
        if applied:
            restored = self.engine.restore(target,
                                           world_line=command.world_line)
            self.cached_cut = command.cut
            if self.replication is not None:
                # Ship the version we actually landed on, not the cut
                # target — replicas must restore to the identical one.
                self.replication.log_rollback(command.world_line, restored)
        yield self.cost.rollback_window
        if applied and env.tracer is not None:
            env.tracer.span("worker.rollback", env.now,
                            self.cost.rollback_window,
                            worker=self.address,
                            world_line=command.world_line)
        if self.manager_address:
            self.net.send(self.address, self.manager_address,
                          RollbackDone(self.address, command.world_line),
                          size_ops=1)

    # -- crash & restart -------------------------------------------------------------

    def _heartbeat_loop(self):
        """Periodic liveness signal to the cluster manager (§4.1)."""
        from repro.cluster.messages import Heartbeat
        env = self.env
        while self.running:
            yield self.heartbeat_interval
            if self.running and not self.crashed:
                self.net.send(self.address, self.manager_address,
                              Heartbeat(self.address), size_ops=1)

    def crash(self) -> None:
        """Process failure: volatile state gone, NIC down, I/O aborted.

        Queued work is dropped; in-flight flushes fail (their versions
        never persist).  The cluster manager notices missing heartbeats
        and restarts the worker via :meth:`restart`.
        """
        self.crashed = True
        self.net.set_up(self.address, False)
        self.work.drain()
        self.endpoint.inbox.drain()
        # Volatile dedup state dies with the process; post-restart
        # duplicates of pre-crash batches are world-line-gated instead.
        self._replies.clear()
        self._inflight.clear()
        self.device.fail()
        if self.replication is not None:
            self.replication.on_crash()

    def restart(self, cut: DprCut, world_line: int,
                resume_version: int = 0) -> None:
        """Cold restart from durable state, as the cluster manager's
        bounded-time restart (§4.1): restore the shard to the frozen
        cut on the new world-line and rejoin the network."""
        self.device.repair()
        target = cut.version_of(self.engine.object_id)
        restored = self.engine.restore(target, world_line=world_line,
                                       resume_version=resume_version)
        self.cached_cut = cut
        if self.replication is not None:
            # New stream epoch: the volatile log died with the process.
            self.replication.on_restart(world_line, restored,
                                        resume_version)
        self._missed_checkpoints = 0
        self._machine_busy = False
        self._flushing = False
        self._slow_until = 0.0
        self._replies.clear()
        self._inflight.clear()
        self.crashed = False
        self.net.set_up(self.address, True)

    # -- control ---------------------------------------------------------------------

    def stop(self) -> None:
        self.running = False
